// Static configuration of the router and the network.
//
// The paper's simulator is parameterized in software over network size
// (1×2 up to 16×16 = 256 routers) and topology (torus or mesh, §7.1), and
// the authors explicitly want to re-run Fig. 1 with different queue depths
// (§3: "redo the simulation of Figure 1 with different buffer sizes").
// Everything below is therefore a runtime parameter, not a template knob.
#pragma once

#include <cstddef>

#include "common/error.h"
#include "common/types.h"

namespace tmsim::noc {

/// The router has five ports: one local (to the processing element) and
/// four directions of the 2-D grid.
inline constexpr std::size_t kPorts = 5;

enum class Port : std::uint8_t {
  kLocal = 0,
  kNorth = 1,
  kEast = 2,
  kSouth = 3,
  kWest = 4,
};

inline const char* port_name(Port p) {
  switch (p) {
    case Port::kLocal: return "local";
    case Port::kNorth: return "north";
    case Port::kEast: return "east";
    case Port::kSouth: return "south";
    case Port::kWest: return "west";
  }
  return "?";
}

enum class Topology : std::uint8_t { kTorus = 0, kMesh = 1 };

/// The largest router RouterConfig::validate admits. RouterState stores
/// its registers inline at this size (DESIGN.md §7).
inline constexpr std::size_t kMaxVcs = 4;
inline constexpr std::size_t kMaxQueueDepth = 15;
inline constexpr std::size_t kMaxQueues = kPorts * kMaxVcs;

/// Per-router microarchitecture parameters.
struct RouterConfig {
  /// Virtual channels per port (paper: 4).
  std::size_t num_vcs = 4;
  /// Flit slots per VC input queue (paper: 4 in the FPGA build; Fig. 1 was
  /// produced with depth 2).
  std::size_t queue_depth = 4;

  std::size_t num_queues() const { return kPorts * num_vcs; }
  /// Width of a queue read/write pointer register.
  std::size_t ptr_bits() const { return tmsim::bits_for(queue_depth); }
  /// Width of a downstream-credit counter register (counts 0..queue_depth).
  std::size_t credit_bits() const { return tmsim::bits_for(queue_depth + 1); }
  /// Width of a round-robin arbiter pointer (indexes the 20 queues).
  std::size_t rr_bits() const { return tmsim::bits_for(num_queues()); }

  void validate() const {
    TMSIM_CHECK_MSG(num_vcs >= 1 && num_vcs <= kMaxVcs,
                    "num_vcs must be 1..4");
    TMSIM_CHECK_MSG(queue_depth >= 1 && queue_depth <= kMaxQueueDepth,
                    "queue_depth must be 1..15");
  }

  friend bool operator==(const RouterConfig&, const RouterConfig&) = default;
};

/// Whole-network parameters.
struct NetworkConfig {
  std::size_t width = 6;   ///< routers in x
  std::size_t height = 6;  ///< routers in y
  Topology topology = Topology::kTorus;
  RouterConfig router;

  std::size_t num_routers() const { return width * height; }

  void validate() const {
    router.validate();
    TMSIM_CHECK_MSG(width >= 1 && width <= 16, "width must be 1..16");
    TMSIM_CHECK_MSG(height >= 1 && height <= 16, "height must be 1..16");
    TMSIM_CHECK_MSG(num_routers() >= 2 && num_routers() <= 256,
                    "network must have 2..256 routers (paper's range)");
  }

  /// Structural equality — what "same topology" means for the farm's
  /// engine cache and for TrafficHarness::rebind validation.
  friend bool operator==(const NetworkConfig&, const NetworkConfig&) = default;
};

}  // namespace tmsim::noc

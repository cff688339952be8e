// Network-level simulation interface and the golden reference simulator.
//
// NocSimulation is the facade every engine implements:
//   - the sequential time-multiplexed simulator (core/seq_noc.h) — the
//     paper's method,
//   - the coarse SystemC-substitute model (sysc/),
//   - the signal-level structural model (rtlsim/) — the VHDL stand-in,
//   - DirectNocSimulation below — a deliberately simple two-phase
//     (all-G-then-all-F) evaluator used as the golden model in tests.
//
// The external surface of the network is the per-router local port: the
// processing element / stimuli interface drives the local input link and
// observes the local output link plus the credits the router returns for
// its local input queues. Everything else is internal wiring.
//
// Local-port NI convention: the network interface consumes delivered flits
// unconditionally (the FPGA's output cyclic buffers always accept, §5.2)
// and returns the credit combinationally, so the router's local output
// credit counters stay topped up. Injection is governed by the per-VC
// credit counters the NI keeps for the router's local *input* queues.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "common/types.h"
#include "noc/config.h"
#include "noc/link.h"
#include "noc/router_logic.h"
#include "noc/router_state.h"
#include "noc/topology.h"

namespace tmsim::noc {

/// Where a router's input port gets its forward signal from.
struct UpstreamPort {
  bool connected = false;   ///< false on mesh boundaries (tied to idle)
  std::size_t router = 0;   ///< driving router index
  Port port = Port::kLocal; ///< driving router's *output* port
};

/// Driver of router `r`'s input port `p` (p != kLocal): the neighbour whose
/// output port faces us, or unconnected on a mesh boundary.
UpstreamPort upstream_of(const NetworkConfig& net, std::size_t r, Port p);

/// Abstract cycle-accurate NoC simulation (one engine instance per run).
class NocSimulation {
 public:
  virtual ~NocSimulation() = default;

  virtual const NetworkConfig& config() const = 0;

  /// Drives router `r`'s local input link for the next step(). Inputs
  /// reset to idle after every step.
  virtual void set_local_input(std::size_t r, const LinkForward& f) = 0;

  /// Advances one system cycle.
  virtual void step() = 0;

  /// Skips up to `max` cycles that provably repeat the last step() —
  /// no input driven since, and a simulation that knows its state,
  /// links and outputs are a fixed point — and returns how many it
  /// skipped (each counts as one step()). The default skips nothing;
  /// the gated engines override it (core/noc_block.h).
  virtual std::uint64_t advance_idle(std::uint64_t max) {
    (void)max;
    return 0;
  }

  /// Flit delivered on router `r`'s local output during the last step().
  virtual LinkForward local_output(std::size_t r) const = 0;

  /// Credits router `r` returned for its local input queues during the
  /// last step() (the NI adds these back to its injection credit pool).
  virtual CreditWires local_input_credits(std::size_t r) const = 0;

  /// Bit-exact serialized register state of router `r` (for cross-engine
  /// equivalence checks).
  virtual BitVector router_state_word(std::size_t r) const = 0;

  /// System cycles stepped so far.
  virtual SystemCycle cycle() const = 0;
};

/// Validates the credit flow-control invariant on *committed* state: for
/// every connected output VC, credits + downstream queue occupancy ==
/// queue_depth, and every local-port credit counter is full (the NI echo
/// returns credits in-cycle). Transient evaluations inside the dynamic
/// schedule may violate this (and are discarded, §4.2); committed states
/// never may. Throws with a precise location on violation.
void check_credit_invariant(const NocSimulation& sim);

/// Golden reference: computes G for every router, then F for every router,
/// with plain struct state. Trivially correct by construction (no
/// scheduling machinery), used to validate the real engines.
class DirectNocSimulation : public NocSimulation {
 public:
  explicit DirectNocSimulation(const NetworkConfig& net);

  const NetworkConfig& config() const override { return net_; }
  void set_local_input(std::size_t r, const LinkForward& f) override;
  void step() override;
  LinkForward local_output(std::size_t r) const override;
  CreditWires local_input_credits(std::size_t r) const override;
  BitVector router_state_word(std::size_t r) const override;
  SystemCycle cycle() const override { return cycle_; }

  /// Direct state access for white-box tests.
  const RouterState& state(std::size_t r) const { return states_.at(r); }

 private:
  NetworkConfig net_;
  RouterStateCodec codec_;
  std::vector<RouterState> states_;
  std::vector<RouterEnv> envs_;
  std::vector<UpstreamPort> upstream_;  // [router * kPorts + port]
  std::vector<LinkForward> local_in_;
  std::vector<LinkForward> local_out_;
  std::vector<CreditWires> local_credits_;
  // Per-step scratch, reused to keep the golden reference allocation-free
  // in steady state.
  std::vector<RouterOutputs> outs_scratch_;
  std::vector<Grants> grants_scratch_;
  std::vector<RouterState> next_scratch_;
  SystemCycle cycle_ = 0;
};

}  // namespace tmsim::noc

// Router shapes and reachable router states shared by the noc tests: the
// (VCs, depth) shapes the per-shape tests sweep (every VC count, depths
// spanning each pointer and credit width), and committed states of a small
// mesh under traffic on every VC.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/network.h"
#include "traffic/harness.h"

namespace tmsim::noc::test {

inline constexpr std::size_t kShapeVcs[] = {1, 2, 3, 4};
inline constexpr std::size_t kShapeDepths[] = {1, 2, 3, 4, 5, 8, 15};

inline RouterConfig shape(std::size_t vcs, std::size_t depth) {
  RouterConfig cfg;
  cfg.num_vcs = vcs;
  cfg.queue_depth = depth;
  return cfg;
}

/// The 3x3 mesh traffic_states runs, with routers of shape `cfg`.
inline NetworkConfig mesh3x3(const RouterConfig& cfg) {
  NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = Topology::kMesh;
  net.router = cfg;
  return net;
}

/// Committed router states of mesh3x3(cfg) under uniform best-effort
/// traffic on every VC, sampled every few cycles, in router order within
/// each sample (state i belongs to router i % 9).
inline std::vector<RouterState> traffic_states(const RouterConfig& cfg,
                                               std::uint64_t seed) {
  const NetworkConfig net = mesh3x3(cfg);
  DirectNocSimulation sim(net);
  tmsim::traffic::TrafficHarness h(sim, {.seed = seed});
  std::vector<unsigned> vcs;
  for (unsigned v = 0; v < cfg.num_vcs; ++v) {
    vcs.push_back(v);
  }
  h.set_be_load(0.45, vcs);
  std::vector<RouterState> out;
  for (int round = 0; round < 12; ++round) {
    h.run(7);
    for (std::size_t r = 0; r < net.num_routers(); ++r) {
      out.push_back(sim.state(r));
    }
  }
  return out;
}

}  // namespace tmsim::noc::test

// Cross-engine bit-exactness (§1/§8: "without compromising the cycle and
// bit level accuracy"): the sequential time-multiplexed simulator must
// match the golden two-phase reference on every register bit and every
// link value, every cycle, across sizes, topologies, queue depths,
// schedulers and traffic loads.
#include <gtest/gtest.h>

#include <memory>

#include "core/noc_block.h"
#include "noc/lockstep.h"
#include "traffic/harness.h"
#include "traffic/workloads.h"

namespace tmsim {
namespace {

using core::EngineOptions;
using core::SchedulerKind;
using core::SeqNocSimulation;
using noc::DirectNocSimulation;
using noc::LockstepNocSimulation;
using noc::NetworkConfig;
using noc::Topology;

struct Scenario {
  std::size_t width;
  std::size_t height;
  Topology topology;
  std::size_t queue_depth;
  double be_load;
  std::uint64_t seed;
  std::size_t cycles;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return std::to_string(s.width) + "x" + std::to_string(s.height) +
         (s.topology == Topology::kTorus ? "torus" : "mesh") + "_d" +
         std::to_string(s.queue_depth) + "_seed" + std::to_string(s.seed);
}

class SeqEquivalence : public ::testing::TestWithParam<Scenario> {};

NetworkConfig make_net(const Scenario& s) {
  NetworkConfig net;
  net.width = s.width;
  net.height = s.height;
  net.topology = s.topology;
  net.router.queue_depth = s.queue_depth;
  return net;
}

TEST_P(SeqEquivalence, DynamicScheduleMatchesGoldenReference) {
  const Scenario& sc = GetParam();
  const NetworkConfig net = make_net(sc);
  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::make_unique<DirectNocSimulation>(net));
  sims.push_back(std::make_unique<SeqNocSimulation>(net));
  sims.push_back(std::make_unique<SeqNocSimulation>(
      net, EngineOptions{.scheduler = SchedulerKind::kCompiled}));
  LockstepNocSimulation lockstep(std::move(sims));

  traffic::TrafficHarness::Options opts;
  opts.seed = sc.seed;
  opts.verify_payload = true;
  traffic::TrafficHarness h(lockstep, opts);
  h.set_be_load(sc.be_load, {0, 1, 2, 3});
  for (std::size_t chunk = 0; chunk < sc.cycles; chunk += 100) {
    h.run(100);  // lockstep throws on any divergence
    noc::check_credit_invariant(lockstep);
  }
  h.set_be_load(0.0);
  h.run(200);  // drain
  noc::check_credit_invariant(lockstep);
  EXPECT_GT(h.flits_delivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Networks, SeqEquivalence,
    ::testing::Values(
        Scenario{1, 2, Topology::kTorus, 4, 0.20, 1, 400},   // paper's min
        Scenario{2, 2, Topology::kTorus, 4, 0.15, 2, 400},
        Scenario{3, 3, Topology::kTorus, 4, 0.10, 3, 400},
        Scenario{3, 3, Topology::kMesh, 4, 0.10, 4, 400},
        Scenario{4, 3, Topology::kTorus, 2, 0.10, 5, 400},   // Fig.1 depth
        Scenario{4, 3, Topology::kMesh, 2, 0.10, 6, 400},
        Scenario{5, 4, Topology::kTorus, 1, 0.05, 7, 300},   // minimal depth
        Scenario{6, 6, Topology::kTorus, 4, 0.08, 8, 300},   // paper's 6×6
        Scenario{6, 6, Topology::kMesh, 3, 0.30, 9, 300},    // heavy load
        Scenario{8, 2, Topology::kTorus, 4, 0.12, 10, 300}), // asymmetric
    scenario_name);

TEST(SeqEquivalenceGt, MixedGtBeTrafficStaysBitExact) {
  NetworkConfig net;
  net.width = 6;
  net.height = 6;
  net.topology = Topology::kTorus;
  net.router.queue_depth = 2;
  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::make_unique<DirectNocSimulation>(net));
  sims.push_back(std::make_unique<SeqNocSimulation>(net));
  LockstepNocSimulation lockstep(std::move(sims));
  traffic::TrafficHarness::Options opts;
  opts.seed = 42;
  opts.verify_payload = true;
  traffic::TrafficHarness h(lockstep, opts);
  for (const auto& s : traffic::fig1_gt_streams(net, 1300)) {
    h.add_gt_stream(s);
  }
  h.set_be_load(0.06);
  h.run(1500);
  EXPECT_GT(h.summarize(traffic::PacketClass::kGuaranteedThroughput).delivered,
            10u);
}

TEST(SeqDeltaCycles, MinimumIsOneDeltaPerRouterPerCycle) {
  // §6: "The minimum number of delta cycles per system cycle is equal to
  // the number of routers of the NoC."
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  SeqNocSimulation sim(net);
  sim.step();  // idle network
  EXPECT_EQ(sim.last_step_stats().delta_cycles, 16u);
  EXPECT_EQ(sim.last_step_stats().re_evaluations, 0u);
}

TEST(SeqDeltaCycles, ReEvaluationsScaleWithTraffic) {
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  SeqNocSimulation sim(net);
  traffic::TrafficHarness h(sim);
  h.set_be_load(0.2, {0, 1, 2, 3});
  h.run(300);
  const auto& eng = sim.engine();
  // More than the idle minimum, far less than two evaluations per block
  // (§6 reports 1.5–2× the input load as *extra* delta cycles).
  EXPECT_GT(eng.total_delta_cycles(), 300u * 16);
  EXPECT_LT(eng.total_delta_cycles(), 2u * 300 * 16);
}

}  // namespace
}  // namespace tmsim

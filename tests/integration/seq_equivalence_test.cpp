// Cross-engine bit-exactness (§1/§8: "without compromising the cycle and
// bit level accuracy"): the sequential time-multiplexed simulator must
// match the golden two-phase reference on every register bit and every
// link value, every cycle, across sizes, topologies, queue depths,
// schedulers and traffic loads.
//
// The randomized section runs every generated configuration through the
// round-robin reference, the gated compiled program and the struct-state
// DirectNocSimulation in lockstep. Every case derives its whole
// configuration from one index, printed as a replay tuple via
// SCOPED_TRACE on failure: rerun with
//   --gtest_filter='*Randomized*/<index>'
// to reproduce a failing case exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
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

// ---------------------------------------------------------------------------
// Randomized configurations. The suite names are historical: the 210
// configurations were generated for the differential of the deleted
// sharded engine, and they kept their names (and so their test ids).
// ---------------------------------------------------------------------------

struct RandomConfig {
  std::size_t width;
  std::size_t height;
  Topology topology;
  std::size_t queue_depth;
  double be_load;
  std::uint64_t traffic_seed;
  std::size_t cycles;

  std::string replay_tuple(std::uint64_t index) const {
    return "replay{index=" + std::to_string(index) + ", net=" +
           std::to_string(width) + "x" + std::to_string(height) +
           (topology == Topology::kTorus ? " torus" : " mesh") +
           ", queue_depth=" + std::to_string(queue_depth) +
           ", be_load=" + std::to_string(be_load) +
           ", traffic_seed=" + std::to_string(traffic_seed) +
           ", cycles=" + std::to_string(cycles) + "}";
  }
};

/// The whole configuration space is a pure function of the case index —
/// that is what makes a failure replayable from the tuple alone.
RandomConfig derive_config(std::uint64_t index) {
  SplitMix64 rng(0x5eed5eed ^ (index * 0x9e3779b97f4a7c15ull));
  RandomConfig c;
  static constexpr struct {
    std::size_t w, h;
  } kShapes[] = {{1, 2}, {2, 2}, {2, 3}, {3, 3}, {4, 2}, {4, 3},
                 {4, 4}, {5, 3}, {5, 4}, {3, 5}, {6, 2}, {8, 2}};
  const auto& shape = kShapes[rng.next_below(std::size(kShapes))];
  c.width = shape.w;
  c.height = shape.h;
  c.topology = rng.next_below(2) ? Topology::kTorus : Topology::kMesh;
  c.queue_depth = 1 + rng.next_below(4);
  c.be_load = 0.05 + 0.05 * static_cast<double>(rng.next_below(5));
  c.traffic_seed = rng.next() | 1;
  c.cycles = 120 + 40 * rng.next_below(3);
  return c;
}

NetworkConfig make_net(const RandomConfig& c) {
  NetworkConfig net;
  net.width = c.width;
  net.height = c.height;
  net.topology = c.topology;
  net.router.queue_depth = c.queue_depth;
  return net;
}

class ShardedRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedRandomized, BitIdenticalToSequential) {
  const std::uint64_t index = GetParam();
  const RandomConfig cfg = derive_config(index);
  SCOPED_TRACE(cfg.replay_tuple(index));
  const NetworkConfig net = make_net(cfg);

  auto rr = std::make_unique<SeqNocSimulation>(
      net, EngineOptions{.scheduler = SchedulerKind::kRoundRobin});
  auto cp = std::make_unique<SeqNocSimulation>(
      net, EngineOptions{.scheduler = SchedulerKind::kCompiled});
  const SeqNocSimulation* rr_ptr = rr.get();
  const SeqNocSimulation* cp_ptr = cp.get();

  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::move(rr));
  sims.push_back(std::move(cp));
  sims.push_back(std::make_unique<DirectNocSimulation>(net));
  LockstepNocSimulation lockstep(std::move(sims));

  traffic::TrafficHarness::Options opts;
  opts.seed = cfg.traffic_seed;
  opts.verify_payload = true;
  traffic::TrafficHarness h(lockstep, opts);
  h.set_be_load(cfg.be_load, {0, 1, 2, 3});
  h.run(cfg.cycles);  // lockstep throws on any per-cycle divergence
  h.set_be_load(0.0);
  h.run(60);  // drain
  noc::check_credit_invariant(lockstep);

  // Final link-state sweep: every link of the model, not just the
  // externally visible ones the lockstep compares.
  const core::Engine& rr_eng = rr_ptr->engine();
  const core::Engine& cp_eng = cp_ptr->engine();
  for (core::LinkId l = 0; l < rr_eng.model().num_links(); ++l) {
    ASSERT_EQ(rr_eng.link_value(l), cp_eng.link_value(l))
        << "link " << l << " (" << rr_eng.model().link(l).name << ")";
  }
}

// 210 randomized configurations, each a distinct point in the space.
INSTANTIATE_TEST_SUITE_P(Configs, ShardedRandomized,
                         ::testing::Range<std::uint64_t>(0, 210));

// Monitor statistics must be bitwise identical too: run the same
// workload through one *independent* harness per simulation (so the
// compiled engine's harness may jump idle stretches, which a lockstep
// run never does) and compare everything the harness measures. A subset
// of the index space keeps the suite's runtime bounded.
class ShardedStats : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedStats, MonitorStatisticsMatchSequential) {
  const std::uint64_t index = GetParam();
  const RandomConfig cfg = derive_config(index);
  SCOPED_TRACE(cfg.replay_tuple(index));
  const NetworkConfig net = make_net(cfg);

  struct Result {
    std::size_t injected, delivered;
    traffic::LatencySummary be;
  };
  auto run = [&](noc::NocSimulation& sim) {
    traffic::TrafficHarness::Options opts;
    opts.seed = cfg.traffic_seed;
    opts.verify_payload = true;
    traffic::TrafficHarness h(sim, opts);
    h.set_be_load(cfg.be_load, {0, 1, 2, 3});
    h.run(cfg.cycles);
    h.set_be_load(0.0);
    h.run(60);
    return Result{h.flits_injected(), h.flits_delivered(),
                  h.summarize(traffic::PacketClass::kBestEffort)};
  };

  SeqNocSimulation rr(net,
                      EngineOptions{.scheduler = SchedulerKind::kRoundRobin});
  SeqNocSimulation cp(net,
                      EngineOptions{.scheduler = SchedulerKind::kCompiled});
  DirectNocSimulation direct(net);
  const Result a = run(rr);
  for (noc::NocSimulation* sim :
       std::initializer_list<noc::NocSimulation*>{&cp, &direct}) {
    const Result b = run(*sim);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.be.delivered, b.be.delivered);
    EXPECT_EQ(a.be.network.mean(), b.be.network.mean());
    EXPECT_EQ(a.be.network.min(), b.be.network.min());
    EXPECT_EQ(a.be.network.max(), b.be.network.max());
    EXPECT_EQ(a.be.access.mean(), b.be.access.mean());
  }
  EXPECT_EQ(core::engine_state_digest(cp.engine()),
            core::engine_state_digest(rr.engine()));
}

INSTANTIATE_TEST_SUITE_P(Configs, ShardedStats,
                         ::testing::Range<std::uint64_t>(0, 210, 14));

TEST(ShardedReplay, SameConfigTwiceIsDeterministic) {
  // The replay tuple is only useful if a rerun reproduces the run bit
  // for bit.
  const RandomConfig cfg = derive_config(7);
  const NetworkConfig net = make_net(cfg);
  auto digest = [&] {
    SeqNocSimulation sim(net);
    traffic::TrafficHarness::Options opts;
    opts.seed = cfg.traffic_seed;
    traffic::TrafficHarness h(sim, opts);
    h.set_be_load(cfg.be_load, {0, 1, 2, 3});
    h.run(cfg.cycles);
    std::vector<BitVector> words;
    for (std::size_t r = 0; r < net.num_routers(); ++r) {
      words.push_back(sim.router_state_word(r));
    }
    return std::make_pair(words, sim.engine().total_delta_cycles());
  };
  const auto a = digest();
  const auto b = digest();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace tmsim

// Differential proof of the worklist scheduler (DESIGN.md §12): for any
// topology, workload, seed, engine (sequential or sharded) and shard
// count, SchedulerKind::kWorklist must produce results bit-identical to
// the reference round-robin sweep — every local output, every credit
// wire, every register bit, every cycle (LockstepNocSimulation throws
// on the first divergence), every link value at the end.
//
// Also here: the quiescence fast-path accounting, the degenerate-
// topology rejections (combinational self-loops, external links with no
// readers), the ConvergenceReport parity between engines, a saturated-
// worklist stress (runs under the tsan preset via the `sched` label),
// and the engine.sched.* metrics rows.
//
// Every randomized case derives its whole configuration from one index,
// printed as a replay tuple via SCOPED_TRACE on failure: rerun with
//   --gtest_filter='*Randomized*/<index>'
// to reproduce a failing case exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/example_blocks.h"
#include "core/noc_block.h"
#include "core/sequential_simulator.h"
#include "noc/lockstep.h"
#include "obs/engine_sinks.h"
#include "traffic/harness.h"

namespace tmsim {
namespace {

using core::EngineOptions;
using core::PartitionPolicy;
using core::SchedulePolicy;
using core::SchedulerKind;
using core::SeqNocSimulation;
using noc::NetworkConfig;
using noc::Topology;

struct RandomConfig {
  std::size_t width;
  std::size_t height;
  Topology topology;
  std::size_t queue_depth;
  double be_load;
  std::uint64_t traffic_seed;
  std::size_t cycles;
  std::size_t num_shards;
  PartitionPolicy partition;

  std::string replay_tuple(std::uint64_t index) const {
    return "replay{index=" + std::to_string(index) + ", net=" +
           std::to_string(width) + "x" + std::to_string(height) +
           (topology == Topology::kTorus ? " torus" : " mesh") +
           ", queue_depth=" + std::to_string(queue_depth) +
           ", be_load=" + std::to_string(be_load) +
           ", traffic_seed=" + std::to_string(traffic_seed) +
           ", cycles=" + std::to_string(cycles) +
           ", num_shards=" + std::to_string(num_shards) + ", partition=" +
           core::partition_policy_name(partition) + "}";
  }
};

/// The whole configuration space is a pure function of the case index.
/// Loads span idle-ish (where the fast path skips nearly everything) to
/// saturated (where the worklist is constantly full) — the scheduler
/// must be invisible in results across the entire range.
RandomConfig derive_config(std::uint64_t index) {
  SplitMix64 rng(0x5c4ed5eed ^ (index * 0x9e3779b97f4a7c15ull));
  RandomConfig c;
  static constexpr struct {
    std::size_t w, h;
  } kShapes[] = {{1, 2}, {2, 2}, {2, 3}, {3, 3}, {4, 2},
                 {4, 3}, {4, 4}, {5, 3}, {3, 5}, {6, 2}};
  const auto& shape = kShapes[rng.next_below(std::size(kShapes))];
  c.width = shape.w;
  c.height = shape.h;
  c.topology = rng.next_below(2) ? Topology::kTorus : Topology::kMesh;
  c.queue_depth = 1 + rng.next_below(4);
  static constexpr double kLoads[] = {0.0, 0.02, 0.05, 0.1, 0.25, 0.5};
  c.be_load = kLoads[rng.next_below(std::size(kLoads))];
  c.traffic_seed = rng.next() | 1;
  c.cycles = 100 + 40 * rng.next_below(3);
  const std::size_t routers = c.width * c.height;
  c.num_shards = 2 + rng.next_below(5);  // 2..6, clamped by the engine
  if (c.num_shards > routers) {
    c.num_shards = routers;
  }
  static constexpr PartitionPolicy kPolicies[] = {
      PartitionPolicy::kRoundRobin, PartitionPolicy::kContiguous,
      PartitionPolicy::kMinCutGreedy};
  c.partition = kPolicies[rng.next_below(3)];
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

EngineOptions make_opts(const RandomConfig& c, std::size_t shards,
                        SchedulerKind sched) {
  EngineOptions o;
  o.policy = SchedulePolicy::kDynamic;
  o.num_shards = shards;
  o.partition = c.partition;
  o.scheduler = sched;
  return o;
}

class SchedRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedRandomized, SchedulersBitIdenticalAcrossEngines) {
  const std::uint64_t index = GetParam();
  const RandomConfig cfg = derive_config(index);
  SCOPED_TRACE(cfg.replay_tuple(index));
  const NetworkConfig net = make_net(cfg);

  // {round_robin, worklist, compiled} × {sequential, sharded}, all in
  // lockstep: the round-robin sequential engine is the reference every
  // other combination must match cycle for cycle.
  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  std::vector<const SeqNocSimulation*> raw;
  for (const std::size_t shards : {std::size_t{1}, cfg.num_shards}) {
    for (const SchedulerKind sched :
         {SchedulerKind::kRoundRobin, SchedulerKind::kWorklist,
          SchedulerKind::kCompiled}) {
      auto sim = std::make_unique<SeqNocSimulation>(
          net, make_opts(cfg, shards, sched));
      raw.push_back(sim.get());
      sims.push_back(std::move(sim));
    }
  }
  noc::LockstepNocSimulation lockstep(std::move(sims));

  traffic::TrafficHarness::Options opts;
  opts.seed = cfg.traffic_seed;
  opts.verify_payload = true;
  traffic::TrafficHarness h(lockstep, opts);
  h.set_be_load(cfg.be_load, {0, 1, 2, 3});
  h.run(cfg.cycles);  // lockstep throws on any per-cycle divergence
  h.set_be_load(0.0);
  h.run(60);  // drain: the idle tail exercises the quiescence fast path
  noc::check_credit_invariant(lockstep);

  // Final link-state sweep: every link of the model, not just the
  // externally visible ones the lockstep compares.
  const core::Engine& ref = raw[0]->engine();
  for (std::size_t s = 1; s < raw.size(); ++s) {
    const core::Engine& eng = raw[s]->engine();
    ASSERT_EQ(ref.model().num_links(), eng.model().num_links());
    for (core::LinkId l = 0; l < ref.model().num_links(); ++l) {
      ASSERT_EQ(ref.link_value(l), eng.link_value(l))
          << "sim " << s << " link " << l << " ("
          << ref.model().link(l).name << ")";
    }
  }
}

// 120 randomized configurations, each a distinct point in the space.
INSTANTIATE_TEST_SUITE_P(Configs, SchedRandomized,
                         ::testing::Range<std::uint64_t>(0, 120));

TEST(SchedQuiescence, IdleNocIsSkippedEntirelyByBothEngines) {
  // A NoC with no traffic settles to a fixed point within a few warmup
  // cycles (idle routers stop rotating their arbiter pointers); from
  // then on the worklist scheduler must evaluate nothing at all while
  // the round-robin reference still pays one pass per cycle.
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = Topology::kMesh;
  const std::size_t n = net.num_routers();

  auto idle_stats = [&](std::size_t shards, SchedulerKind sched) {
    SeqNocSimulation sim(net, make_opts(derive_config(0), shards, sched));
    for (int i = 0; i < 6; ++i) {
      sim.step();  // warmup: reset transients settle
    }
    sim.step();
    return sim.last_step_stats();
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const core::StepStats rr =
        idle_stats(shards, SchedulerKind::kRoundRobin);
    EXPECT_EQ(rr.delta_cycles, n) << "shards=" << shards;
    EXPECT_EQ(rr.skipped_blocks, 0u) << "shards=" << shards;
    const core::StepStats wl = idle_stats(shards, SchedulerKind::kWorklist);
    EXPECT_EQ(wl.delta_cycles, 0u) << "shards=" << shards;
    EXPECT_EQ(wl.skipped_blocks, n) << "shards=" << shards;
    EXPECT_EQ(wl.worklist_high_water, 0u) << "shards=" << shards;
  }
}

TEST(SchedMetrics, WorklistCountersReachTheRegistry) {
  NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = Topology::kMesh;
  obs::MetricsRegistry registry;
  obs::EngineMetricsSink sink(registry);
  SeqNocSimulation sim(
      net, make_opts(derive_config(1), 1, SchedulerKind::kWorklist));
  sim.set_observer(&sink);
  for (int i = 0; i < 10; ++i) {
    sim.step();
  }
  EXPECT_GT(registry.counter("engine.sched.delta_evals").value(), 0u);
  EXPECT_GT(registry.counter("engine.sched.skipped_blocks").value(), 0u);
  // The first cycle queues all nine routers at once.
  EXPECT_GE(registry.gauge("engine.sched.worklist_high_water").value(), 9.0);
  EXPECT_EQ(registry.counter("engine.sched.delta_evals").value(),
            registry.counter("engine.delta_cycles").value());
}

// ---------------------------------------------------------------------------
// Degenerate-topology rejection (structured errors instead of a hang)
// ---------------------------------------------------------------------------

core::SystemModel self_loop_model() {
  core::SystemModel m;
  const core::BlockId a =
      m.add_block(std::make_shared<core::examples::NotBlock>(), "a");
  const core::LinkId aa =
      m.add_link("aa", 1, core::LinkKind::kCombinational);
  m.bind_output(a, 0, aa);
  m.bind_input(a, 0, aa);
  m.finalize();
  return m;
}

TEST(SchedDegenerate, CombinationalSelfLoopRejectedAtConstruction) {
  const core::SystemModel m = self_loop_model();
  // Round-robin keeps the legacy behaviour: constructs, then reports
  // the oscillation at step() time via the eval budget.
  core::SequentialSimulator rr(m, SchedulePolicy::kDynamic, 16);
  EXPECT_THROW(rr.step(), core::ConvergenceError);
  // The worklist scheduler refuses the topology up front, structurally.
  try {
    core::SequentialSimulator wl(m, SchedulePolicy::kDynamic, 16, 1,
                                 SchedulerKind::kWorklist);
    FAIL() << "worklist scheduler accepted a combinational self-loop";
  } catch (const ContextualError& e) {
    EXPECT_EQ(e.context_value("scheduler"), "worklist");
    EXPECT_EQ(e.context_value("name"), "aa");
  }
  core::EngineOptions cfg;
  cfg.num_shards = 1;
  cfg.scheduler = SchedulerKind::kWorklist;
  EXPECT_THROW(core::Engine(m, cfg), ContextualError);
}

TEST(SchedDegenerate, ExternalLinkWithNoReadersRejected) {
  core::SystemModel m;
  const core::BlockId a =
      m.add_block(std::make_shared<core::examples::CombAdderBlock>(8, 1), "a");
  const core::LinkId in = m.add_link("in", 8, core::LinkKind::kCombinational);
  const core::LinkId out =
      m.add_link("out", 8, core::LinkKind::kCombinational);
  // An external link nobody reads: an event source wired to nothing.
  m.add_link("dangle", 8, core::LinkKind::kCombinational);
  m.bind_input(a, 0, in);
  m.bind_output(a, 0, out);
  m.finalize();
  core::SequentialSimulator rr(m, SchedulePolicy::kDynamic);  // legacy: fine
  rr.step();
  try {
    core::SequentialSimulator wl(m, SchedulePolicy::kDynamic, 64, 1,
                                 SchedulerKind::kWorklist);
    FAIL() << "worklist scheduler accepted a reader-less external link";
  } catch (const ContextualError& e) {
    EXPECT_EQ(e.context_value("scheduler"), "worklist");
    EXPECT_EQ(e.context_value("name"), "dangle");
  }
  core::EngineOptions cfg;
  cfg.num_shards = 1;
  cfg.scheduler = SchedulerKind::kWorklist;
  EXPECT_THROW(core::Engine(m, cfg), ContextualError);
}

// ---------------------------------------------------------------------------
// ConvergenceReport parity (the sharded engine must diagnose like the
// sequential one, deterministically)
// ---------------------------------------------------------------------------

core::SystemModel not_ring(std::size_t n) {
  core::SystemModel m;
  auto inv = std::make_shared<core::examples::NotBlock>();
  std::vector<core::BlockId> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(m.add_block(inv, "not" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const core::LinkId l = m.add_link("l" + std::to_string(i), 1,
                                      core::LinkKind::kCombinational);
    m.bind_output(blocks[i], 0, l);
    m.bind_input(blocks[(i + 1) % n], 0, l);
  }
  m.finalize();
  return m;
}

core::ConvergenceReport trip(core::Engine& eng) {
  try {
    eng.step();
  } catch (const core::ConvergenceError& e) {
    return e.report();
  }
  ADD_FAILURE() << "engine settled an odd NOT ring";
  return core::ConvergenceReport{};
}

TEST(SchedConvergence, ReportParityBetweenEnginesAndSchedulers) {
  const core::SystemModel m = not_ring(5);

  core::SequentialSimulator seq_rr(m, SchedulePolicy::kDynamic, 16);
  core::SequentialSimulator seq_wl(m, SchedulePolicy::kDynamic, 16, 1,
                                   SchedulerKind::kWorklist);
  // Compiled: the whole ring condenses into one SCC whose scoped settle
  // trips the same per-SCC budget (sequential), or — split one inverter
  // per shard — a cut loop that ping-pongs to the superstep cap.
  core::SequentialSimulator seq_cp(m, SchedulePolicy::kDynamic, 16, 1,
                                   SchedulerKind::kCompiled);
  core::EngineOptions cfg;
  cfg.num_shards = 5;  // one inverter per shard: purely cross-shard loop
  cfg.max_evals_per_block = 16;
  cfg.scheduler = SchedulerKind::kWorklist;
  core::Engine sh_wl(m, cfg);
  core::EngineOptions cp_cfg = cfg;
  cp_cfg.scheduler = SchedulerKind::kCompiled;
  core::Engine sh_cp(m, cp_cfg);

  const core::ConvergenceReport a = trip(seq_rr);
  const core::ConvergenceReport b = trip(seq_wl);
  const core::ConvergenceReport c = trip(sh_wl);
  const core::ConvergenceReport d = trip(seq_cp);
  const core::ConvergenceReport e = trip(sh_cp);

  // Size/limit fields agree across all engine/scheduler combinations.
  for (const core::ConvergenceReport* r : {&a, &b, &c, &d, &e}) {
    EXPECT_EQ(r->num_blocks, m.num_blocks());
    EXPECT_EQ(r->limit, 16u * m.num_blocks());
    ASSERT_FALSE(r->oscillating_blocks.empty());
    ASSERT_FALSE(r->last_changed_links.empty());
    EXPECT_LE(r->last_changed_links.size(), 8u);
    for (const core::BlockId blk : r->oscillating_blocks) {
      EXPECT_LT(blk, m.num_blocks());
    }
    for (const core::LinkId l : r->last_changed_links) {
      EXPECT_LT(l, m.num_links());
    }
  }
  // The sharded report must cover the blocks the sequential engine
  // flags (the engines trip at different points of the loop, so the
  // sharded set covers rather than equals).
  for (const core::BlockId blk : a.oscillating_blocks) {
    EXPECT_TRUE(std::find(c.oscillating_blocks.begin(),
                          c.oscillating_blocks.end(),
                          blk) != c.oscillating_blocks.end())
        << "sequential flagged block " << blk
        << " but the sharded report missed it";
  }
  // No duplicates in the merged changed-link history.
  std::vector<core::LinkId> links = c.last_changed_links;
  std::sort(links.begin(), links.end());
  EXPECT_TRUE(std::adjacent_find(links.begin(), links.end()) == links.end());
}

TEST(SchedConvergence, MergedShardedReportIsDeterministic) {
  const core::SystemModel m = not_ring(5);
  auto report = [&] {
    core::EngineOptions cfg;
    cfg.num_shards = 3;
    cfg.max_evals_per_block = 16;
    cfg.scheduler = SchedulerKind::kWorklist;
    core::Engine sim(m, cfg);
    return trip(sim);
  };
  const core::ConvergenceReport a = report();
  const core::ConvergenceReport b = report();
  EXPECT_EQ(a.oscillating_blocks, b.oscillating_blocks);
  EXPECT_EQ(a.last_changed_links, b.last_changed_links);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.limit, b.limit);
}

// ---------------------------------------------------------------------------
// Saturated-worklist stress — high load keeps every shard's FIFO busy
// while results stay bit-identical. Runs under the tsan preset (the
// `sched` label is in its filter), making this the data-race check for
// the worklist fields on the shard structs.
// ---------------------------------------------------------------------------

TEST(SchedStress, SaturatedWorklistStaysBitIdenticalUnderLoad) {
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = Topology::kTorus;
  const RandomConfig cfg = derive_config(3);

  auto seq = std::make_unique<SeqNocSimulation>(
      net, make_opts(cfg, 1, SchedulerKind::kWorklist));
  auto sharded = std::make_unique<SeqNocSimulation>(
      net, make_opts(cfg, 4, SchedulerKind::kWorklist));
  const SeqNocSimulation* sharded_ptr = sharded.get();

  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::move(seq));
  sims.push_back(std::move(sharded));
  noc::LockstepNocSimulation lockstep(std::move(sims));

  traffic::TrafficHarness::Options opts;
  opts.seed = 0xfeedu;
  opts.verify_payload = true;
  traffic::TrafficHarness h(lockstep, opts);
  h.set_be_load(0.9, {0, 1, 2, 3});  // saturating injection
  h.run(250);
  h.set_be_load(0.0);
  h.run(80);
  noc::check_credit_invariant(lockstep);

  // Under saturation the FIFO really was exercised: the high-water mark
  // is a per-cycle stat, so probe it mid-load on a fresh run.
  SeqNocSimulation probe(net, make_opts(cfg, 4, SchedulerKind::kWorklist));
  traffic::TrafficHarness hp(probe, opts);
  hp.set_be_load(0.9, {0, 1, 2, 3});
  hp.run(50);
  EXPECT_GT(probe.last_step_stats().worklist_high_water, 0u);
  (void)sharded_ptr;
}

}  // namespace
}  // namespace tmsim

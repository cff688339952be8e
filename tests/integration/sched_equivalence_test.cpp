// Differential proof of the worklist scheduler (DESIGN.md §12): for any
// topology, workload and seed, the one-shard worklist and compiled
// schedulers and the sharded round-robin engine must produce results
// bit-identical to the one-shard round-robin sweep — every local output,
// every credit wire, every register bit, every cycle
// (LockstepNocSimulation throws on the first divergence), every link
// value at the end.
//
// Also here: the quiescence fast-path accounting, the degenerate-
// topology rejections (combinational self-loops, external links with no
// readers), the ConvergenceReport parity between engines, a saturated-
// worklist stress (runs under the tsan preset via the `sched` label),
// the engine.sched.* metrics rows, and the idle-cycle skip differentials
// (GT-only traffic, the harness jumping with a settled gated engine).
//
// Every randomized case derives its whole configuration from one index,
// printed as a replay tuple via SCOPED_TRACE on failure: rerun with
//   --gtest_filter='*Randomized*/<index>'
// to reproduce a failing case exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/example_blocks.h"
#include "core/noc_block.h"
#include "core/sequential_simulator.h"
#include "noc/lockstep.h"
#include "obs/engine_sinks.h"
#include "obs/vcd.h"
#include "traffic/harness.h"
#include "traffic/workloads.h"

namespace tmsim {
namespace {

using core::EngineOptions;
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

  std::string replay_tuple(std::uint64_t index) const {
    return "replay{index=" + std::to_string(index) + ", net=" +
           std::to_string(width) + "x" + std::to_string(height) +
           (topology == Topology::kTorus ? " torus" : " mesh") +
           ", queue_depth=" + std::to_string(queue_depth) +
           ", be_load=" + std::to_string(be_load) +
           ", traffic_seed=" + std::to_string(traffic_seed) +
           ", cycles=" + std::to_string(cycles) +
           ", num_shards=" + std::to_string(num_shards) + "}";
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

EngineOptions make_opts(std::size_t shards, SchedulerKind sched) {
  EngineOptions o;
  o.num_shards = shards;
  o.scheduler = sched;
  return o;
}

class SchedRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedRandomized, SchedulersBitIdenticalAcrossEngines) {
  const std::uint64_t index = GetParam();
  const RandomConfig cfg = derive_config(index);
  SCOPED_TRACE(cfg.replay_tuple(index));
  const NetworkConfig net = make_net(cfg);

  // {round_robin, worklist, compiled} on one shard plus the sharded
  // round-robin engine, all in lockstep: the round-robin sequential
  // engine is the reference every other lane must match cycle for cycle.
  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  std::vector<const SeqNocSimulation*> raw;
  for (const EngineOptions& o :
       {make_opts(1, SchedulerKind::kRoundRobin),
        make_opts(1, SchedulerKind::kWorklist),
        make_opts(1, SchedulerKind::kCompiled),
        make_opts(cfg.num_shards, SchedulerKind::kRoundRobin)}) {
    auto sim = std::make_unique<SeqNocSimulation>(net, o);
    raw.push_back(sim.get());
    sims.push_back(std::move(sim));
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
  // the round-robin reference, one shard or four, still pays one pass
  // per cycle.
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = Topology::kMesh;
  const std::size_t n = net.num_routers();

  auto idle_stats = [&](std::size_t shards, SchedulerKind sched) {
    SeqNocSimulation sim(net, make_opts(shards, sched));
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
  }
  const core::StepStats wl = idle_stats(1, SchedulerKind::kWorklist);
  EXPECT_EQ(wl.delta_cycles, 0u);
  EXPECT_EQ(wl.skipped_blocks, n);
  EXPECT_EQ(wl.worklist_high_water, 0u);
  // The gated op program: every kEval and kDrive is a flag test.
  const core::StepStats cp = idle_stats(1, SchedulerKind::kCompiled);
  EXPECT_EQ(cp.delta_cycles, 0u);
  EXPECT_EQ(cp.skipped_blocks, n);
}

TEST(SchedQuiescence, GatedProgramSkipsIdleAndSparseNocsBitIdentically) {
  // The activity gate on the randomized configs' shapes at idle and
  // sparse load: the compiled program must skip blocks, and its
  // committed state must equal the round-robin reference's after every
  // cycle, not just at the end.
  std::size_t configs = 0;
  for (std::uint64_t index = 0; index < 120 && configs < 12; ++index) {
    const RandomConfig cfg = derive_config(index);
    if (cfg.be_load > 0.05) {
      continue;
    }
    ++configs;
    SCOPED_TRACE(cfg.replay_tuple(index));
    const NetworkConfig net = make_net(cfg);
    SeqNocSimulation rr(net, make_opts(1, SchedulerKind::kRoundRobin));
    SeqNocSimulation cp(net, make_opts(1, SchedulerKind::kCompiled));
    traffic::TrafficHarness::Options opts;
    opts.seed = cfg.traffic_seed;
    traffic::TrafficHarness hr(rr, opts);
    traffic::TrafficHarness hc(cp, opts);
    hr.set_be_load(cfg.be_load, {0, 1, 2, 3});
    hc.set_be_load(cfg.be_load, {0, 1, 2, 3});
    std::uint64_t skipped = 0;
    for (std::size_t c = 0; c < cfg.cycles; ++c) {
      hr.run(1);
      hc.run(1);
      ASSERT_EQ(core::engine_state_digest(cp.engine()),
                core::engine_state_digest(rr.engine()))
          << "cycle " << c;
      skipped += cp.last_step_stats().skipped_blocks;
    }
    EXPECT_EQ(hc.flits_delivered(), hr.flits_delivered());
    EXPECT_GT(skipped, 0u);
  }
  EXPECT_EQ(configs, 12u);
}

TEST(SchedMetrics, WorklistCountersReachTheRegistry) {
  NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = Topology::kMesh;
  obs::MetricsRegistry registry;
  obs::EngineMetricsSink sink(registry);
  SeqNocSimulation sim(net, make_opts(1, SchedulerKind::kWorklist));
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
  // trips the same per-SCC budget.
  core::SequentialSimulator seq_cp(m, SchedulePolicy::kDynamic, 16, 1,
                                   SchedulerKind::kCompiled);
  core::EngineOptions cfg;
  cfg.num_shards = 5;  // one inverter per shard: purely cross-shard loop
  cfg.max_evals_per_block = 16;
  core::Engine sh_rr(m, cfg);

  const core::ConvergenceReport a = trip(seq_rr);
  const core::ConvergenceReport b = trip(seq_wl);
  const core::ConvergenceReport c = trip(sh_rr);
  const core::ConvergenceReport d = trip(seq_cp);

  // Size/limit fields agree across all engine/scheduler combinations.
  for (const core::ConvergenceReport* r : {&a, &b, &c, &d}) {
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
// Saturated-worklist stress — high load keeps the FIFO busy while results
// stay bit-identical to the sharded round-robin engine in lockstep. Runs
// under the tsan preset (the `sched` label is in its filter).
// ---------------------------------------------------------------------------

TEST(SchedStress, SaturatedWorklistStaysBitIdenticalUnderLoad) {
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = Topology::kTorus;

  auto seq = std::make_unique<SeqNocSimulation>(
      net, make_opts(1, SchedulerKind::kWorklist));
  auto sharded = std::make_unique<SeqNocSimulation>(
      net, make_opts(4, SchedulerKind::kRoundRobin));

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
  SeqNocSimulation probe(net, make_opts(1, SchedulerKind::kWorklist));
  traffic::TrafficHarness hp(probe, opts);
  hp.set_be_load(0.9, {0, 1, 2, 3});
  hp.run(50);
  EXPECT_GT(probe.last_step_stats().worklist_high_water, 0u);
}

// ---------------------------------------------------------------------------
// Idle-cycle skip (DESIGN.md §17): on GT-only traffic the harness jumps
// to its next submission and a settled gated engine skips the stretch.
// Every observable must equal the round-robin reference, which never
// skips, and a run must not depend on how it is cut into run() calls.
// ---------------------------------------------------------------------------

struct GtOnlyConfig {
  std::size_t size;
  Topology topology;
  SystemCycle period;
  std::size_t cycles;

  std::string name() const {
    return std::to_string(size) + "x" + std::to_string(size) +
           (topology == Topology::kTorus ? " torus" : " mesh") +
           " period " + std::to_string(period);
  }
  NetworkConfig net() const {
    NetworkConfig n;
    n.width = size;
    n.height = size;
    n.topology = topology;
    return n;
  }
};

std::vector<GtOnlyConfig> gt_only_configs() {
  std::vector<GtOnlyConfig> out;
  for (const std::size_t size : {std::size_t{4}, std::size_t{6}}) {
    for (const Topology t : {Topology::kMesh, Topology::kTorus}) {
      // Periods long enough that every stream drains before the next
      // submission (the Fig. 1 streams' phases span ~600 cycles on 6x6).
      for (const SystemCycle period : {SystemCycle{1200}, SystemCycle{1800},
                                       SystemCycle{2400}}) {
        out.push_back({size, t, period, 2 * period + 500});
      }
    }
  }
  return out;
}

void add_fig1_streams(traffic::TrafficHarness& h, const NetworkConfig& net,
                      SystemCycle period) {
  for (const traffic::GtStream& s : traffic::fig1_gt_streams(net, period)) {
    h.add_gt_stream(s);
  }
}

void expect_same_records(const traffic::TrafficHarness& a,
                         const traffic::TrafficHarness& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const traffic::PacketRecord& x = a.records()[i];
    const traffic::PacketRecord& y = b.records()[i];
    EXPECT_TRUE(x.cls == y.cls && x.src == y.src && x.dst == y.dst &&
                x.vc == y.vc && x.seq == y.seq && x.fill == y.fill &&
                x.flits == y.flits && x.created == y.created &&
                x.injected_head == y.injected_head &&
                x.delivered_tail == y.delivered_tail &&
                x.injected == y.injected && x.delivered == y.delivered)
        << "record " << i;
  }
  EXPECT_EQ(a.flits_injected(), b.flits_injected());
  EXPECT_EQ(a.flits_delivered(), b.flits_delivered());
  EXPECT_EQ(a.current_cycle(), b.current_cycle());
}

TEST(IdleSkip, GtOnlyRunsMatchRoundRobinAtEveryRunBoundary) {
  for (const GtOnlyConfig& cfg : gt_only_configs()) {
    SCOPED_TRACE(cfg.name());
    const NetworkConfig net = cfg.net();
    SeqNocSimulation rr(net, make_opts(1, SchedulerKind::kRoundRobin));
    SeqNocSimulation wl(net, make_opts(1, SchedulerKind::kWorklist));
    SeqNocSimulation cp(net, make_opts(1, SchedulerKind::kCompiled));
    traffic::TrafficHarness::Options opts;
    opts.seed = 0x1d1e;
    opts.verify_payload = true;
    traffic::TrafficHarness hr(rr, opts), hw(wl, opts), hc(cp, opts);
    for (traffic::TrafficHarness* h : {&hr, &hw, &hc}) {
      add_fig1_streams(*h, net, cfg.period);
    }
    SplitMix64 rng(cfg.period * 31 + cfg.size);
    std::size_t done = 0;
    while (done < cfg.cycles) {
      const std::size_t q =
          std::min<std::size_t>(1 + rng.next_below(300), cfg.cycles - done);
      for (traffic::TrafficHarness* h : {&hr, &hw, &hc}) {
        h->run(q);
      }
      done += q;
      ASSERT_EQ(wl.cycle(), rr.cycle());
      ASSERT_EQ(cp.cycle(), rr.cycle());
      const std::uint64_t ref = core::engine_state_digest(rr.engine());
      ASSERT_EQ(core::engine_state_digest(wl.engine()), ref) << "cycle " << done;
      ASSERT_EQ(core::engine_state_digest(cp.engine()), ref) << "cycle " << done;
      ASSERT_EQ(hw.flits_delivered(), hr.flits_delivered());
      ASSERT_EQ(hc.flits_delivered(), hr.flits_delivered());
      for (const SeqNocSimulation* s : {&rr, &wl, &cp}) {
        noc::check_credit_invariant(*s);
      }
    }
    expect_same_records(hw, hr);
    expect_same_records(hc, hr);
    EXPECT_GT(hr.flits_delivered(), 0u);
    EXPECT_EQ(rr.engine().skipped_cycles(), 0u);
    EXPECT_GT(wl.engine().skipped_cycles(), 0u);
    EXPECT_GT(cp.engine().skipped_cycles(), 0u);
  }
}

/// Every committed cycle as an observer sees it.
class CommitLog : public core::SimObserver {
 public:
  void on_cycle_commit(const core::Engine& eng,
                       const core::StepStats& stats) override {
    cycles.push_back(eng.cycle());
    stats_stream.push_back(stats);
  }
  std::vector<SystemCycle> cycles;
  std::vector<core::StepStats> stats_stream;
};

TEST(IdleSkip, StatsStreamDoesNotDependOnRunQuanta) {
  // Four compiled lanes over one GT-only workload: run(N), run(1) N
  // times, random quanta, and a lane behind a decorator that does not
  // forward advance_idle, so it steps every cycle. Each observer must see
  // one commit per cycle, and all four streams must be equal.
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = Topology::kMesh;
  constexpr std::size_t kCycles = 1700;
  std::vector<SeqNocSimulation*> engines;
  std::vector<std::unique_ptr<SeqNocSimulation>> owned;
  for (int i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<SeqNocSimulation>(
        net, make_opts(1, SchedulerKind::kCompiled)));
    engines.push_back(owned.back().get());
  }
  auto stepped_owned = std::make_unique<SeqNocSimulation>(
      net, make_opts(1, SchedulerKind::kCompiled));
  SeqNocSimulation* stepped = stepped_owned.get();
  std::vector<std::unique_ptr<noc::NocSimulation>> one;
  one.push_back(std::move(stepped_owned));
  noc::LockstepNocSimulation stepping_only(std::move(one));
  engines.push_back(stepped);

  std::vector<CommitLog> logs(engines.size());
  for (std::size_t i = 0; i < engines.size(); ++i) {
    engines[i]->set_observer(&logs[i]);
  }
  traffic::TrafficHarness::Options opts;
  opts.seed = 77;
  std::vector<std::unique_ptr<traffic::TrafficHarness>> hs;
  for (std::size_t i = 0; i < 3; ++i) {
    hs.push_back(std::make_unique<traffic::TrafficHarness>(*engines[i], opts));
  }
  hs.push_back(std::make_unique<traffic::TrafficHarness>(stepping_only, opts));
  for (auto& h : hs) {
    add_fig1_streams(*h, net, 700);
  }

  hs[0]->run(kCycles);
  for (std::size_t c = 0; c < kCycles; ++c) {
    hs[1]->run(1);
  }
  SplitMix64 rng(5);
  for (std::size_t done = 0; done < kCycles;) {
    const std::size_t q =
        std::min<std::size_t>(1 + rng.next_below(200), kCycles - done);
    hs[2]->run(q);
    done += q;
  }
  hs[3]->run(kCycles);

  for (std::size_t i = 0; i < engines.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    EXPECT_EQ(logs[i].cycles.size(), kCycles);
    EXPECT_EQ(logs[i].cycles, logs[3].cycles);
    EXPECT_EQ(logs[i].stats_stream, logs[3].stats_stream);
    EXPECT_EQ(core::engine_state_digest(engines[i]->engine()),
              core::engine_state_digest(stepped->engine()));
    expect_same_records(*hs[i], *hs[3]);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(engines[i]->engine().skipped_cycles(), 0u) << "lane " << i;
  }
  EXPECT_EQ(stepped->engine().skipped_cycles(), 0u);
  for (SeqNocSimulation* e : engines) {
    e->set_observer(nullptr);
  }
}

/// The per-cycle delta count is scheduler bookkeeping, not design state:
/// renamed per lane, vcd_diff leaves it out of the compared set.
std::string rename_delta_signal(std::string dump, const std::string& lane) {
  const std::string from = " sim.delta_cycles $end";
  const std::size_t at = dump.find(from);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) {
    dump.replace(at, from.size(), " sim.delta_cycles_" + lane + " $end");
  }
  return dump;
}

TEST(IdleSkip, CompiledVcdEqualsRoundRobinVcd) {
  // Waveforms of every link and router state over a GT-only run: the
  // skipping compiled engine must dump byte for byte what the same
  // engine dumps when stepped every cycle, and what the round-robin
  // reference dumps, up to the per-cycle delta count.
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = Topology::kTorus;
  SeqNocSimulation rr(net, make_opts(1, SchedulerKind::kRoundRobin));
  SeqNocSimulation cp(net, make_opts(1, SchedulerKind::kCompiled));
  auto stepped_owned = std::make_unique<SeqNocSimulation>(
      net, make_opts(1, SchedulerKind::kCompiled));
  SeqNocSimulation& stepped = *stepped_owned;
  std::vector<std::unique_ptr<noc::NocSimulation>> one;
  one.push_back(std::move(stepped_owned));
  noc::LockstepNocSimulation stepping_only(std::move(one));

  obs::VcdTracerOptions vopts;
  vopts.block_glob = "*";
  std::ostringstream os_rr, os_cp, os_step;
  obs::VcdTracer t_rr(rr.engine().model(), os_rr, vopts);
  obs::VcdTracer t_cp(cp.engine().model(), os_cp, vopts);
  obs::VcdTracer t_step(stepped.engine().model(), os_step, vopts);
  rr.set_observer(&t_rr);
  cp.set_observer(&t_cp);
  stepped.set_observer(&t_step);
  traffic::TrafficHarness hr(rr), hc(cp), hs(stepping_only);
  for (traffic::TrafficHarness* h : {&hr, &hc, &hs}) {
    add_fig1_streams(*h, net, 600);
    h->run(1400);
  }
  rr.set_observer(nullptr);
  cp.set_observer(nullptr);
  stepped.set_observer(nullptr);
  EXPECT_GT(cp.engine().skipped_cycles(), 0u);
  EXPECT_EQ(stepped.engine().skipped_cycles(), 0u);

  EXPECT_EQ(os_cp.str(), os_step.str());
  std::istringstream a(rename_delta_signal(os_rr.str(), "rr")),
      b(rename_delta_signal(os_cp.str(), "compiled"));
  const obs::VcdDivergence d = obs::vcd_diff(a, b);
  EXPECT_FALSE(d.diverged) << d.summary();
  EXPECT_EQ(d.only_in_a, std::vector<std::string>{"sim.delta_cycles_rr"});
  EXPECT_EQ(d.only_in_b,
            std::vector<std::string>{"sim.delta_cycles_compiled"});
}

}  // namespace
}  // namespace tmsim

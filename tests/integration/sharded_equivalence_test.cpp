// Randomized differential proof of the sharded engine: for any
// topology, workload, seed and shard count, the N-shard engine (the
// round-robin pickup over min-cut regions) must be bit-identical to the
// one-shard (sequential §4) engine and to the struct-state
// DirectNocSimulation golden model —
// every local output, every credit wire, every register bit, every
// cycle (LockstepNocSimulation throws on the first divergence), every
// link value at the end, and the full monitor statistics of a
// dual-harness run. The one-shard engine is the same code as the
// N-shard one, so the golden model is the lane that stays independent of
// the engine under test.
//
// Every case derives its whole configuration from one index, printed as
// a replay tuple via SCOPED_TRACE on failure: rerun with
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
#include "noc/network.h"
#include "traffic/harness.h"

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
  /// The one-shard lane's scheduler; the sharded lane runs round-robin.
  SchedulerKind seq_scheduler;

  std::string replay_tuple(std::uint64_t index) const {
    return "replay{index=" + std::to_string(index) + ", net=" +
           std::to_string(width) + "x" + std::to_string(height) +
           (topology == Topology::kTorus ? " torus" : " mesh") +
           ", queue_depth=" + std::to_string(queue_depth) +
           ", be_load=" + std::to_string(be_load) +
           ", traffic_seed=" + std::to_string(traffic_seed) +
           ", cycles=" + std::to_string(cycles) +
           ", num_shards=" + std::to_string(num_shards) +
           ", seq_scheduler=" + core::scheduler_kind_name(seq_scheduler) +
           "}";
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
  const std::size_t routers = c.width * c.height;
  c.num_shards = 2 + rng.next_below(7);  // 2..8, clamped by the engine
  if (c.num_shards > routers) {
    c.num_shards = routers;
  }
  rng.next_below(3);  // spare draw: keeps every index's later fields put
  // Mostly the reference round-robin pickup; the compiled op program
  // rides along on the one-shard lane.
  c.seq_scheduler = rng.next_below(6) == 0 ? SchedulerKind::kCompiled
                                           : SchedulerKind::kRoundRobin;
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

EngineOptions sharded_opts(const RandomConfig& c) {
  EngineOptions o;
  o.num_shards = c.num_shards;
  return o;
}

class ShardedRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedRandomized, BitIdenticalToSequential) {
  const std::uint64_t index = GetParam();
  const RandomConfig cfg = derive_config(index);
  SCOPED_TRACE(cfg.replay_tuple(index));
  const NetworkConfig net = make_net(cfg);

  auto seq = std::make_unique<SeqNocSimulation>(
      net, EngineOptions{.scheduler = cfg.seq_scheduler});
  auto sharded = std::make_unique<SeqNocSimulation>(net, sharded_opts(cfg));
  const SeqNocSimulation* seq_ptr = seq.get();
  const SeqNocSimulation* sharded_ptr = sharded.get();

  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::move(seq));
  sims.push_back(std::move(sharded));
  sims.push_back(std::make_unique<noc::DirectNocSimulation>(net));
  noc::LockstepNocSimulation lockstep(std::move(sims));

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
  const core::Engine& seq_eng = seq_ptr->engine();
  const core::Engine& sh_eng = sharded_ptr->engine();
  ASSERT_EQ(seq_eng.model().num_links(), sh_eng.model().num_links());
  for (core::LinkId l = 0; l < seq_eng.model().num_links(); ++l) {
    ASSERT_EQ(seq_eng.link_value(l), sh_eng.link_value(l))
        << "link " << l << " (" << seq_eng.model().link(l).name << ")";
  }
}

// 210 randomized configurations, each a distinct point in the space.
INSTANTIATE_TEST_SUITE_P(Configs, ShardedRandomized,
                         ::testing::Range<std::uint64_t>(0, 210));

// Monitor statistics must be bitwise identical too: run the same
// workload through two *independent* harnesses (one per engine) and
// compare everything the harness measures. A subset of the index space
// keeps the suite's runtime bounded.
class ShardedStats : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedStats, MonitorStatisticsMatchSequential) {
  const std::uint64_t index = GetParam();
  const RandomConfig cfg = derive_config(index);
  SCOPED_TRACE(cfg.replay_tuple(index));
  const NetworkConfig net = make_net(cfg);

  auto run = [&](const EngineOptions& eopts) {
    SeqNocSimulation sim(net, eopts);
    traffic::TrafficHarness::Options opts;
    opts.seed = cfg.traffic_seed;
    opts.verify_payload = true;
    traffic::TrafficHarness h(sim, opts);
    h.set_be_load(cfg.be_load, {0, 1, 2, 3});
    h.run(cfg.cycles);
    h.set_be_load(0.0);
    h.run(60);
    struct Result {
      std::size_t injected, delivered;
      traffic::LatencySummary be;
    } r{h.flits_injected(), h.flits_delivered(),
        h.summarize(traffic::PacketClass::kBestEffort)};
    return r;
  };

  const auto a = run(EngineOptions{.scheduler = cfg.seq_scheduler});
  const auto b = run(sharded_opts(cfg));
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.be.delivered, b.be.delivered);
  EXPECT_EQ(a.be.network.mean(), b.be.network.mean());
  EXPECT_EQ(a.be.network.min(), b.be.network.min());
  EXPECT_EQ(a.be.network.max(), b.be.network.max());
  EXPECT_EQ(a.be.access.mean(), b.be.access.mean());
}

INSTANTIATE_TEST_SUITE_P(Configs, ShardedStats,
                         ::testing::Range<std::uint64_t>(0, 210, 14));

TEST(ShardedReplay, SameConfigTwiceIsDeterministic) {
  // The replay tuple is only useful if a rerun reproduces the run bit
  // for bit — thread scheduling must not leak into results.
  const RandomConfig cfg = derive_config(7);
  const NetworkConfig net = make_net(cfg);
  auto digest = [&] {
    SeqNocSimulation sim(net, sharded_opts(cfg));
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

TEST(ShardedClamp, MoreShardsThanBlocksClampsAndStaysExact) {
  NetworkConfig net;
  net.width = 2;
  net.height = 2;
  net.topology = Topology::kMesh;
  EngineOptions o;
  o.num_shards = 64;  // > 4 routers
  traffic::TrafficHarness::Options opts;
  opts.seed = 99;
  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::make_unique<SeqNocSimulation>(net));
  sims.push_back(std::make_unique<SeqNocSimulation>(net, o));
  noc::LockstepNocSimulation lockstep(std::move(sims));
  traffic::TrafficHarness h(lockstep, opts);
  h.set_be_load(0.2, {0, 1, 2, 3});
  h.run(200);
}

// The sharded engine is one configuration: the round-robin pickup over
// min-cut regions. The op program needs one shard, counted after the
// clamp to the block count.
TEST(ShardedSchedulers, CompiledNeedsOneShard) {
  NetworkConfig net;
  net.width = 2;
  net.height = 2;
  net.topology = Topology::kMesh;
  const core::NocModel nm = core::build_noc_model(net);
  EngineOptions o;
  o.num_shards = 2;
  o.scheduler = SchedulerKind::kCompiled;
  try {
    core::Engine eng(nm.model, o);
    ADD_FAILURE() << "a sharded engine accepted a non-round-robin scheduler";
  } catch (const ContextualError& e) {
    EXPECT_EQ(e.context_value("shards"), "2");
    EXPECT_EQ(e.context_value("scheduler"), "compiled");
  }
  o.num_shards = 1;
  EXPECT_NO_THROW(core::Engine(nm.model, o));

  // One block clamps any shard count to one, so the program runs.
  core::SystemModel m;
  const core::BlockId b = m.add_block(
      std::make_shared<core::examples::PipeBlock>(8, 1), "pipe");
  const core::LinkId in = m.add_link("in", 8, core::LinkKind::kCombinational);
  const core::LinkId out =
      m.add_link("out", 8, core::LinkKind::kCombinational);
  m.bind_input(b, 0, in);
  m.bind_output(b, 0, out);
  m.finalize();
  o.num_shards = 4;
  EXPECT_NO_THROW(core::Engine(m, o));
}

// A combinational oscillator split across shards must be detected like
// the sequential engine detects it: ConvergenceError, with a report
// that points at the oscillating blocks. The engines trip at different
// points of the loop (sequential flags whichever reader was pending at
// its eval budget; the sharded engine flags every reader of a pending
// cut-link change), so the sharded set must *cover* the sequential one
// rather than equal it.
TEST(ShardedConvergence, CrossShardOscillatorThrowsLikeSequential) {
  core::SystemModel m;
  auto inv = std::make_shared<core::examples::NotBlock>();
  const core::BlockId b0 = m.add_block(inv, "not0");
  const core::BlockId b1 = m.add_block(inv, "not1");
  const core::BlockId b2 = m.add_block(inv, "not2");
  const core::LinkId l01 =
      m.add_link("l01", 1, core::LinkKind::kCombinational);
  const core::LinkId l12 =
      m.add_link("l12", 1, core::LinkKind::kCombinational);
  const core::LinkId l20 =
      m.add_link("l20", 1, core::LinkKind::kCombinational);
  m.bind_output(b0, 0, l01);
  m.bind_input(b1, 0, l01);
  m.bind_output(b1, 0, l12);
  m.bind_input(b2, 0, l12);
  m.bind_output(b2, 0, l20);
  m.bind_input(b0, 0, l20);
  m.finalize();

  auto oscillating_blocks = [](core::Engine& eng) {
    try {
      eng.step();
    } catch (const core::ConvergenceError& e) {
      return e.report().oscillating_blocks;
    }
    ADD_FAILURE() << "engine settled an odd NOT ring";
    return std::vector<core::BlockId>{};
  };

  core::SequentialSimulator seq(m, SchedulePolicy::kDynamic, 16);
  core::EngineOptions cfg;
  cfg.num_shards = 3;  // one inverter per shard: purely cross-shard loop
  cfg.max_evals_per_block = 16;
  core::Engine sharded(m, cfg);

  const auto a = oscillating_blocks(seq);
  const auto b = oscillating_blocks(sharded);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  for (const core::BlockId blk : a) {
    EXPECT_TRUE(std::find(b.begin(), b.end(), blk) != b.end())
        << "sequential flagged block " << blk
        << " but the sharded report missed it";
  }
  for (const core::BlockId blk : b) {
    EXPECT_LT(blk, m.num_blocks());
  }
}

// The static §4.1 schedule on a registered-boundary model: the sharded
// engine must agree with the sequential engine there too (the NoC can't
// exercise static — its inter-router links are combinational). One
// block per shard cuts every link.
TEST(ShardedStatic, RegisteredPipelineMatchesSequential) {
  core::SystemModel m;
  std::vector<core::BlockId> blocks;
  for (int i = 0; i < 7; ++i) {
    blocks.push_back(m.add_block(
        std::make_shared<core::examples::RegAdderBlock>(16, 10 + i),
        "add" + std::to_string(i)));
  }
  const core::LinkId ext =
      m.add_link("ext", 16, core::LinkKind::kCombinational);
  m.bind_input(blocks[0], 0, ext);
  for (int i = 0; i < 7; ++i) {
    const core::LinkId l = m.add_link("q" + std::to_string(i), 16,
                                      core::LinkKind::kRegistered);
    m.bind_output(blocks[i], 0, l);
    if (i + 1 < 7) {
      m.bind_input(blocks[i + 1], 0, l);
    }
  }
  m.finalize();

  core::SequentialSimulator seq(m, SchedulePolicy::kStatic);
  core::EngineOptions cfg;
  cfg.num_shards = m.num_blocks();  // worst case: all links cut
  core::Engine sharded(m, cfg);
  ASSERT_EQ(sharded.num_boundary_links(), 6u);

  SplitMix64 rng(123);
  for (int cycle = 0; cycle < 50; ++cycle) {
    const std::uint64_t v = rng.next_below(1u << 16);
    seq.set_external_input(ext, make_bit_vector(16, v));
    sharded.set_external_input(ext, make_bit_vector(16, v));
    seq.step();
    sharded.step();
    for (core::LinkId l = 0; l < m.num_links(); ++l) {
      ASSERT_EQ(seq.link_value(l), sharded.link_value(l))
          << "cycle " << cycle << " link " << m.link(l).name;
    }
  }
}

}  // namespace
}  // namespace tmsim

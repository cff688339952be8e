// Idle-cycle skip (DESIGN.md §17): once a gated schedule (worklist or
// compiled) has run a cycle that evaluated no block, the engine is
// settled and advance_idle(k) moves it k cycles in O(1). These tests pin
// the contract: a skip is indistinguishable from k step() calls — the
// same counters, the same committed state and links, and one
// on_cycle_commit per skipped cycle with the same StepStats — every
// write between steps that could change the next cycle unsettles the
// engine, and the round-robin reference never settles.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/example_blocks.h"
#include "core/system_model.h"

namespace tmsim::core {
namespace {

using examples::PipeBlock;

/// Three stateful pipes joined by combinational links, fed by one
/// external input: with the input held the chain reaches a fixed point
/// in a few cycles, after which a gated engine evaluates nothing.
struct PipeChain {
  PipeChain() {
    const BlockId p1 = model.add_block(std::make_shared<PipeBlock>(16, 1), "P1");
    const BlockId p2 = model.add_block(std::make_shared<PipeBlock>(16, 10), "P2");
    const BlockId p3 = model.add_block(std::make_shared<PipeBlock>(16, 100), "P3");
    x = model.add_link("X", 16, LinkKind::kCombinational);
    l1 = model.add_link("L1", 16, LinkKind::kCombinational);
    l2 = model.add_link("L2", 16, LinkKind::kCombinational);
    l3 = model.add_link("L3", 16, LinkKind::kCombinational);
    model.bind_input(p1, 0, x);
    model.bind_output(p1, 0, l1);
    model.bind_input(p2, 0, l1);
    model.bind_output(p2, 0, l2);
    model.bind_input(p3, 0, l2);
    model.bind_output(p3, 0, l3);
    model.finalize();
  }
  SystemModel model;
  LinkId x = 0, l1 = 0, l2 = 0, l3 = 0;
};

EngineOptions options(SchedulerKind kind, std::size_t shards = 1) {
  EngineOptions o;
  o.scheduler = kind;
  o.num_shards = shards;
  return o;
}

/// Records every committed cycle as the engine reports it.
class CommitLog : public SimObserver {
 public:
  void on_cycle_commit(const Engine& eng, const StepStats& stats) override {
    cycles.push_back(eng.cycle());
    stats_stream.push_back(stats);
  }
  std::vector<SystemCycle> cycles;
  std::vector<StepStats> stats_stream;
};

/// Holds X at `value` for enough cycles that the chain is a fixed point.
void settle(Engine& eng, LinkId x, std::uint64_t value) {
  eng.set_external_input(x, value);
  for (int i = 0; i < 8; ++i) {
    eng.step();
  }
}

void expect_same_engine(const Engine& a, const Engine& b) {
  EXPECT_EQ(a.cycle(), b.cycle());
  EXPECT_EQ(a.total_delta_cycles(), b.total_delta_cycles());
  EXPECT_EQ(a.total_supersteps(), b.total_supersteps());
  EXPECT_EQ(engine_state_digest(a), engine_state_digest(b));
  for (LinkId l = 0; l < a.model().num_links(); ++l) {
    EXPECT_EQ(a.link_value(l), b.link_value(l)) << a.model().link(l).name;
  }
}

constexpr SchedulerKind kGated[] = {SchedulerKind::kWorklist,
                                    SchedulerKind::kCompiled};

TEST(EngineIdleSkip, SettledEngineSkipsExactlyAsSteppingWould) {
  for (const SchedulerKind kind : kGated) {
    SCOPED_TRACE(scheduler_kind_name(kind));
    PipeChain m;
    Engine skipping(m.model, options(kind));
    Engine stepping(m.model, options(kind));
    CommitLog skip_log, step_log;
    skipping.set_observer(&skip_log);
    stepping.set_observer(&step_log);
    settle(skipping, m.x, 0x1234);
    settle(stepping, m.x, 0x1234);

    EXPECT_EQ(skipping.advance_idle(50), 50u);
    for (int i = 0; i < 50; ++i) {
      const StepStats s = stepping.step();
      EXPECT_EQ(s.delta_cycles, 0u);
    }
    EXPECT_EQ(skip_log.cycles, step_log.cycles);
    EXPECT_EQ(skip_log.stats_stream, step_log.stats_stream);
    EXPECT_EQ(skip_log.cycles.size(), 58u);  // one commit per cycle
    expect_same_engine(skipping, stepping);
    EXPECT_EQ(skipping.skipped_cycles(), 50u);
    EXPECT_EQ(stepping.skipped_cycles(), 0u);

    // Without an observer the skip is a counter move, with the same end.
    skipping.set_observer(nullptr);
    stepping.set_observer(nullptr);
    EXPECT_EQ(skipping.advance_idle(1000), 1000u);
    for (int i = 0; i < 1000; ++i) {
      stepping.step();
    }
    expect_same_engine(skipping, stepping);

    // The next stimulus wakes both the same way.
    for (Engine* e : {&skipping, &stepping}) {
      e->set_external_input(m.x, std::uint64_t{0x4321});
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(skipping.step(), stepping.step()) << "cycle " << i;
    }
    expect_same_engine(skipping, stepping);
  }
}

TEST(EngineIdleSkip, RoundRobinNeverSettles) {
  PipeChain m;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    Engine rr(m.model, options(SchedulerKind::kRoundRobin, shards));
    settle(rr, m.x, 0x1234);
    EXPECT_EQ(rr.advance_idle(10), 0u) << "shards=" << shards;
    EXPECT_EQ(rr.cycle(), 8u);
    EXPECT_EQ(rr.skipped_cycles(), 0u);
  }
}

TEST(EngineIdleSkip, AFreshOrBusyEngineIsNotSettled) {
  for (const SchedulerKind kind : kGated) {
    SCOPED_TRACE(scheduler_kind_name(kind));
    PipeChain m;
    Engine eng(m.model, options(kind));
    EXPECT_EQ(eng.advance_idle(5), 0u);  // no step yet
    eng.set_external_input(m.x, std::uint64_t{7});
    eng.step();
    EXPECT_EQ(eng.advance_idle(5), 0u);  // the cycle evaluated blocks
    EXPECT_EQ(eng.cycle(), 1u);
  }
}

TEST(EngineIdleSkip, EveryWriteBetweenStepsThatCanMatterUnsettles) {
  // Each case perturbs a settled engine between steps. A write that can
  // change the next cycle must unsettle it (advance_idle skips nothing),
  // and stepping on must then match an engine that got the same write
  // and never skipped; rewriting an input with the value it holds must
  // not.
  struct Case {
    std::string name;
    std::function<void(Engine&, const PipeChain&)> perturb;
    bool unsettles;
  };
  const std::vector<Case> cases = {
      {"changed external input",
       [](Engine& e, const PipeChain& m) {
         e.set_external_input(m.x, std::uint64_t{0x0bad});
       },
       true},
      {"unchanged external input",
       [](Engine& e, const PipeChain& m) {
         e.set_external_input(m.x, std::uint64_t{0x1234});
       },
       false},
      {"load_block_state",
       [](Engine& e, const PipeChain&) {
         BitVector s = e.block_state(1);
         s.set_field(0, 16, 0x00ff);
         e.load_block_state(1, s);
       },
       true},
      {"load_link_value",
       [](Engine& e, const PipeChain& m) {
         BitVector v = e.link_value(m.l2);
         v.set_field(0, 16, 0x0f0f);
         e.load_link_value(m.l2, v);
       },
       true},
      {"clear_links", [](Engine& e, const PipeChain&) { e.clear_links(); },
       true},
      {"restore_scheduler_state",
       [](Engine& e, const PipeChain&) { e.restore_scheduler_state({}); },
       true},
      {"reset_engine", [](Engine& e, const PipeChain&) { reset_engine(e); },
       true},
  };
  for (const SchedulerKind kind : kGated) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(scheduler_kind_name(kind)) + ": " + c.name);
      PipeChain m;
      Engine eng(m.model, options(kind));
      Engine ref(m.model, options(kind));
      settle(eng, m.x, 0x1234);
      settle(ref, m.x, 0x1234);
      ASSERT_EQ(eng.advance_idle(3), 3u);  // settled before the write
      for (int i = 0; i < 3; ++i) {
        ref.step();
      }
      c.perturb(eng, m);
      c.perturb(ref, m);
      EXPECT_EQ(eng.advance_idle(4), c.unsettles ? 0u : 4u);
      if (!c.unsettles) {
        for (int i = 0; i < 4; ++i) {
          ref.step();
        }
      }
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(eng.step(), ref.step()) << "cycle " << i;
      }
      expect_same_engine(eng, ref);
    }
  }
}

TEST(EngineIdleSkip, RestoredCheckpointIsNotSettled) {
  // A checkpoint taken from a settled engine restored into another that
  // had settled on a different stimulus: the restored engine must step
  // (its flags and links came from elsewhere) and then match the source.
  for (const SchedulerKind kind : kGated) {
    SCOPED_TRACE(scheduler_kind_name(kind));
    PipeChain m;
    Engine src(m.model, options(kind));
    Engine dst(m.model, options(kind));
    settle(src, m.x, 0x1234);
    settle(dst, m.x, 0x5555);
    const EngineCheckpoint ck = save_checkpoint(src);
    restore_checkpoint(dst, ck);
    EXPECT_EQ(dst.advance_idle(5), 0u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(dst.step(), src.step()) << "cycle " << i;
    }
    expect_same_engine(dst, src);
    EXPECT_EQ(dst.advance_idle(5), 5u);  // settled again on its own
  }
}

}  // namespace
}  // namespace tmsim::core

// Engine checkpoint/restore/reset — the machinery SimSession preemption
// stands on (DESIGN.md §11): continue-vs-restore bit identity across
// engine *instances*, digest verification, the registered-internal-link
// restriction, power-on reset for engine reuse, and the canonical
// schedule_rr_offset behaviour the farm's engine cache relies on.
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/example_blocks.h"
#include "core/noc_block.h"
#include "core/sequential_simulator.h"
#include "core/system_model.h"
#include "traffic/harness.h"

namespace tmsim::core {
namespace {

using examples::PipeBlock;
using examples::RegAdderBlock;

BitVector val(std::size_t width, std::uint64_t v) {
  BitVector b(width);
  b.set_field(0, width, v);
  return b;
}

/// Checkpointable shape: stateful blocks joined by *combinational* links
/// (the NoC-model shape — the fixed point is a pure function of the
/// committed states and external inputs), fed by one external input.
struct PipeChain {
  PipeChain() {
    const BlockId p1 =
        model.add_block(std::make_shared<PipeBlock>(16, 1), "P1");
    const BlockId p2 =
        model.add_block(std::make_shared<PipeBlock>(16, 10), "P2");
    const BlockId p3 =
        model.add_block(std::make_shared<PipeBlock>(16, 100), "P3");
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

/// The deterministic stimulus both halves of every test replay.
std::uint64_t stimulus(SystemCycle cycle) { return (7 * cycle + 3) & 0xffff; }

/// stimulus() held for four cycles at a time: the chain goes quiescent
/// between changes, so the gated op program skips blocks.
std::uint64_t held_stimulus(SystemCycle cycle) {
  return stimulus(cycle - cycle % 4);
}

bool keeps_quiescence_flags(SchedulerKind kind) {
  return kind != SchedulerKind::kRoundRobin;
}

std::uint64_t skipped_total(const std::vector<StepStats>& stats) {
  std::uint64_t n = 0;
  for (const StepStats& s : stats) {
    n += s.skipped_blocks;
  }
  return n;
}

void drive(SequentialSimulator& sim, const PipeChain& chain,
           SystemCycle cycles) {
  for (SystemCycle i = 0; i < cycles; ++i) {
    sim.set_external_input(chain.x, val(16, stimulus(sim.cycle())));
    sim.step();
  }
}

TEST(EngineCheckpoint, ContinueVsRestoreIntoFreshEngineBitIdentical) {
  PipeChain a_chain;
  SequentialSimulator a(a_chain.model, SchedulePolicy::kDynamic);
  drive(a, a_chain, 10);
  const EngineCheckpoint ck = save_checkpoint(a);
  EXPECT_EQ(ck.cycle, 10u);
  EXPECT_FALSE(ck.empty());
  EXPECT_EQ(ck.digest, engine_state_digest(a));

  drive(a, a_chain, 15);  // the uninterrupted reference

  // A *different* engine instance over its own (identical) model, with a
  // different schedule seed — evaluation order must not matter.
  PipeChain b_chain;
  SequentialSimulator b(b_chain.model, SchedulePolicy::kDynamic,
                        /*max_evals_per_block=*/64, /*schedule_seed=*/99);
  restore_checkpoint(b, ck);
  EXPECT_EQ(b.cycle(), 10u);
  EXPECT_EQ(engine_state_digest(b), ck.digest);
  drive(b, b_chain, 15);

  EXPECT_EQ(b.cycle(), a.cycle());
  EXPECT_EQ(engine_state_digest(b), engine_state_digest(a));
  for (const LinkId link : {b_chain.l1, b_chain.l2, b_chain.l3}) {
    EXPECT_EQ(b.link_value(link), a.link_value(link));
  }
}

TEST(EngineCheckpoint, TamperedCheckpointIsRejected) {
  PipeChain chain;
  SequentialSimulator sim(chain.model, SchedulePolicy::kDynamic);
  drive(sim, chain, 5);
  {
    EngineCheckpoint ck = save_checkpoint(sim);
    ck.digest ^= 1;  // stale/corrupted digest
    EXPECT_THROW(restore_checkpoint(sim, ck), std::exception);
  }
  {
    EngineCheckpoint ck = save_checkpoint(sim);
    ck.block_states[1] = val(16, 0xbad);  // states mutated after capture
    EXPECT_THROW(restore_checkpoint(sim, ck), std::exception);
  }
}

TEST(EngineCheckpoint, RegisteredInternalLinksAreNotCheckpointable) {
  // Registered links carry state the block-state snapshot does not
  // cover, so save_checkpoint must refuse rather than silently lose it.
  SystemModel model;
  const BlockId b1 =
      model.add_block(std::make_shared<RegAdderBlock>(16, 1), "F1");
  const BlockId b2 =
      model.add_block(std::make_shared<RegAdderBlock>(16, 2), "F2");
  const LinkId r1 = model.add_link("R1", 16, LinkKind::kRegistered);
  const LinkId r2 = model.add_link("R2", 16, LinkKind::kRegistered);
  model.bind_input(b1, 0, r2);
  model.bind_output(b1, 0, r1);
  model.bind_input(b2, 0, r1);
  model.bind_output(b2, 0, r2);
  model.finalize();
  SequentialSimulator sim(model, SchedulePolicy::kStatic);
  sim.step();
  EXPECT_THROW(save_checkpoint(sim), std::exception);
}

TEST(EngineCheckpoint, ResetEngineReturnsToPowerOn) {
  PipeChain chain;
  SequentialSimulator sim(chain.model, SchedulePolicy::kDynamic);
  const std::uint64_t power_on = engine_state_digest(sim);
  drive(sim, chain, 12);
  ASSERT_NE(engine_state_digest(sim), power_on);

  reset_engine(sim);
  EXPECT_EQ(sim.cycle(), 0u);
  EXPECT_EQ(engine_state_digest(sim), power_on);

  // The reused engine replays the original trajectory exactly.
  PipeChain fresh_chain;
  SequentialSimulator fresh(fresh_chain.model, SchedulePolicy::kDynamic);
  drive(sim, chain, 12);
  drive(fresh, fresh_chain, 12);
  EXPECT_EQ(engine_state_digest(sim), engine_state_digest(fresh));
}

/// A reused farm engine must be indistinguishable from a fresh one, down
/// to the StepStats stream: a previous tenant's link values (and its
/// round-robin cursor) would otherwise change the first cycle's delta and
/// link-change counts even though the committed states — and so the
/// digests — agree.
TEST(EngineReset, ReusedEngineReplaysAFreshEnginesStepStats) {
  noc::NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = noc::Topology::kMesh;
  const auto lanes = {
      EngineOptions{.scheduler = SchedulerKind::kRoundRobin},
      EngineOptions{.scheduler = SchedulerKind::kCompiled},
      EngineOptions{.seed = 7, .scheduler = SchedulerKind::kRoundRobin},
  };
  for (const EngineOptions& opts : lanes) {
    SCOPED_TRACE(std::string(scheduler_kind_name(opts.scheduler)) +
                 " seed=" + std::to_string(opts.seed));
    SeqNocSimulation used(net, opts);
    {
      traffic::TrafficHarness h(used, {.seed = 5});
      h.set_be_load(0.30);
      h.run(200);
    }
    used.reset();
    SeqNocSimulation fresh(net, opts);
    traffic::TrafficHarness hu(used, {.seed = 9});
    traffic::TrafficHarness hf(fresh, {.seed = 9});
    hu.set_be_load(0.30);
    hf.set_be_load(0.30);
    for (int c = 0; c < 40; ++c) {
      hu.run(1);
      hf.run(1);
      const StepStats& a = used.last_step_stats();
      const StepStats& b = fresh.last_step_stats();
      ASSERT_EQ(a, b) << "cycle " << c << ": deltas " << a.delta_cycles
                      << " vs " << b.delta_cycles << ", link changes "
                      << a.link_changes << " vs " << b.link_changes;
    }
    // Drain: routers go quiescent one by one, so the gated op program
    // skips blocks on flags the reset must have cleared.
    hu.set_be_load(0.0);
    hf.set_be_load(0.0);
    std::uint64_t skipped = 0;
    for (int c = 0; c < 60; ++c) {
      hu.run(1);
      hf.run(1);
      const StepStats& a = used.last_step_stats();
      const StepStats& b = fresh.last_step_stats();
      ASSERT_EQ(a, b) << "drain cycle " << c;
      skipped += a.skipped_blocks;
    }
    EXPECT_EQ(skipped > 0, opts.scheduler != SchedulerKind::kRoundRobin);
    EXPECT_EQ(engine_state_digest(used.engine()),
              engine_state_digest(fresh.engine()));
  }
}

// ---------------------------------------------------------------------------
// Scheduler-state checkpointing (DESIGN.md §17): a farm-preempted
// session resumed on a different engine instance must replay not just
// bit-identical results but the identical *StepStats stream* — cursor
// positions and quiescence flags ride in the checkpoint. The diff below
// is over full per-cycle stats, not digests: digests can agree while the
// schedules did different amounts of work.
// ---------------------------------------------------------------------------

/// A stimulus the pre-restore "other tenant" workload uses; disjoint
/// from stimulus() so the restored engine really starts from foreign
/// scheduler state.
std::uint64_t other_stimulus(SystemCycle cycle) {
  return (13 * cycle + 11) & 0xffff;
}

std::vector<StepStats> drive_recording(Engine& sim, const PipeChain& chain,
                                       SystemCycle cycles,
                                       std::uint64_t (*stim)(SystemCycle)) {
  std::vector<StepStats> out;
  for (SystemCycle i = 0; i < cycles; ++i) {
    sim.set_external_input(chain.x, val(16, stim(sim.cycle())));
    out.push_back(sim.step());
  }
  return out;
}

TEST(SchedulerCheckpoint, SequentialStatsStreamSurvivesPreemption) {
  // Seed 5 starts the round-robin cursor on the last block, so the
  // restored cursor is not the canonical one.
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{5}}) {
    for (const SchedulerKind kind :
         {SchedulerKind::kRoundRobin, SchedulerKind::kCompiled}) {
      for (auto* const stim : {stimulus, held_stimulus}) {
        SCOPED_TRACE(std::string(scheduler_kind_name(kind)) +
                     (stim == stimulus ? " stimulus" : " held_stimulus") +
                     " seed=" + std::to_string(seed));
        PipeChain a_chain;
        SequentialSimulator a(a_chain.model, SchedulePolicy::kDynamic, 64,
                              seed, kind);
        drive_recording(a, a_chain, 9, stim);
        const EngineCheckpoint ck = save_checkpoint(a);
        const std::vector<StepStats> ref =
            drive_recording(a, a_chain, 8, stim);
        if (stim == held_stimulus && keeps_quiescence_flags(kind)) {
          // The restored flags are what the resumed stream depends on.
          EXPECT_GT(skipped_total(ref), 0u);
        }

        // The resumed-onto engine first ran a different workload, so its
        // cursor, quiescence flags, and link values are all foreign.
        PipeChain b_chain;
        SequentialSimulator b(b_chain.model, SchedulePolicy::kDynamic, 64,
                              seed, kind);
        drive_recording(b, b_chain, 5, other_stimulus);
        restore_checkpoint(b, ck);
        EXPECT_EQ(engine_state_digest(b), ck.digest);
        const std::vector<StepStats> got =
            drive_recording(b, b_chain, 8, stim);

        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(got[i], ref[i]) << "cycle " << 9 + i;
        }
        EXPECT_EQ(engine_state_digest(b), engine_state_digest(a));
      }
    }
  }
}

TEST(SchedulerCheckpoint, RestoredEngineHoldsTheSkippedBlocksOutputs) {
  // A quiescent chain: the op program skips every block whose inputs did
  // not move, so their output links keep whatever the engine last held.
  // L3 is a primary output (no block reads it, the testbench does). A
  // restore onto an engine that ran another workload must bring it back
  // too, or the testbench reads the other tenant's value.
  const auto hold = [](std::uint64_t v) {
    return [v](Engine& sim, const PipeChain& chain, SystemCycle cycles) {
      std::uint64_t skipped = 0;
      for (SystemCycle i = 0; i < cycles; ++i) {
        sim.set_external_input(chain.x, val(16, v));
        skipped += sim.step().skipped_blocks;
      }
      return skipped;
    };
  };
  for (const SchedulerKind kind :
       {SchedulerKind::kRoundRobin, SchedulerKind::kCompiled}) {
    SCOPED_TRACE(scheduler_kind_name(kind));
    PipeChain a_chain;
    SequentialSimulator a(a_chain.model, SchedulePolicy::kDynamic, 64, 1,
                          kind);
    hold(0x111)(a, a_chain, 6);
    const EngineCheckpoint ck = save_checkpoint(a);

    PipeChain b_chain;
    SequentialSimulator b(b_chain.model, SchedulePolicy::kDynamic, 64, 1,
                          kind);
    hold(0x222)(b, b_chain, 6);
    restore_checkpoint(b, ck);
    hold(0x111)(a, a_chain, 2);
    const std::uint64_t skipped = hold(0x111)(b, b_chain, 2);
    if (keeps_quiescence_flags(kind)) {
      // The restored engine really did skip blocks (P2 and P3: only P1's
      // input moved, back from 0x222), so the links below are the
      // restored snapshot, not a re-evaluation.
      EXPECT_GT(skipped, 0u);
    }
    for (const LinkId link : {b_chain.l1, b_chain.l2, b_chain.l3}) {
      EXPECT_EQ(b.link_word(link), a.link_word(link))
          << b_chain.model.link(link).name;
    }
  }
}

TEST(SchedulerCheckpoint, RestoredEngineHoldsTheExternalInputs) {
  // P1's quiescence flags were proven against X = 0x111. The engine
  // restored onto last held X = 0x222; if it kept that value, driving
  // 0x222 again would raise no change event there, the gate would skip
  // P1, and P1 would keep 0x111 where the uninterrupted run moves to
  // 0x222. The snapshot carries X, so both runs see the change.
  for (const SchedulerKind kind :
       {SchedulerKind::kRoundRobin, SchedulerKind::kCompiled}) {
    SCOPED_TRACE(scheduler_kind_name(kind));
    const auto hold = [](Engine& sim, const PipeChain& chain,
                         std::uint64_t v, SystemCycle cycles) {
      for (SystemCycle i = 0; i < cycles; ++i) {
        sim.set_external_input(chain.x, val(16, v));
        sim.step();
      }
    };
    PipeChain a_chain;
    SequentialSimulator a(a_chain.model, SchedulePolicy::kDynamic, 64, 1,
                          kind);
    hold(a, a_chain, 0x111, 6);
    const EngineCheckpoint ck = save_checkpoint(a);

    PipeChain b_chain;
    SequentialSimulator b(b_chain.model, SchedulePolicy::kDynamic, 64, 1,
                          kind);
    hold(b, b_chain, 0x222, 6);
    restore_checkpoint(b, ck);
    EXPECT_EQ(b.link_word(b_chain.x), 0x111u);
    hold(a, a_chain, 0x222, 3);
    hold(b, b_chain, 0x222, 3);
    EXPECT_EQ(engine_state_digest(b), engine_state_digest(a));
    EXPECT_EQ(b.block_state(0).get_field(0, 16), 0x222u);
  }
}

TEST(SchedulerCheckpoint, TamperedLinkSnapshotIsRejected) {
  PipeChain chain;
  SequentialSimulator sim(chain.model, SchedulePolicy::kDynamic, 64, 1,
                          SchedulerKind::kCompiled);
  drive(sim, chain, 5);
  EngineCheckpoint ck = save_checkpoint(sim);
  ASSERT_FALSE(ck.link_ids.empty());
  ck.link_values[0] = val(16, 0xbad);
  EXPECT_THROW(restore_checkpoint(sim, ck), std::exception);
}

/// link_digest covers the snapshot's values, not its ids, so a
/// checkpoint whose id list was damaged in flight still passes every
/// digest. restore_checkpoint must check the ids against the model and
/// load nothing when they differ.
void expect_link_ids_rejected(void (*damage)(EngineCheckpoint&,
                                             const PipeChain&)) {
  PipeChain chain;
  SequentialSimulator sim(chain.model, SchedulePolicy::kDynamic, 64, 1,
                          SchedulerKind::kCompiled);
  drive(sim, chain, 5);
  EngineCheckpoint ck = save_checkpoint(sim);
  ASSERT_EQ(ck.link_ids,
            (std::vector<LinkId>{chain.x, chain.l1, chain.l2, chain.l3}));
  damage(ck, chain);
  SequentialSimulator fresh(chain.model, SchedulePolicy::kDynamic, 64, 1,
                            SchedulerKind::kCompiled);
  const std::uint64_t power_on = engine_state_digest(fresh);
  EXPECT_THROW(restore_checkpoint(fresh, ck), ContextualError);
  EXPECT_EQ(fresh.cycle(), 0u);
  EXPECT_EQ(engine_state_digest(fresh), power_on);
}

TEST(SchedulerCheckpoint, OutOfRangeSnapshotLinkIdIsRejected) {
  expect_link_ids_rejected([](EngineCheckpoint& ck, const PipeChain& chain) {
    ck.link_ids[1] = static_cast<LinkId>(chain.model.num_links() + 3);
  });
}

TEST(SchedulerCheckpoint, SwappedSnapshotLinkIdsAreRejected) {
  expect_link_ids_rejected([](EngineCheckpoint& ck, const PipeChain&) {
    std::swap(ck.link_ids[0], ck.link_ids[1]);
  });
}

TEST(SchedulerCheckpoint, LegacyCheckpointWithoutSnapshotCanonicalizes) {
  // A hand-built checkpoint (no link snapshot, no scheduler state) must
  // restore like a power-on engine at that state: accepted, and the
  // scheduler starts from canonical cursors/flags.
  PipeChain chain;
  SequentialSimulator sim(chain.model, SchedulePolicy::kDynamic, 64, 1,
                          SchedulerKind::kCompiled);
  // A held input: by the checkpoint every block is quiescent.
  const auto hold = [&](Engine& e, SystemCycle cycles) {
    StepStats last;
    for (SystemCycle i = 0; i < cycles; ++i) {
      e.set_external_input(chain.x, val(16, 0x123));
      last = e.step();
    }
    return last;
  };
  ASSERT_EQ(hold(sim, 6).skipped_blocks, 3u);
  EngineCheckpoint ck = save_checkpoint(sim);
  ck.link_ids.clear();
  ck.link_values.clear();
  ck.link_digest = 0;
  ck.sched = SchedulerCheckpoint{};
  SequentialSimulator fresh(chain.model, SchedulePolicy::kDynamic, 64, 1,
                            SchedulerKind::kCompiled);
  restore_checkpoint(fresh, ck);  // must not throw
  EXPECT_EQ(fresh.cycle(), 6u);
  // Without restored link values the quiescence flags were cleared, so
  // the first resumed cycle evaluates every block, skipping none,
  // where the uninterrupted run skips all three — and results stay
  // bit-identical to the uninterrupted run.
  EXPECT_EQ(hold(sim, 1).skipped_blocks, 3u);
  const StepStats first = hold(fresh, 1);
  EXPECT_EQ(first.skipped_blocks, 0u);
  EXPECT_GE(first.delta_cycles, 3u);
  for (const LinkId link : {chain.l1, chain.l2, chain.l3}) {
    EXPECT_EQ(fresh.link_word(link), sim.link_word(link));
  }
  drive(sim, chain, 4);
  drive(fresh, chain, 4);
  EXPECT_EQ(engine_state_digest(fresh), engine_state_digest(sim));
}

TEST(EngineCheckpoint, ScheduleRrOffsetCanonicalBehaviour) {
  // Seed 1 is the canonical schedule: offset 0, so default-constructed
  // engines keep their historical evaluation order (and the farm's
  // cached engines all share it).
  for (const std::size_t n : {1u, 5u, 64u}) {
    EXPECT_EQ(schedule_rr_offset(1, n), 0u);
  }
  EXPECT_EQ(schedule_rr_offset(12345, 0), 0u);
  std::set<std::size_t> offsets;
  for (std::uint64_t seed = 2; seed < 40; ++seed) {
    const std::size_t off = schedule_rr_offset(seed, 64);
    EXPECT_LT(off, 64u);
    EXPECT_EQ(schedule_rr_offset(seed, 64), off);  // deterministic
    offsets.insert(off);
  }
  EXPECT_GT(offsets.size(), 8u);  // seeds actually spread the cursor
}

}  // namespace
}  // namespace tmsim::core

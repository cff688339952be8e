// Differential proof that SchedulerKind::kCompiled honours the engine
// contract on the topologies the static schedule treats specially:
//
//  * a true combinational cycle (an OR latch), where the compiled
//    schedule runs its scoped kSettle fallback, checked against the
//    round-robin engine from two cursor starts;
//  * a non-settling cycle (a NOT self-loop), where compiled must fail
//    with the same structured ConvergenceError as the reference
//    scheduler.
//
//  * the activity gate on a model with a settle region and a registered
//    stage — the settle runs its members every cycle and the gate never
//    skips a block on a registered link — next to blocks it does skip;
//  * a settle-region member with its own later kEval (an input from
//    downstream of the region), whose kEval the gate skips only while
//    that input holds.
//
// OR is monotone and every settled cycle ends with the latch halves
// equal, so the per-cycle fixed point is evaluation-order independent:
// every engine/scheduler pair must produce bit-identical link values and
// block states, cycle by cycle.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/example_blocks.h"
#include "core/sequential_simulator.h"
#include "core/system_model.h"

namespace tmsim::core {
namespace {

using examples::CombAdderBlock;
using examples::NotBlock;
using examples::Or2Block;
using examples::PipeBlock;
using examples::RegAdderBlock;
using examples::Xor2Block;

BitVector val(std::size_t width, std::uint64_t v) {
  BitVector bv(width);
  bv.set_field(0, width, v);
  return bv;
}

/// Two Or2 blocks latched head-to-tail (a true combinational SCC), each
/// seeded through a PipeBlock from an external input, with a CombAdder
/// hanging off the latch so the settled value must also flow onward.
/// With `register_stage`, c's output also feeds r, which drives the
/// registered link lr into the pipe q.
struct OrLatchModel {
  explicit OrLatchModel(bool register_stage = false) {
    p0 = model.add_block(std::make_shared<PipeBlock>(16, 0), "p0");
    p1 = model.add_block(std::make_shared<PipeBlock>(16, 0), "p1");
    a = model.add_block(std::make_shared<Or2Block>(16), "a");
    b = model.add_block(std::make_shared<Or2Block>(16), "b");
    c = model.add_block(std::make_shared<CombAdderBlock>(16, 5), "c");
    ext0 = model.add_link("ext0", 16, LinkKind::kCombinational);
    ext1 = model.add_link("ext1", 16, LinkKind::kCombinational);
    pa = model.add_link("pa", 16, LinkKind::kCombinational);
    pb = model.add_link("pb", 16, LinkKind::kCombinational);
    lab = model.add_link("lab", 16, LinkKind::kCombinational);
    lba = model.add_link("lba", 16, LinkKind::kCombinational);
    la1 = model.add_link("la1", 16, LinkKind::kCombinational);
    lc = model.add_link("lc", 16, LinkKind::kCombinational);
    lb1 = model.add_link("lb1", 16, LinkKind::kCombinational);
    model.bind_input(p0, 0, ext0);
    model.bind_output(p0, 0, pa);
    model.bind_input(p1, 0, ext1);
    model.bind_output(p1, 0, pb);
    model.bind_input(a, 0, lba);
    model.bind_input(a, 1, pa);
    model.bind_output(a, 0, lab);
    model.bind_output(a, 1, la1);
    model.bind_input(b, 0, lab);
    model.bind_input(b, 1, pb);
    model.bind_output(b, 0, lba);
    model.bind_output(b, 1, lb1);
    model.bind_input(c, 0, la1);
    model.bind_output(c, 0, lc);
    if (register_stage) {
      r = model.add_block(std::make_shared<RegAdderBlock>(16, 3), "r");
      q = model.add_block(std::make_shared<PipeBlock>(16, 7), "q");
      lr = model.add_link("lr", 16, LinkKind::kRegistered);
      lq = model.add_link("lq", 16, LinkKind::kCombinational);
      model.bind_input(r, 0, lc);
      model.bind_output(r, 0, lr);
      model.bind_input(q, 0, lr);
      model.bind_output(q, 0, lq);
    }
    model.finalize();
  }
  SystemModel model;
  BlockId p0 = 0, p1 = 0, a = 0, b = 0, c = 0, r = 0, q = 0;
  LinkId ext0 = 0, ext1 = 0, pa = 0, pb = 0;
  LinkId lab = 0, lba = 0, la1 = 0, lc = 0, lb1 = 0, lr = 0, lq = 0;
};

TEST(CompiledEquivalence, OrLatchSccIsBitIdenticalAcrossAllEngines) {
  OrLatchModel m;

  SequentialSimulator ref(m.model, SchedulePolicy::kDynamic);
  SequentialSimulator cp(m.model, SchedulePolicy::kDynamic, 64, 1,
                         SchedulerKind::kCompiled);

  // The compiled build must actually have seen the cycle.
  ASSERT_NE(cp.compiled_schedule(), nullptr);
  EXPECT_FALSE(cp.compiled_schedule()->acyclic());
  ASSERT_EQ(cp.compiled_schedule()->sccs.size(), 1u);
  EXPECT_EQ(cp.compiled_schedule()->sccs[0].blocks,
            (std::vector<BlockId>{m.a, m.b}));

  // The round-robin pickup from another cursor start evaluates the
  // latch halves in another order and must still agree.
  SequentialSimulator rr_seeded(m.model, SchedulePolicy::kDynamic, 64, 7);

  std::vector<Engine*> engines = {&ref, &cp, &rr_seeded};

  SplitMix64 rng(0xbeef);
  for (int cycle = 0; cycle < 30; ++cycle) {
    const std::uint64_t s0 = rng.next() & 0xffff;
    const std::uint64_t s1 = rng.next() & 0xffff;
    for (Engine* e : engines) {
      e->set_external_input(m.ext0, val(16, s0));
      e->set_external_input(m.ext1, val(16, s1));
      e->step();
    }
    for (LinkId l = 0; l < m.model.num_links(); ++l) {
      for (Engine* e : engines) {
        EXPECT_EQ(e->link_value(l), ref.link_value(l))
            << "cycle " << cycle << " link " << m.model.link(l).name;
      }
    }
    for (Engine* e : engines) {
      EXPECT_EQ(engine_state_digest(*e), engine_state_digest(ref))
          << "cycle " << cycle;
    }
  }
}

TEST(CompiledEquivalence, GateNeverSkipsSettleOrRegisteredBlocks) {
  // Inputs hold for several cycles at a time, so the pipes p0/p1 and the
  // adder c go quiescent and the gate skips them. The latch members a
  // and b settle every cycle, and r and q touch the registered link lr,
  // so those four are evaluated every cycle whatever the flags say.
  OrLatchModel m(/*register_stage=*/true);
  SequentialSimulator ref(m.model, SchedulePolicy::kDynamic);
  SequentialSimulator cp(m.model, SchedulePolicy::kDynamic, 64, 1,
                         SchedulerKind::kCompiled);
  ASSERT_EQ(cp.compiled_schedule()->sccs.size(), 1u);
  std::set<BlockId> evaluated;
  cp.set_trace_hook([&](SystemCycle, DeltaCycle, BlockId blk) {
    evaluated.insert(blk);
  });

  SplitMix64 rng(0x9a7e);
  std::uint64_t s0 = 0, s1 = 0, skipped = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    if (cycle % 6 == 0) {
      s0 = rng.next() & 0xffff;
      s1 = rng.next() & 0xffff;
    }
    evaluated.clear();
    for (SequentialSimulator* e : {&ref, &cp}) {
      e->set_external_input(m.ext0, val(16, s0));
      e->set_external_input(m.ext1, val(16, s1));
    }
    ref.step();
    skipped += cp.step().skipped_blocks;
    for (const BlockId blk : {m.a, m.b, m.r, m.q}) {
      EXPECT_TRUE(evaluated.count(blk))
          << "cycle " << cycle << ": " << m.model.block(blk).name
          << " skipped";
    }
    for (LinkId l = 0; l < m.model.num_links(); ++l) {
      EXPECT_EQ(cp.link_value(l), ref.link_value(l))
          << "cycle " << cycle << " link " << m.model.link(l).name;
    }
    EXPECT_EQ(engine_state_digest(cp), engine_state_digest(ref))
        << "cycle " << cycle;
  }
  // The gate did fire — on p0, p1 and c, the only blocks it may skip.
  EXPECT_GT(skipped, 0u);
}

/// An OR-latch half that also captures a third input into its state:
/// out0 = out1 = in0 | in1 (the latch), out2 = state, state' = in2. G
/// never reads in2, so a block downstream of the latch can drive in2
/// without joining the cycle, which gives this latch member its own
/// kEval after the settle.
class LatchCaptureBlock : public SimBlock {
 public:
  std::size_t state_width() const override { return 16; }
  std::size_t num_inputs() const override { return 3; }
  std::size_t input_width(std::size_t) const override { return 16; }
  std::size_t num_outputs() const override { return 3; }
  std::size_t output_width(std::size_t) const override { return 16; }
  BitVector reset_state() const override { return BitVector(16); }

  void evaluate(const BitVector& old_state, std::span<const BitVector> in,
                BitVector& new_state,
                std::span<BitVector> out) const override {
    const std::uint64_t v = in[0].get_field(0, 16) | in[1].get_field(0, 16);
    out[0].set_field(0, 16, v);
    out[1].set_field(0, 16, v);
    out[2].set_field(0, 16, old_state.get_field(0, 16));
    new_state.set_field(0, 16, in[2].get_field(0, 16));
  }
  std::string type_name() const override { return "latch_capture"; }

  bool output_depends_on_input(std::size_t out, std::size_t in) const override {
    return out < 2 && in < 2;
  }
};

TEST(CompiledEquivalence, SettleMemberWithALaterEvalIsGatedSoundly) {
  // The latch {a, b} settles first; c, downstream of it, mixes the
  // latch with the external ext2 and drives a's capture input lc, so a
  // is not committed by the settle and gets a kEval after c. While the
  // inputs hold, that kEval is skipped like any other; when ext2 changes
  // lc changes after the settle and the kEval must run, or a commits the
  // stale capture its settle evaluation saw.
  SystemModel model;
  const BlockId p0 = model.add_block(std::make_shared<PipeBlock>(16, 0), "p0");
  const BlockId p1 = model.add_block(std::make_shared<PipeBlock>(16, 0), "p1");
  const BlockId a = model.add_block(std::make_shared<LatchCaptureBlock>(), "a");
  const BlockId b = model.add_block(std::make_shared<Or2Block>(16), "b");
  const BlockId c = model.add_block(std::make_shared<Xor2Block>(16, 0x5a5a), "c");
  const auto link = [&](const char* name) {
    return model.add_link(name, 16, LinkKind::kCombinational);
  };
  const LinkId ext0 = link("ext0"), ext1 = link("ext1"), ext2 = link("ext2");
  const LinkId pa = link("pa"), pb = link("pb"), lab = link("lab");
  const LinkId lba = link("lba"), la1 = link("la1"), ls = link("ls");
  const LinkId lb1 = link("lb1"), lc = link("lc"), lc1 = link("lc1");
  model.bind_input(p0, 0, ext0);
  model.bind_output(p0, 0, pa);
  model.bind_input(p1, 0, ext1);
  model.bind_output(p1, 0, pb);
  model.bind_input(a, 0, lba);
  model.bind_input(a, 1, pa);
  model.bind_input(a, 2, lc);
  model.bind_output(a, 0, lab);
  model.bind_output(a, 1, la1);
  model.bind_output(a, 2, ls);
  model.bind_input(b, 0, lab);
  model.bind_input(b, 1, pb);
  model.bind_output(b, 0, lba);
  model.bind_output(b, 1, lb1);
  model.bind_input(c, 0, la1);
  model.bind_input(c, 1, ext2);
  model.bind_output(c, 0, lc);
  model.bind_output(c, 1, lc1);
  model.finalize();

  SequentialSimulator ref(model, SchedulePolicy::kDynamic);
  SequentialSimulator cp(model, SchedulePolicy::kDynamic, 64, 1,
                         SchedulerKind::kCompiled);
  const analysis::CompiledSchedule& prog = *cp.compiled_schedule();
  ASSERT_EQ(prog.sccs.size(), 1u);
  EXPECT_EQ(prog.sccs[0].blocks, (std::vector<BlockId>{a, b}));
  EXPECT_EQ(prog.sccs[0].committed_blocks, (std::vector<BlockId>{b}));
  // a's own kEval comes after the settle and after c's kEval.
  std::size_t settle_at = prog.ops.size(), c_at = prog.ops.size();
  std::size_t a_at = prog.ops.size();
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    const analysis::CompiledOp& op = prog.ops[i];
    if (op.kind == analysis::CompiledOpKind::kSettle) {
      settle_at = i;
    } else if (op.kind == analysis::CompiledOpKind::kEval) {
      c_at = op.block == c ? i : c_at;
      a_at = op.block == a ? i : a_at;
    }
  }
  ASSERT_LT(a_at, prog.ops.size());
  EXPECT_LT(settle_at, c_at);
  EXPECT_LT(c_at, a_at);

  SplitMix64 rng(0x5e77);
  std::uint64_t s0 = 0, s1 = 0, s2 = 0;
  std::size_t all_skipped = 0, a_ran_after_c = 0;
  for (int cycle = 0; cycle < 80; ++cycle) {
    if (cycle % 5 == 0) {
      // Sparse latch seeds, so the latch does not saturate at once.
      s0 = std::uint64_t{1} << rng.next_below(16);
      s1 = cycle % 20 == 0 ? std::uint64_t{1} << rng.next_below(16) : s1;
      s2 = rng.next() & 0xffff;
    }
    std::vector<BlockId> order;
    cp.set_trace_hook([&](SystemCycle, DeltaCycle, BlockId blk) {
      order.push_back(blk);
    });
    for (SequentialSimulator* e : {&ref, &cp}) {
      e->set_external_input(ext0, val(16, s0));
      e->set_external_input(ext1, val(16, s1));
      e->set_external_input(ext2, val(16, s2));
    }
    ref.step();
    const StepStats st = cp.step();
    all_skipped += st.skipped_blocks == prog.num_evals ? 1 : 0;
    const auto c_pos = std::find(order.begin(), order.end(), c);
    a_ran_after_c += c_pos != order.end() &&
                     std::find(c_pos, order.end(), a) != order.end();
    for (LinkId l = 0; l < model.num_links(); ++l) {
      EXPECT_EQ(cp.link_value(l), ref.link_value(l))
          << "cycle " << cycle << " link " << model.link(l).name;
    }
    EXPECT_EQ(engine_state_digest(cp), engine_state_digest(ref))
        << "cycle " << cycle;
  }
  // Both sides of the gate were exercised: cycles where every kEval,
  // a's included, was skipped, and cycles where a's kEval ran after c.
  EXPECT_GT(all_skipped, 0u);
  EXPECT_GT(a_ran_after_c, 0u);
}

TEST(CompiledEquivalence, OrSelfLoopSettlesUnderCompiled) {
  // A monotone self-loop: or2 a with out0 looped back to in0. Compiled
  // confines it to a one-block settle region and converges (x = x | ext
  // is a fixed point after one round).
  SystemModel model;
  const BlockId a = model.add_block(std::make_shared<Or2Block>(8), "a");
  const LinkId loop = model.add_link("loop", 8, LinkKind::kCombinational);
  const LinkId ext = model.add_link("ext", 8, LinkKind::kCombinational);
  const LinkId out = model.add_link("out", 8, LinkKind::kCombinational);
  model.bind_output(a, 0, loop);
  model.bind_input(a, 0, loop);
  model.bind_input(a, 1, ext);
  model.bind_output(a, 1, out);
  model.finalize();

  SequentialSimulator cp(model, SchedulePolicy::kDynamic, 64, 1,
                         SchedulerKind::kCompiled);
  SequentialSimulator rr(model, SchedulePolicy::kDynamic);
  cp.set_external_input(ext, val(8, 0x21));
  rr.set_external_input(ext, val(8, 0x21));
  cp.step();
  rr.step();
  EXPECT_EQ(cp.link_value(out), val(8, 0x21));
  EXPECT_EQ(cp.link_value(out), rr.link_value(out));
}

TEST(CompiledEquivalence, NonSettlingLoopFailsStructurallyUnderCompiled) {
  // NOT self-loop: oscillates forever. The reference scheduler and the
  // compiled settle fallback must both convert the spin into the same
  // structured report, never a hang.
  SystemModel model;
  const BlockId a = model.add_block(std::make_shared<NotBlock>(), "a");
  const LinkId aa = model.add_link("aa", 1, LinkKind::kCombinational);
  model.bind_output(a, 0, aa);
  model.bind_input(a, 0, aa);
  model.finalize();

  auto trip = [](Engine& eng) {
    try {
      eng.step();
    } catch (const ConvergenceError& e) {
      return e.report();
    }
    ADD_FAILURE() << "oscillating loop did not trip";
    return ConvergenceReport{};
  };

  SequentialSimulator rr(model, SchedulePolicy::kDynamic, 16);
  SequentialSimulator cp(model, SchedulePolicy::kDynamic, 16, 1,
                         SchedulerKind::kCompiled);
  const ConvergenceReport r1 = trip(rr);
  const ConvergenceReport r2 = trip(cp);
  EXPECT_EQ(r1.cycle, r2.cycle);
  EXPECT_EQ(r1.limit, r2.limit);
  EXPECT_EQ(r1.num_blocks, r2.num_blocks);
  EXPECT_EQ(r1.oscillating_blocks, r2.oscillating_blocks);
  ASSERT_FALSE(r2.oscillating_blocks.empty());
  EXPECT_EQ(r2.oscillating_blocks[0], a);
}

}  // namespace
}  // namespace tmsim::core

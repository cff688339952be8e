#include "core/sequential_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/example_blocks.h"

namespace tmsim::core {
namespace {

using examples::CombAdderBlock;
using examples::NotBlock;
using examples::Or2Block;
using examples::PipeBlock;
using examples::RegAdderBlock;

BitVector val(std::size_t width, std::uint64_t v) {
  BitVector b(width);
  b.set_field(0, width, v);
  return b;
}

/// Fig. 2/3 system: three registered blocks in a ring. R_{i} links hold
/// the boundary registers; block i computes R_i' = R_{i-1} + addend_i.
struct RegRing {
  RegRing(std::uint64_t a1, std::uint64_t a2, std::uint64_t a3) {
    const BlockId b1 = model.add_block(std::make_shared<RegAdderBlock>(16, a1),
                                       "F1");
    const BlockId b2 = model.add_block(std::make_shared<RegAdderBlock>(16, a2),
                                       "F2");
    const BlockId b3 = model.add_block(std::make_shared<RegAdderBlock>(16, a3),
                                       "F3");
    r1 = model.add_link("R1", 16, LinkKind::kRegistered);
    r2 = model.add_link("R2", 16, LinkKind::kRegistered);
    r3 = model.add_link("R3", 16, LinkKind::kRegistered);
    // F1: R3 → R1, F2: R1 → R2, F3: R2 → R3 (a cyclic system, like the
    // paper's example in Fig. 2a).
    model.bind_input(b1, 0, r3);
    model.bind_output(b1, 0, r1);
    model.bind_input(b2, 0, r1);
    model.bind_output(b2, 0, r2);
    model.bind_input(b3, 0, r2);
    model.bind_output(b3, 0, r3);
    model.finalize();
  }
  SystemModel model;
  LinkId r1 = 0, r2 = 0, r3 = 0;
};

TEST(StaticSchedule, RegisteredRingMatchesHandComputedValues) {
  RegRing ring(1, 10, 100);
  SequentialSimulator sim(ring.model, SchedulePolicy::kStatic);
  // Reference model: r1' = r3+1, r2' = r1+10, r3' = r2+100, all in
  // parallel from the previous cycle's values.
  std::uint64_t r1 = 0, r2 = 0, r3 = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    const StepStats st = sim.step();
    EXPECT_EQ(st.delta_cycles, 3u);
    EXPECT_EQ(st.re_evaluations, 0u);
    const std::uint64_t n1 = (r3 + 1) & 0xffff;
    const std::uint64_t n2 = (r1 + 10) & 0xffff;
    const std::uint64_t n3 = (r2 + 100) & 0xffff;
    r1 = n1;
    r2 = n2;
    r3 = n3;
    ASSERT_EQ(sim.link_value(ring.r1).get_field(0, 16), r1) << cycle;
    ASSERT_EQ(sim.link_value(ring.r2).get_field(0, 16), r2) << cycle;
    ASSERT_EQ(sim.link_value(ring.r3).get_field(0, 16), r3) << cycle;
  }
}

TEST(StaticSchedule, DynamicPolicyGivesIdenticalResultsOnRegisteredRing) {
  // §4.1 order-independence: the dynamic engine on a registered design
  // must produce the same trajectory with the same delta-cycle count
  // (no boundary can change after being read).
  RegRing a(3, 5, 7), b(3, 5, 7);
  SequentialSimulator s_static(a.model, SchedulePolicy::kStatic);
  SequentialSimulator s_dyn(b.model, SchedulePolicy::kDynamic);
  for (int cycle = 0; cycle < 50; ++cycle) {
    s_static.step();
    const StepStats st = s_dyn.step();
    EXPECT_EQ(st.re_evaluations, 0u);
    for (LinkId l : {a.r1, a.r2, a.r3}) {
      ASSERT_EQ(s_static.link_value(l), s_dyn.link_value(l)) << cycle;
    }
  }
}

TEST(StaticSchedule, RunsTheCompiledProgramAndNoOtherScheduler) {
  // kStatic is the compiled program of a registered-only model, so the
  // scheduler argument may be left at its default or name kCompiled;
  // either way the engine replays the one-pass program.
  RegRing ring(1, 10, 100);
  SequentialSimulator by_default(ring.model, SchedulePolicy::kStatic);
  SequentialSimulator named(ring.model, SchedulePolicy::kStatic, 64, 1,
                            SchedulerKind::kCompiled);
  EXPECT_NE(by_default.compiled_schedule(), nullptr);
  EXPECT_NE(named.compiled_schedule(), nullptr);
}

TEST(StaticSchedule, RejectsCombinationalBoundaries) {
  SystemModel m;
  auto blk = std::make_shared<CombAdderBlock>(8, 1);
  const BlockId a = m.add_block(blk, "a");
  const BlockId b = m.add_block(blk, "b");
  const LinkId in = m.add_link("in", 8, LinkKind::kCombinational);
  const LinkId mid = m.add_link("mid", 8, LinkKind::kCombinational);
  const LinkId out = m.add_link("out", 8, LinkKind::kCombinational);
  m.bind_input(a, 0, in);
  m.bind_output(a, 0, mid);
  m.bind_input(b, 0, mid);
  m.bind_output(b, 0, out);
  m.finalize();
  EXPECT_THROW(SequentialSimulator(m, SchedulePolicy::kStatic), Error);
  SequentialSimulator ok(m, SchedulePolicy::kDynamic);  // fine
}

/// Fig. 4/5 system: ring of three PipeBlocks over combinational links.
struct PipeRing {
  explicit PipeRing(std::vector<std::uint64_t> resets) {
    for (std::size_t i = 0; i < 3; ++i) {
      blocks.push_back(model.add_block(
          std::make_shared<PipeBlock>(16, 1, resets[i]),
          "P" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < 3; ++i) {
      links.push_back(model.add_link("L" + std::to_string(i), 16,
                                     LinkKind::kCombinational));
    }
    // Block i drives link i; block (i+1)%3 reads link i.
    for (std::size_t i = 0; i < 3; ++i) {
      model.bind_output(blocks[i], 0, links[i]);
      model.bind_input(blocks[(i + 1) % 3], 0, links[i]);
    }
    model.finalize();
  }
  SystemModel model;
  std::vector<BlockId> blocks;
  std::vector<LinkId> links;
};

TEST(DynamicSchedule, CombinationalRingMatchesReference) {
  PipeRing ring({5, 20, 90});
  SequentialSimulator sim(ring.model, SchedulePolicy::kDynamic);
  // Reference: out_i = s_i + 1 (combinational, current cycle);
  // s_i(t+1) = out_{i-1}(t).
  std::uint64_t s[3] = {5, 20, 90};
  for (int cycle = 0; cycle < 30; ++cycle) {
    sim.step();
    std::uint64_t out[3];
    for (int i = 0; i < 3; ++i) out[i] = (s[i] + 1) & 0xffff;
    for (int i = 0; i < 3; ++i) s[i] = out[(i + 2) % 3];
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(sim.link_value(ring.links[i]).get_field(0, 16), out[i])
          << "cycle " << cycle << " link " << i;
      ASSERT_EQ(sim.block_state(ring.blocks[i]).get_field(0, 16), s[i])
          << "cycle " << cycle << " block " << i;
    }
  }
}

TEST(DynamicSchedule, StateOnlyOutputsNeedAtMostOneReEvalPerBlock) {
  PipeRing ring({1, 2, 3});
  SequentialSimulator sim(ring.model, SchedulePolicy::kDynamic);
  for (int cycle = 0; cycle < 30; ++cycle) {
    const StepStats st = sim.step();
    EXPECT_GE(st.delta_cycles, 3u);
    EXPECT_LE(st.delta_cycles, 6u);
  }
}

TEST(DynamicSchedule, EveryBlockEvaluatedAtLeastOncePerCycle) {
  // "it is guaranteed that all routers are evaluated at least once" —
  // even a completely idle system pays one delta cycle per block.
  PipeRing ring({0, 0, 0});
  SequentialSimulator sim(ring.model, SchedulePolicy::kDynamic);
  std::vector<int> evals(3, 0);
  sim.set_trace_hook([&](SystemCycle, DeltaCycle, BlockId b) { ++evals[b]; });
  sim.step();
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(evals[i], 1);
  }
}

TEST(DynamicSchedule, CombChainPropagatesWithinOneSystemCycle) {
  // in → +1 → +2 → +3 → out, blocks deliberately evaluated in the worst
  // order (the chain tail first, due to round-robin from block 0).
  SystemModel m;
  const BlockId c = m.add_block(std::make_shared<CombAdderBlock>(8, 3), "c");
  const BlockId b = m.add_block(std::make_shared<CombAdderBlock>(8, 2), "b");
  const BlockId a = m.add_block(std::make_shared<CombAdderBlock>(8, 1), "a");
  const LinkId in = m.add_link("in", 8, LinkKind::kCombinational);
  const LinkId ab = m.add_link("ab", 8, LinkKind::kCombinational);
  const LinkId bc = m.add_link("bc", 8, LinkKind::kCombinational);
  const LinkId out = m.add_link("out", 8, LinkKind::kCombinational);
  m.bind_input(a, 0, in);
  m.bind_output(a, 0, ab);
  m.bind_input(b, 0, ab);
  m.bind_output(b, 0, bc);
  m.bind_input(c, 0, bc);
  m.bind_output(c, 0, out);
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic);
  sim.set_external_input(in, val(8, 10));
  StepStats st = sim.step();
  EXPECT_EQ(sim.link_value(out).get_field(0, 8), 16u);
  // Worst-case order c,b,a needs re-evaluations to converge.
  EXPECT_GE(st.delta_cycles, 3u);
  // A second cycle with the same input settles with no value changes on
  // the chain's internal links.
  st = sim.step();
  EXPECT_EQ(sim.link_value(out).get_field(0, 8), 16u);
  EXPECT_EQ(st.link_changes, 0u);
}

TEST(DynamicSchedule, TwoInverterRingSettlesToALatchState) {
  // Two cross-coupled inverters form a latch with two stable fixpoints,
  // not an oscillator — the engine must settle, not flag it.
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<NotBlock>(), "a");
  const BlockId b = m.add_block(std::make_shared<NotBlock>(), "b");
  const LinkId ab = m.add_link("ab", 1, LinkKind::kCombinational);
  const LinkId ba = m.add_link("ba", 1, LinkKind::kCombinational);
  m.bind_output(a, 0, ab);
  m.bind_input(b, 0, ab);
  m.bind_output(b, 0, ba);
  m.bind_input(a, 0, ba);
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic, /*max_evals=*/16);
  sim.step();
  EXPECT_NE(sim.link_value(ab).get_field(0, 1),
            sim.link_value(ba).get_field(0, 1));
}

TEST(DynamicSchedule, DetectsOscillatingRingOfThreeInverters) {
  // An odd inverter ring has no stable assignment: the HBR machinery
  // would re-evaluate forever; the engine must detect and report it.
  SystemModel m;
  std::vector<BlockId> blocks;
  std::vector<LinkId> links;
  for (int i = 0; i < 3; ++i) {
    blocks.push_back(
        m.add_block(std::make_shared<NotBlock>(), "n" + std::to_string(i)));
    links.push_back(m.add_link("l" + std::to_string(i), 1,
                               LinkKind::kCombinational));
  }
  for (int i = 0; i < 3; ++i) {
    m.bind_output(blocks[i], 0, links[i]);
    m.bind_input(blocks[(i + 1) % 3], 0, links[i]);
  }
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic, /*max_evals=*/16);
  EXPECT_THROW(sim.step(), Error);
}

TEST(DynamicSchedule, ConvergenceErrorCarriesAStructuredReport) {
  // The abort is not just a message: the thrown error exposes which
  // blocks were still unstable and which links changed last, so a host
  // can surface a diagnostic instead of an opaque limit trip.
  SystemModel m;
  std::vector<BlockId> blocks;
  std::vector<LinkId> links;
  for (int i = 0; i < 3; ++i) {
    blocks.push_back(
        m.add_block(std::make_shared<NotBlock>(), "n" + std::to_string(i)));
    links.push_back(m.add_link("l" + std::to_string(i), 1,
                               LinkKind::kCombinational));
  }
  for (int i = 0; i < 3; ++i) {
    m.bind_output(blocks[i], 0, links[i]);
    m.bind_input(blocks[(i + 1) % 3], 0, links[i]);
  }
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic, /*max_evals=*/16);
  try {
    sim.step();
    FAIL() << "oscillating ring must not settle";
  } catch (const ConvergenceError& e) {
    const ConvergenceReport& r = e.report();
    EXPECT_EQ(r.limit, 16u * 3u);
    EXPECT_GT(r.delta_cycles, r.limit);
    EXPECT_EQ(r.num_blocks, 3u);
    // In a ring the instability travels, so at the moment the budget ran
    // out at least one ring block is pending — and nothing else exists.
    ASSERT_FALSE(r.oscillating_blocks.empty());
    for (const BlockId b : r.oscillating_blocks) {
      EXPECT_TRUE(std::find(blocks.begin(), blocks.end(), b) !=
                  blocks.end());
    }
    // The recent-change ring saw the ring's links, newest first.
    ASSERT_FALSE(r.last_changed_links.empty());
    for (const LinkId l : r.last_changed_links) {
      EXPECT_TRUE(std::find(links.begin(), links.end(), l) != links.end());
    }
    // Key/value context and summary mention the essentials.
    EXPECT_FALSE(e.context_value("delta_cycles").empty());
    EXPECT_NE(r.summary().find("blocks"), std::string::npos);
    // Still a tmsim::Error for callers that catch coarsely.
    const Error& base = e;
    EXPECT_NE(std::string(base.what()).find("settle"), std::string::npos);
  }
}

TEST(DynamicSchedule, DetectsOscillatingSelfLoop) {
  // A block inverting its own output exercises the self-destabilization
  // path (a writer clearing the HBR bit of its own input link).
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<NotBlock>(), "a");
  const LinkId aa = m.add_link("aa", 1, LinkKind::kCombinational);
  m.bind_output(a, 0, aa);
  m.bind_input(a, 0, aa);
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic, /*max_evals=*/16);
  EXPECT_THROW(sim.step(), Error);
}

TEST(DynamicSchedule, SettlingCombinationalLoopConverges) {
  // A ring of two +0 adders is a combinational loop that *does* settle
  // (identity): the engine must terminate, not flag it.
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<CombAdderBlock>(4, 0), "a");
  const BlockId b = m.add_block(std::make_shared<CombAdderBlock>(4, 0), "b");
  const LinkId ab = m.add_link("ab", 4, LinkKind::kCombinational);
  const LinkId ba = m.add_link("ba", 4, LinkKind::kCombinational);
  m.bind_output(a, 0, ab);
  m.bind_input(b, 0, ab);
  m.bind_output(b, 0, ba);
  m.bind_input(a, 0, ba);
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic);
  const StepStats st = sim.step();
  EXPECT_LE(st.delta_cycles, 4u);
}

// ---------------------------------------------------------------------------
// §4.2 stability: a combinational link has one reader, so "its HBR bit is
// clear" and "its reader is unstable" are the same fact. These pin the
// pickup order the unstable bitmap produces on the three cases the HBR
// bits decided.
// ---------------------------------------------------------------------------

/// b0 (+1) reads b1's output, b1 (+writer_addend) reads the external
/// input: the sweep from cursor 0 evaluates the reader before its writer.
struct ReaderFirstPair {
  explicit ReaderFirstPair(std::uint64_t writer_addend) {
    const BlockId b0 = m.add_block(std::make_shared<CombAdderBlock>(8, 1), "b0");
    const BlockId b1 = m.add_block(
        std::make_shared<CombAdderBlock>(8, writer_addend), "b1");
    in = m.add_link("in", 8, LinkKind::kCombinational);
    const LinkId mid = m.add_link("mid", 8, LinkKind::kCombinational);
    out = m.add_link("out", 8, LinkKind::kCombinational);
    m.bind_input(b1, 0, in);
    m.bind_output(b1, 0, mid);
    m.bind_input(b0, 0, mid);
    m.bind_output(b0, 0, out);
    m.finalize();
  }
  SystemModel m;
  LinkId in = 0, out = 0;
};

/// The blocks one step() evaluates, in order.
std::vector<BlockId> traced_step(SequentialSimulator& sim, StepStats* st) {
  std::vector<BlockId> order;
  sim.set_trace_hook(
      [&](SystemCycle, DeltaCycle, BlockId b) { order.push_back(b); });
  *st = sim.step();
  sim.set_trace_hook(nullptr);
  return order;
}

TEST(DynamicSchedule, ReaderEvaluatedBeforeItsWriterChangesIsPickedAgain) {
  ReaderFirstPair pair(2);
  SequentialSimulator sim(pair.m, SchedulePolicy::kDynamic);
  sim.set_external_input(pair.in, val(8, 5));
  StepStats st;
  // b0 reads mid before b1 changes it (0 → 7): b0 is picked again.
  EXPECT_EQ(traced_step(sim, &st), (std::vector<BlockId>{0, 1, 0}));
  EXPECT_EQ(st.delta_cycles, 3u);
  EXPECT_EQ(st.re_evaluations, 1u);
  EXPECT_EQ(sim.link_value(pair.out).get_field(0, 8), 8u);
}

TEST(DynamicSchedule, SelfLoopWhoseOutputChangesPicksItselfAgain) {
  // a: or2 with out0 looped back to in0; b reads a's out1. a's first
  // evaluation changes its own input, so a is unstable again after b —
  // the case the old "inputs all read" re-check existed for.
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<Or2Block>(8), "a");
  const BlockId b = m.add_block(std::make_shared<CombAdderBlock>(8, 1), "b");
  const LinkId loop = m.add_link("loop", 8, LinkKind::kCombinational);
  const LinkId ext = m.add_link("ext", 8, LinkKind::kCombinational);
  const LinkId ab = m.add_link("ab", 8, LinkKind::kCombinational);
  const LinkId out = m.add_link("out", 8, LinkKind::kCombinational);
  m.bind_output(a, 0, loop);
  m.bind_input(a, 0, loop);
  m.bind_input(a, 1, ext);
  m.bind_output(a, 1, ab);
  m.bind_input(b, 0, ab);
  m.bind_output(b, 0, out);
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic);
  sim.set_external_input(ext, val(8, 0x21));
  StepStats st;
  EXPECT_EQ(traced_step(sim, &st), (std::vector<BlockId>{a, b, a}));
  EXPECT_EQ(st.re_evaluations, 1u);
  EXPECT_EQ(sim.link_value(loop).get_field(0, 8), 0x21u);
  EXPECT_EQ(sim.link_value(out).get_field(0, 8), 0x22u);
  // Settled: the sweep resumes at b, and a rewrites its loop unchanged
  // and picks nobody.
  EXPECT_EQ(traced_step(sim, &st), (std::vector<BlockId>{b, a}));
  EXPECT_EQ(st.link_changes, 0u);
}

TEST(DynamicSchedule, UnchangedWriteRePicksNobody) {
  // b0 reads mid (power-on 0) before b1 writes it; b1 computes 0 + 0 and
  // writes the value b0 already read, so nobody is picked again.
  ReaderFirstPair pair(0);
  SequentialSimulator sim(pair.m, SchedulePolicy::kDynamic);
  StepStats st;
  EXPECT_EQ(traced_step(sim, &st), (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(st.re_evaluations, 0u);
  EXPECT_EQ(st.link_changes, 1u);  // b0's out: 0 → 1
  EXPECT_EQ(traced_step(sim, &st), (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(st.re_evaluations, 0u);
  EXPECT_EQ(st.link_changes, 0u);
  EXPECT_EQ(sim.link_value(pair.out).get_field(0, 8), 1u);
}

/// Forwards everything to an inner block and logs (tag, width of the
/// `out` span) for every step() call, so a test sees which evaluations
/// were asked for the next state alone.
class SpanLogBlock : public SimBlock {
 public:
  using Log = std::vector<std::pair<int, std::size_t>>;
  SpanLogBlock(std::shared_ptr<const SimBlock> inner, int tag, Log* log)
      : inner_(std::move(inner)), tag_(tag), log_(log) {}

  std::size_t state_width() const override { return inner_->state_width(); }
  std::size_t num_inputs() const override { return inner_->num_inputs(); }
  std::size_t input_width(std::size_t p) const override {
    return inner_->input_width(p);
  }
  std::size_t num_outputs() const override { return inner_->num_outputs(); }
  std::size_t output_width(std::size_t p) const override {
    return inner_->output_width(p);
  }
  BitVector reset_state() const override { return inner_->reset_state(); }
  void evaluate(const BitVector& old_state, std::span<const BitVector> in,
                BitVector& new_state,
                std::span<BitVector> out) const override {
    inner_->evaluate(old_state, in, new_state, out);
  }
  std::unique_ptr<BlockState> make_state() const override {
    return inner_->make_state();
  }
  void step(const BlockState& old, std::span<const std::uint64_t> in,
            BlockState& next, std::span<std::uint64_t> out) const override {
    log_->emplace_back(tag_, out.size());
    inner_->step(old, in, next, out);
  }
  void drive(const BlockState& old, std::span<const std::uint64_t> in,
             std::span<std::uint64_t> out) const override {
    inner_->drive(old, in, out);
  }
  std::string type_name() const override { return inner_->type_name(); }
  bool output_depends_on_input(std::size_t out, std::size_t in) const override {
    return inner_->output_depends_on_input(out, in);
  }

 private:
  std::shared_ptr<const SimBlock> inner_;
  int tag_;
  Log* log_;
};

TEST(DynamicSchedule, ReEvaluationOfAStateOnlyBlockComputesTheNextStateAlone) {
  // Blocks 0..2: a ring of PipeBlocks (every output G(state)); blocks
  // 3..5: a ring of Or2Blocks (outputs follow the inputs), each fed by
  // an external input. Every block tags its log entries with its id.
  SpanLogBlock::Log log;
  SystemModel m;
  for (int i = 0; i < 3; ++i) {
    m.add_block(std::make_shared<SpanLogBlock>(
                    std::make_shared<PipeBlock>(16, 1, 10 * i), i, &log),
                "p" + std::to_string(i));
  }
  for (int i = 0; i < 3; ++i) {
    m.add_block(std::make_shared<SpanLogBlock>(std::make_shared<Or2Block>(16),
                                               3 + i, &log),
                "o" + std::to_string(i));
  }
  std::vector<LinkId> ext;
  for (BlockId i = 0; i < 3; ++i) {
    const LinkId pl = m.add_link("pl" + std::to_string(i), 16,
                                 LinkKind::kCombinational);
    m.bind_output(i, 0, pl);
    m.bind_input((i + 1) % 3, 0, pl);
    const LinkId ol = m.add_link("ol" + std::to_string(i), 16,
                                 LinkKind::kCombinational);
    m.bind_output(3 + i, 0, ol);
    m.bind_input(3 + (i + 1) % 3, 0, ol);
    ext.push_back(m.add_link("ext" + std::to_string(i), 16,
                             LinkKind::kCombinational));
    m.bind_input(3 + i, 1, ext.back());
    m.bind_output(3 + i, 1,
                  m.add_link("out" + std::to_string(i), 16,
                             LinkKind::kCombinational));
  }
  m.finalize();

  SequentialSimulator sim(m, SchedulePolicy::kDynamic);
  std::size_t pipe_reevals = 0;
  std::size_t or_reevals = 0;
  std::vector<StepStats> stats;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (std::size_t i = 0; i < 3; ++i) {
      sim.set_external_input(ext[i], val(16, 1u << ((cycle + 5 * i) % 16)));
    }
    log.clear();
    stats.push_back(sim.step());
    std::vector<char> seen(6, 0);
    for (const auto& [tag, width] : log) {
      const bool pipe = tag < 3;
      if (!seen[tag]) {
        // A first evaluation writes every output.
        EXPECT_EQ(width, pipe ? 1u : 2u) << "cycle " << cycle;
      } else if (pipe) {
        // Its outputs are G(old state), already written: F alone.
        EXPECT_EQ(width, 0u) << "cycle " << cycle;
        ++pipe_reevals;
      } else {
        // Its outputs follow the inputs that changed: F and G.
        EXPECT_EQ(width, 2u) << "cycle " << cycle;
        ++or_reevals;
      }
      seen[tag] = 1;
    }
  }
  EXPECT_GT(pipe_reevals, 0u);
  EXPECT_GT(or_reevals, 0u);
  // The schedule itself is untouched: these are the StepStats the sweep
  // produced when every evaluation rewrote every output.
  const std::vector<std::pair<DeltaCycle, std::size_t>> pinned = {
      {10, 13}, {10, 13}, {10, 13}, {10, 13}, {10, 13}, {10, 9}};
  ASSERT_EQ(stats.size(), pinned.size());
  for (std::size_t c = 0; c < stats.size(); ++c) {
    EXPECT_EQ(stats[c].delta_cycles, pinned[c].first) << "cycle " << c;
    EXPECT_EQ(stats[c].link_changes, pinned[c].second) << "cycle " << c;
    EXPECT_EQ(stats[c].re_evaluations, stats[c].delta_cycles - 6)
        << "cycle " << c;
  }
}

/// in → +1 → +2 → +3 → out over combinational links; stateless blocks,
/// so a constant input makes the whole network idle after one settling
/// cycle. Shared by the bookkeeping-audit tests below.
struct CombChain {
  CombChain() {
    const BlockId a = m.add_block(std::make_shared<CombAdderBlock>(8, 1), "a");
    const BlockId b = m.add_block(std::make_shared<CombAdderBlock>(8, 2), "b");
    const BlockId c = m.add_block(std::make_shared<CombAdderBlock>(8, 3), "c");
    in = m.add_link("in", 8, LinkKind::kCombinational);
    const LinkId ab = m.add_link("ab", 8, LinkKind::kCombinational);
    const LinkId bc = m.add_link("bc", 8, LinkKind::kCombinational);
    out = m.add_link("out", 8, LinkKind::kCombinational);
    m.bind_input(a, 0, in);
    m.bind_output(a, 0, ab);
    m.bind_input(b, 0, ab);
    m.bind_output(b, 0, bc);
    m.bind_input(c, 0, bc);
    m.bind_output(c, 0, out);
    m.finalize();
  }
  SystemModel m;
  LinkId in = 0, out = 0;
};

TEST(DynamicSchedule, IdleNetworkCostsExactlyOnePassPerCycle) {
  // Audit of the unstable_count_ bookkeeping on the write-unchanged-
  // value path: once the network is idle, every cycle re-evaluates each
  // block exactly once (the §4.2 "at least once" floor) and the
  // unchanged rewrites of every link must not destabilize the readers —
  // one pass total, never one pass per reader.
  CombChain chain;
  SequentialSimulator sim(chain.m, SchedulePolicy::kDynamic);
  sim.set_external_input(chain.in, val(8, 10));
  sim.step();  // settling cycle: re-evaluations allowed
  for (int cycle = 0; cycle < 5; ++cycle) {
    const StepStats st = sim.step();
    EXPECT_EQ(st.delta_cycles, 3u) << "cycle " << cycle;
    EXPECT_EQ(st.re_evaluations, 0u) << "cycle " << cycle;
    EXPECT_EQ(st.link_changes, 0u) << "cycle " << cycle;
    EXPECT_EQ(sim.link_value(chain.out).get_field(0, 8), 16u);
  }
}

TEST(DynamicSchedule, CompiledSkipsAnIdleNetworkEntirely) {
  // The compiled program's quiescence gate goes one step further: with
  // every block at a state fixed point and no pending input activity,
  // an idle cycle evaluates *nothing*.
  CombChain chain;
  SequentialSimulator sim(chain.m, SchedulePolicy::kDynamic,
                          /*max_evals_per_block=*/64, /*schedule_seed=*/1,
                          SchedulerKind::kCompiled);
  sim.set_external_input(chain.in, val(8, 10));
  sim.step();  // settling cycle: every output moves
  sim.step();  // nothing moves, which proves each block's fixed point
  for (int cycle = 0; cycle < 5; ++cycle) {
    const StepStats st = sim.step();
    EXPECT_EQ(st.delta_cycles, 0u) << "cycle " << cycle;
    EXPECT_EQ(st.skipped_blocks, 3u) << "cycle " << cycle;
    EXPECT_EQ(sim.link_value(chain.out).get_field(0, 8), 16u);
  }
  // Fresh stimulus wakes exactly the affected readers again.
  sim.set_external_input(chain.in, val(8, 20));
  const StepStats st = sim.step();
  EXPECT_GE(st.delta_cycles, 3u);
  EXPECT_EQ(sim.link_value(chain.out).get_field(0, 8), 26u);
}

TEST(Engine, ExternalInputValidation) {
  PipeRing ring({0, 0, 0});
  SequentialSimulator sim(ring.model, SchedulePolicy::kDynamic);
  EXPECT_THROW(sim.set_external_input(ring.links[0], val(16, 1)), Error);
}

TEST(Engine, ExternalInputWithNoReadersIsRejected) {
  // Driving a link no block reads used to be accepted and silently
  // dropped — the stimulus influenced nothing and no one noticed. It is
  // now a ContextualError naming the link.
  SystemModel m;
  const BlockId b = m.add_block(std::make_shared<CombAdderBlock>(8, 1), "a");
  const LinkId in = m.add_link("in", 8, LinkKind::kCombinational);
  const LinkId dangling =
      m.add_link("dangling", 8, LinkKind::kCombinational);
  const LinkId out = m.add_link("out", 8, LinkKind::kCombinational);
  m.bind_input(b, 0, in);
  m.bind_output(b, 0, out);
  m.finalize();
  SequentialSimulator sim(m, SchedulePolicy::kDynamic);
  sim.set_external_input(in, val(8, 3));  // has a reader: accepted
  try {
    sim.set_external_input(dangling, val(8, 1));
    FAIL() << "dangling external input accepted";
  } catch (const ContextualError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no readers"), std::string::npos) << what;
    EXPECT_NE(what.find("dangling"), std::string::npos) << what;
  }
  // Block-driven links are still rejected as before.
  EXPECT_THROW(sim.set_external_input(out, val(8, 1)), ContextualError);
}

TEST(Engine, TraceHookSeesFigFiveStyleSchedule) {
  PipeRing ring({1, 0, 0});
  SequentialSimulator sim(ring.model, SchedulePolicy::kDynamic);
  std::vector<std::pair<SystemCycle, BlockId>> trace;
  sim.set_trace_hook([&](SystemCycle c, DeltaCycle, BlockId b) {
    trace.emplace_back(c, b);
  });
  sim.step();
  sim.step();
  // All first-cycle entries precede second-cycle entries, and each cycle
  // starts with the full round 0,1,2 (round-robin from the persistent
  // pointer position).
  ASSERT_GE(trace.size(), 6u);
  EXPECT_EQ(trace[0].first, 0u);
  EXPECT_EQ(trace[0].second, 0u);
  EXPECT_EQ(trace[1].second, 1u);
  EXPECT_EQ(trace[2].second, 2u);
}

TEST(Engine, DeltaCycleTotalsAccumulate) {
  PipeRing ring({1, 2, 3});
  SequentialSimulator sim(ring.model, SchedulePolicy::kDynamic);
  DeltaCycle total = 0;
  for (int i = 0; i < 10; ++i) {
    total += sim.step().delta_cycles;
  }
  EXPECT_EQ(sim.total_delta_cycles(), total);
  EXPECT_EQ(sim.cycle(), 10u);
}

}  // namespace

/// White-box peer: reaches the engine's private round-robin bitmap so
/// a test can force the unstable_count/bitmap desync that the bounded
/// cursor scan turns into a structured failure (it used to spin forever).
class SequentialSimulatorTestPeer {
 public:
  static void zero_unstable_bitmap(SequentialSimulator& sim) {
    std::vector<char>& unstable = sim.unstable_;
    std::fill(unstable.begin(), unstable.end(), 0);
  }
  static std::size_t unstable_count(const SequentialSimulator& sim) {
    return sim.unstable_count_;
  }
};

namespace {

/// Pass-through block that, when armed, zeroes the scheduler's unstable
/// bitmap from inside its own evaluation — the count stays nonzero, so
/// the round-robin cursor has nothing left to find.
class SaboteurBlock : public SimBlock {
 public:
  void arm(SequentialSimulator* victim) { victim_ = victim; }

  std::size_t state_width() const override { return 0; }
  std::size_t num_inputs() const override { return 1; }
  std::size_t input_width(std::size_t) const override { return 1; }
  std::size_t num_outputs() const override { return 1; }
  std::size_t output_width(std::size_t) const override { return 1; }
  BitVector reset_state() const override { return BitVector(0); }

  void evaluate(const BitVector&, std::span<const BitVector> inputs,
                BitVector&, std::span<BitVector> outputs) const override {
    outputs[0].set_field(0, 1, inputs[0].get_field(0, 1));
    if (victim_ != nullptr) {
      SequentialSimulatorTestPeer::zero_unstable_bitmap(*victim_);
    }
  }
  std::string type_name() const override { return "saboteur"; }

 private:
  SequentialSimulator* victim_ = nullptr;
};

TEST(DynamicSchedule, DesyncedRoundRobinFailsStructurallyInsteadOfHanging) {
  SystemModel model;
  auto saboteur = std::make_shared<SaboteurBlock>();
  const BlockId s = model.add_block(saboteur, "S");
  const BlockId c =
      model.add_block(std::make_shared<CombAdderBlock>(1, 0), "C");
  const LinkId ext = model.add_link("ext", 1, LinkKind::kCombinational);
  const LinkId mid = model.add_link("mid", 1, LinkKind::kCombinational);
  const LinkId out = model.add_link("out", 1, LinkKind::kCombinational);
  model.bind_input(s, 0, ext);
  model.bind_output(s, 0, mid);
  model.bind_input(c, 0, mid);
  model.bind_output(c, 0, out);
  model.finalize();

  SequentialSimulator sim(model, SchedulePolicy::kDynamic, 8);
  saboteur->arm(&sim);
  // Block S (id 0) evaluates first, clears block C's unstable bit behind
  // the scheduler's back, and writes an unchanged output (no
  // re-destabilization). unstable_count stays 1 with an all-zero bitmap:
  // before the bounded scan this spun forever on the cursor.
  try {
    sim.step();
    FAIL() << "desynced scheduler did not fail";
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.report().cycle, 0u);
    EXPECT_EQ(e.report().num_blocks, 2u);
  }
  EXPECT_EQ(SequentialSimulatorTestPeer::unstable_count(sim), 1u);
}

// ---------------------------------------------------------------------------
// Re-evaluation accounting (explicit first-eval counting): pinned
// per-scheduler on a chain whose block ids run *against* the dataflow —
// the shape that separates the two schedulers most sharply.
// ---------------------------------------------------------------------------

/// b0 reads b1's output, b1 reads b2's, b2 reads the external input: the
/// round-robin sweep evaluates in id order and pays re-evaluations to
/// push values upstream; the compiled schedule evaluates in topological
/// order (b2, b1, b0) and pays none.
struct ReverseChain {
  ReverseChain() {
    const BlockId b0 =
        model.add_block(std::make_shared<CombAdderBlock>(8, 1), "b0");
    const BlockId b1 =
        model.add_block(std::make_shared<CombAdderBlock>(8, 2), "b1");
    const BlockId b2 =
        model.add_block(std::make_shared<CombAdderBlock>(8, 3), "b2");
    ext = model.add_link("ext", 8, LinkKind::kCombinational);
    l2 = model.add_link("l2", 8, LinkKind::kCombinational);
    l1 = model.add_link("l1", 8, LinkKind::kCombinational);
    out = model.add_link("out", 8, LinkKind::kCombinational);
    model.bind_input(b2, 0, ext);
    model.bind_output(b2, 0, l2);
    model.bind_input(b1, 0, l2);
    model.bind_output(b1, 0, l1);
    model.bind_input(b0, 0, l1);
    model.bind_output(b0, 0, out);
    model.finalize();
  }
  SystemModel model;
  LinkId ext = 0, l2 = 0, l1 = 0, out = 0;
};

TEST(SchedulerStats, ReEvaluationsPinnedPerSchedulerOnReverseChain) {
  ReverseChain chain;
  // Round-robin, cycle 1 (reset transient): id-order sweep needs three
  // extra delta cycles to push the reset values downstream.
  SequentialSimulator rr(chain.model, SchedulePolicy::kDynamic);
  StepStats st = rr.step();
  EXPECT_EQ(st.delta_cycles, 6u);
  EXPECT_EQ(st.re_evaluations, 3u);
  st = rr.step();  // settled: one pass, nothing changes
  EXPECT_EQ(st.delta_cycles, 3u);
  EXPECT_EQ(st.re_evaluations, 0u);

  // Compiled: topological order — no re-evaluations ever. The reset
  // transient changes every output in cycle 1, so the gated program
  // skips the fixed-point test then; cycle 2 changes nothing and proves
  // the fixed point, and from cycle 3 on the gate skips the whole chain.
  SequentialSimulator cp(chain.model, SchedulePolicy::kDynamic, 64, 1,
                         SchedulerKind::kCompiled);
  for (int i = 0; i < 2; ++i) {
    st = cp.step();
    EXPECT_EQ(st.delta_cycles, 3u) << "cycle " << i;
    EXPECT_EQ(st.re_evaluations, 0u) << "cycle " << i;
    EXPECT_EQ(st.skipped_blocks, 0u) << "cycle " << i;
  }
  st = cp.step();
  EXPECT_EQ(st.delta_cycles, 0u);
  EXPECT_EQ(st.re_evaluations, 0u);
  EXPECT_EQ(st.skipped_blocks, 3u);

  // Both reach the same fixed point, naturally.
  for (const LinkId l : {chain.l2, chain.l1, chain.out}) {
    EXPECT_EQ(rr.link_value(l), cp.link_value(l));
  }
}

}  // namespace
}  // namespace tmsim::core

// Unit tests for the static-schedule analysis pass (DESIGN.md §17):
// SCC condensation on hand-built link graphs, the Eval/Drive/Settle op
// mix, determinism, and the include-filter semantics the sharded engine
// relies on. These pin the *structure* of the emitted schedule; the
// engines' bit-identity over these shapes is proved by
// tests/integration/compiled_equivalence_test.cpp.
#include "analysis/static_schedule.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/example_blocks.h"
#include "core/system_model.h"

namespace tmsim::analysis {
namespace {

using core::BlockId;
using core::LinkId;
using core::LinkKind;
using core::SystemModel;
using core::examples::CombAdderBlock;
using core::examples::NotBlock;
using core::examples::Or2Block;
using core::examples::PipeBlock;

std::size_t count_ops(const CompiledSchedule& s, CompiledOpKind kind) {
  std::size_t n = 0;
  for (const CompiledOp& op : s.ops) {
    if (op.kind == kind) ++n;
  }
  return n;
}

/// Position of block b's kEval in the op list (npos if settled away).
std::size_t eval_position(const CompiledSchedule& s, BlockId b) {
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    if (s.ops[i].kind == CompiledOpKind::kEval && s.ops[i].block == b) {
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

TEST(StaticSchedule, SelfLoopBecomesASingleSettledScc) {
  SystemModel model;
  const BlockId a = model.add_block(std::make_shared<NotBlock>(), "a");
  const LinkId aa = model.add_link("aa", 1, LinkKind::kCombinational);
  model.bind_output(a, 0, aa);
  model.bind_input(a, 0, aa);
  model.finalize();

  const CompiledSchedule s = build_compiled_schedule(model);
  EXPECT_FALSE(s.acyclic());
  ASSERT_EQ(s.sccs.size(), 1u);
  EXPECT_EQ(s.sccs[0].blocks, std::vector<BlockId>{a});
  EXPECT_EQ(s.sccs[0].links, std::vector<LinkId>{aa});
  // a's only tracked input is the SCC link itself, so the settle commits
  // it: the whole schedule is one kSettle op, no kEval at all.
  EXPECT_EQ(s.sccs[0].committed_blocks, std::vector<BlockId>{a});
  ASSERT_EQ(s.ops.size(), 1u);
  EXPECT_EQ(s.ops[0].kind, CompiledOpKind::kSettle);
  EXPECT_EQ(s.ops[0].scc, 0u);
  EXPECT_EQ(s.num_evals, 0u);
  EXPECT_EQ(s.num_drives, 0u);
  EXPECT_EQ(s.scc_of_link[aa], 1u);
}

TEST(StaticSchedule, TwoBlockCycleCondensesToOneScc) {
  SystemModel model;
  const BlockId a = model.add_block(std::make_shared<NotBlock>(), "a");
  const BlockId b = model.add_block(std::make_shared<NotBlock>(), "b");
  const LinkId ab = model.add_link("ab", 1, LinkKind::kCombinational);
  const LinkId ba = model.add_link("ba", 1, LinkKind::kCombinational);
  model.bind_output(a, 0, ab);
  model.bind_input(b, 0, ab);
  model.bind_output(b, 0, ba);
  model.bind_input(a, 0, ba);
  model.finalize();

  const CompiledSchedule s = build_compiled_schedule(model);
  ASSERT_EQ(s.sccs.size(), 1u);
  EXPECT_EQ(s.sccs[0].blocks, (std::vector<BlockId>{a, b}));
  EXPECT_EQ(s.sccs[0].links, (std::vector<LinkId>{ab, ba}));
  EXPECT_EQ(s.sccs[0].committed_blocks, (std::vector<BlockId>{a, b}));
  ASSERT_EQ(s.ops.size(), 1u);
  EXPECT_EQ(s.ops[0].kind, CompiledOpKind::kSettle);
  EXPECT_EQ(s.scc_of_link[ab], 1u);
  EXPECT_EQ(s.scc_of_link[ba], 1u);
}

/// Diamond fan-in: a feeds c0 and c1, which rejoin at d. Acyclic, so the
/// schedule is pure kEval in topological order.
struct Diamond {
  Diamond() {
    a = model.add_block(std::make_shared<Or2Block>(8), "a");
    c0 = model.add_block(std::make_shared<CombAdderBlock>(8, 1), "c0");
    c1 = model.add_block(std::make_shared<CombAdderBlock>(8, 2), "c1");
    d = model.add_block(std::make_shared<Or2Block>(8), "d");
    const LinkId e0 = model.add_link("e0", 8, LinkKind::kCombinational);
    const LinkId e1 = model.add_link("e1", 8, LinkKind::kCombinational);
    const LinkId a0 = model.add_link("a0", 8, LinkKind::kCombinational);
    const LinkId a1 = model.add_link("a1", 8, LinkKind::kCombinational);
    const LinkId m0 = model.add_link("m0", 8, LinkKind::kCombinational);
    const LinkId m1 = model.add_link("m1", 8, LinkKind::kCombinational);
    const LinkId d0 = model.add_link("d0", 8, LinkKind::kCombinational);
    const LinkId d1 = model.add_link("d1", 8, LinkKind::kCombinational);
    model.bind_input(a, 0, e0);
    model.bind_input(a, 1, e1);
    model.bind_output(a, 0, a0);
    model.bind_output(a, 1, a1);
    model.bind_input(c0, 0, a0);
    model.bind_output(c0, 0, m0);
    model.bind_input(c1, 0, a1);
    model.bind_output(c1, 0, m1);
    model.bind_input(d, 0, m0);
    model.bind_input(d, 1, m1);
    model.bind_output(d, 0, d0);
    model.bind_output(d, 1, d1);
    model.finalize();
  }
  SystemModel model;
  BlockId a = 0, c0 = 0, c1 = 0, d = 0;
};

TEST(StaticSchedule, DiamondFanInIsPureEvalsInTopologicalOrder) {
  Diamond dia;
  const CompiledSchedule s = build_compiled_schedule(dia.model);
  EXPECT_TRUE(s.acyclic());
  EXPECT_EQ(s.num_blocks, 4u);
  EXPECT_EQ(s.num_evals, 4u);
  EXPECT_EQ(s.num_drives, 0u);
  ASSERT_EQ(s.ops.size(), 4u);
  const std::size_t pa = eval_position(s, dia.a);
  const std::size_t pc0 = eval_position(s, dia.c0);
  const std::size_t pc1 = eval_position(s, dia.c1);
  const std::size_t pd = eval_position(s, dia.d);
  EXPECT_LT(pa, pc0);
  EXPECT_LT(pa, pc1);
  EXPECT_LT(pc0, pd);
  EXPECT_LT(pc1, pd);
}

TEST(StaticSchedule, SameModelBuildsByteIdenticalSchedules) {
  Diamond dia;
  const CompiledSchedule s1 = build_compiled_schedule(dia.model);
  const CompiledSchedule s2 = build_compiled_schedule(dia.model);
  ASSERT_EQ(s1.ops.size(), s2.ops.size());
  for (std::size_t i = 0; i < s1.ops.size(); ++i) {
    EXPECT_EQ(s1.ops[i].kind, s2.ops[i].kind);
    EXPECT_EQ(s1.ops[i].block, s2.ops[i].block);
    EXPECT_EQ(s1.ops[i].scc, s2.ops[i].scc);
  }
  EXPECT_EQ(s1.scc_of_link, s2.scc_of_link);
}

TEST(StaticSchedule, PipeRingNeedsExactlyOneDrive) {
  // Four PipeBlocks in a combinational ring. output_depends_on_input is
  // false for every (out, in) pair, so the *link* graph is edge-free —
  // acyclic — yet no block is initially ready (each reads a tracked,
  // not-yet-final link). The drive plan breaks the stalemate with one
  // early evaluation; the other three then run as plain kEvals plus the
  // driver's own committing kEval.
  SystemModel model;
  std::vector<BlockId> p;
  std::vector<LinkId> l;
  for (int i = 0; i < 4; ++i) {
    p.push_back(model.add_block(
        std::make_shared<PipeBlock>(8, static_cast<std::uint64_t>(i + 1)),
        "p" + std::to_string(i)));
    l.push_back(model.add_link("l" + std::to_string(i), 8,
                               LinkKind::kCombinational));
  }
  for (int i = 0; i < 4; ++i) {
    model.bind_output(p[i], 0, l[i]);
    model.bind_input(p[(i + 1) % 4], 0, l[i]);
  }
  model.finalize();

  const CompiledSchedule s = build_compiled_schedule(model);
  EXPECT_TRUE(s.acyclic());
  EXPECT_EQ(s.num_evals, 4u);
  EXPECT_EQ(s.num_drives, 1u);
  ASSERT_EQ(s.ops.size(), 5u);
  EXPECT_EQ(s.ops[0].kind, CompiledOpKind::kDrive);
  // The drive finalizes its block's output, so that block's committing
  // kEval must come after its downstream neighbour became ready.
  EXPECT_EQ(count_ops(s, CompiledOpKind::kEval), 4u);
}

TEST(StaticSchedule, TopologicalOrderBeatsBlockIdOrder) {
  // Ids run *against* the dataflow: b0 reads b1's output, b1 reads
  // b2's. The schedule must order by topology (b2, b1, b0), not by id.
  SystemModel model;
  const BlockId b0 =
      model.add_block(std::make_shared<CombAdderBlock>(8, 1), "b0");
  const BlockId b1 =
      model.add_block(std::make_shared<CombAdderBlock>(8, 2), "b1");
  const BlockId b2 =
      model.add_block(std::make_shared<CombAdderBlock>(8, 3), "b2");
  const LinkId ext = model.add_link("ext", 8, LinkKind::kCombinational);
  const LinkId l2 = model.add_link("l2", 8, LinkKind::kCombinational);
  const LinkId l1 = model.add_link("l1", 8, LinkKind::kCombinational);
  const LinkId out = model.add_link("out", 8, LinkKind::kCombinational);
  model.bind_input(b2, 0, ext);
  model.bind_output(b2, 0, l2);
  model.bind_input(b1, 0, l2);
  model.bind_output(b1, 0, l1);
  model.bind_input(b0, 0, l1);
  model.bind_output(b0, 0, out);
  model.finalize();

  const CompiledSchedule s = build_compiled_schedule(model);
  EXPECT_TRUE(s.acyclic());
  ASSERT_EQ(s.ops.size(), 3u);
  EXPECT_EQ(s.ops[0].block, b2);
  EXPECT_EQ(s.ops[1].block, b1);
  EXPECT_EQ(s.ops[2].block, b0);
}

TEST(StaticSchedule, IncludeFilterTreatsCutLinksAsRegistered) {
  // Chain a -> b -> c, scheduling only {b} (the sharded engine's view of
  // a one-block shard). Both of b's links cross the filter boundary, so
  // neither is tracked: b is immediately ready and the schedule is a
  // single kEval.
  SystemModel model;
  const BlockId a =
      model.add_block(std::make_shared<CombAdderBlock>(8, 1), "a");
  const BlockId b =
      model.add_block(std::make_shared<CombAdderBlock>(8, 2), "b");
  const BlockId c =
      model.add_block(std::make_shared<CombAdderBlock>(8, 3), "c");
  const LinkId ext = model.add_link("ext", 8, LinkKind::kCombinational);
  const LinkId ab = model.add_link("ab", 8, LinkKind::kCombinational);
  const LinkId bc = model.add_link("bc", 8, LinkKind::kCombinational);
  const LinkId out = model.add_link("out", 8, LinkKind::kCombinational);
  model.bind_input(a, 0, ext);
  model.bind_output(a, 0, ab);
  model.bind_input(b, 0, ab);
  model.bind_output(b, 0, bc);
  model.bind_input(c, 0, bc);
  model.bind_output(c, 0, out);
  model.finalize();

  std::vector<char> member(model.num_blocks(), 0);
  member[b] = 1;
  StaticScheduleOptions opt;
  opt.include_blocks = &member;
  const CompiledSchedule s = build_compiled_schedule(model, opt);
  EXPECT_TRUE(s.acyclic());
  EXPECT_EQ(s.num_blocks, 1u);
  EXPECT_EQ(s.num_evals, 1u);
  EXPECT_EQ(s.num_drives, 0u);
  ASSERT_EQ(s.ops.size(), 1u);
  EXPECT_EQ(s.ops[0].kind, CompiledOpKind::kEval);
  EXPECT_EQ(s.ops[0].block, b);
}

/// Three RegAdder blocks in a ring of registered links (Fig. 2a).
SystemModel registered_ring() {
  SystemModel model;
  std::vector<BlockId> f;
  std::vector<LinkId> r;
  for (int i = 0; i < 3; ++i) {
    f.push_back(model.add_block(
        std::make_shared<core::examples::RegAdderBlock>(16, i + 1),
        "F" + std::to_string(i + 1)));
    r.push_back(model.add_link("R" + std::to_string(i + 1), 16,
                               LinkKind::kRegistered));
  }
  for (int i = 0; i < 3; ++i) {
    model.bind_output(f[i], 0, r[i]);
    model.bind_input(f[(i + 1) % 3], 0, r[i]);
  }
  model.finalize();
  return model;
}

TEST(StaticSchedule, RegisteredOnlyModelCompilesToFigThreeOrder) {
  // The §4.1 static policy runs this program: no internal link of a
  // registered-only model is tracked, so every block is one kEval, in
  // ascending ids — exactly Fig. 3.
  const SystemModel model = registered_ring();
  ASSERT_TRUE(model.all_boundaries_registered());
  const CompiledSchedule s = build_compiled_schedule(model);
  EXPECT_TRUE(s.acyclic());
  EXPECT_EQ(s.num_drives, 0u);
  ASSERT_EQ(s.ops.size(), 3u);
  for (BlockId b = 0; b < 3; ++b) {
    EXPECT_EQ(s.ops[b].kind, CompiledOpKind::kEval);
    EXPECT_EQ(s.ops[b].block, b);
  }
}

TEST(StaticSchedule, TwoPhaseProgramDrivesAllThenEvaluatesAll) {
  const SystemModel model = registered_ring();
  const CompiledSchedule s = build_two_phase_schedule(model);
  EXPECT_TRUE(s.acyclic());
  EXPECT_EQ(s.num_blocks, 3u);
  EXPECT_EQ(s.num_drives, 3u);
  EXPECT_EQ(s.num_evals, 3u);
  ASSERT_EQ(s.ops.size(), 6u);
  for (BlockId b = 0; b < 3; ++b) {
    EXPECT_EQ(s.ops[b].kind, CompiledOpKind::kDrive);
    EXPECT_EQ(s.ops[b].block, b);
    EXPECT_EQ(s.ops[3 + b].kind, CompiledOpKind::kEval);
    EXPECT_EQ(s.ops[3 + b].block, b);
  }
  // A shard's view: only its members, in the same two passes.
  std::vector<char> member = {1, 0, 1};
  StaticScheduleOptions opt;
  opt.include_blocks = &member;
  const CompiledSchedule part = build_two_phase_schedule(model, opt);
  ASSERT_EQ(part.ops.size(), 4u);
  EXPECT_EQ(part.ops[1].kind, CompiledOpKind::kDrive);
  EXPECT_EQ(part.ops[1].block, 2u);
  EXPECT_EQ(part.ops[2].kind, CompiledOpKind::kEval);
  EXPECT_EQ(part.ops[2].block, 0u);
}

}  // namespace
}  // namespace tmsim::analysis

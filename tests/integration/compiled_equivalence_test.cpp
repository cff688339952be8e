// Differential proof that SchedulerKind::kCompiled honours the engine
// contract on the topologies the static schedule treats specially:
//
//  * a true combinational cycle (an OR latch), where the compiled
//    schedule runs its scoped kSettle fallback — sequential — and its
//    per-shard Jacobi supersteps when a partition cuts the cycle;
//  * a non-settling cycle (a NOT self-loop), where compiled must fail
//    with the same structured ConvergenceError as the reference
//    scheduler, while the worklist scheduler rejects the shape at
//    construction time.
//
// OR is monotone and every settled cycle ends with the latch halves
// equal, so the per-cycle fixed point is evaluation-order independent:
// every engine/scheduler pair must produce bit-identical link values and
// block states, cycle by cycle.
#include <cstdint>
#include <memory>
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

BitVector val(std::size_t width, std::uint64_t v) {
  BitVector bv(width);
  bv.set_field(0, width, v);
  return bv;
}

/// Two Or2 blocks latched head-to-tail (a true combinational SCC), each
/// seeded through a PipeBlock from an external input, with a CombAdder
/// hanging off the latch so the settled value must also flow onward.
struct OrLatchModel {
  OrLatchModel() {
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
    model.finalize();
  }
  SystemModel model;
  BlockId p0 = 0, p1 = 0, a = 0, b = 0, c = 0;
  LinkId ext0 = 0, ext1 = 0, pa = 0, pb = 0;
  LinkId lab = 0, lba = 0, la1 = 0, lc = 0, lb1 = 0;
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

  // Sharded compiled, both with a cut-friendly partition and with a
  // round-robin partition that forces the SCC's two blocks into
  // *different* shards: the cycle then runs as cross-shard Jacobi
  // supersteps instead of a local settle, and must still agree.
  EngineOptions cut_cfg;
  cut_cfg.num_shards = 2;
  cut_cfg.scheduler = SchedulerKind::kCompiled;
  Engine sh_cut(m.model, cut_cfg);

  EngineOptions split_cfg;
  split_cfg.num_shards = 2;
  split_cfg.partition = PartitionPolicy::kRoundRobin;
  split_cfg.scheduler = SchedulerKind::kCompiled;
  Engine sh_split(m.model, split_cfg);

  std::vector<Engine*> engines = {&ref, &cp, &sh_cut, &sh_split};

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

TEST(CompiledEquivalence, OrSelfLoopSettlesUnderCompiled) {
  // A monotone self-loop: or2 a with out0 looped back to in0. The
  // worklist scheduler rejects this shape outright; compiled confines it
  // to a one-block settle region and converges (x = x | ext is a fixed
  // point after one round).
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

  EXPECT_THROW(SequentialSimulator(model, SchedulePolicy::kDynamic, 64, 1,
                                   SchedulerKind::kWorklist),
               ContextualError);
}

TEST(CompiledEquivalence, NonSettlingLoopFailsStructurallyUnderCompiled) {
  // NOT self-loop: oscillates forever. The reference scheduler and the
  // compiled settle fallback must both convert the spin into the same
  // structured report; the worklist scheduler refuses the topology at
  // construction time (rejection parity is the *same defect surfaced at
  // a different phase*, never a hang).
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

  EXPECT_THROW(SequentialSimulator(model, SchedulePolicy::kDynamic, 16, 1,
                                   SchedulerKind::kWorklist),
               ContextualError);
}

}  // namespace
}  // namespace tmsim::core

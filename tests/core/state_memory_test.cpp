#include "core/state_memory.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/example_blocks.h"

namespace tmsim::core {
namespace {

using examples::CombAdderBlock;
using examples::PipeBlock;

/// Blocks whose state words have the given widths (0 = stateless); they
/// keep the default WordState, so each bank holds the word itself.
struct Blocks {
  explicit Blocks(std::initializer_list<std::size_t> widths) {
    for (const std::size_t w : widths) {
      if (w == 0) {
        owned.push_back(std::make_shared<CombAdderBlock>(1, 0));
      } else {
        owned.push_back(std::make_shared<PipeBlock>(w, 0));
      }
      ptrs.push_back(owned.back().get());
    }
  }
  std::vector<std::shared_ptr<SimBlock>> owned;
  std::vector<const SimBlock*> ptrs;
};

BitVector val8(std::uint64_t v) { return make_bit_vector(8, v); }

TEST(StateMemory, HoldsPerBlockWidths) {
  const Blocks blocks{8, 16, 0};
  StateMemory mem(blocks.ptrs);
  EXPECT_EQ(mem.num_blocks(), 3u);
  EXPECT_EQ(mem.word_width(), 16u);
  EXPECT_EQ(mem.read_old(0).width(), 8u);
  EXPECT_EQ(mem.read_old(2).width(), 0u);
  EXPECT_EQ(mem.total_bits(), 2u * (8 + 16 + 0));
}

TEST(StateMemory, WriteGoesToNewBankOnly) {
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  mem.new_state(0).load_word(val8(0xab));
  // Old slot still reset.
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0u);
  mem.commit(0);
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0xabu);
}

TEST(StateMemory, CommitFlipsOnlyThatBlocksPointer) {
  // §4.1: "this copy action is performed by switching the offset
  // pointer" — one pointer per block, so committing block 0 leaves
  // block 1's parity and old state exactly where they were.
  const Blocks blocks{8, 8};
  StateMemory mem(blocks.ptrs);
  mem.load_old(1, val8(0x77));
  mem.new_state(0).load_word(val8(0x01));
  mem.new_state(1).load_word(val8(0x02));  // written, never committed
  EXPECT_EQ(mem.parity(0), 0u);
  EXPECT_EQ(mem.parity(1), 0u);
  mem.commit(0);
  EXPECT_EQ(mem.parity(0), 1u);
  EXPECT_EQ(mem.parity(1), 0u);
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0x01u);
  EXPECT_EQ(mem.read_old(1).get_field(0, 8), 0x77u);
  mem.commit(0);
  EXPECT_EQ(mem.parity(0), 0u);
  EXPECT_EQ(mem.parity(1), 0u);
  EXPECT_EQ(mem.read_old(1).get_field(0, 8), 0x77u);
}

TEST(StateMemory, UncommittedBlockKeepsItsOldStateAcrossCycles) {
  // A block the schedule skips is never committed: however many cycles
  // pass while its neighbour commits, and whatever lands in its new slot,
  // it reads the same old state without any copy.
  const Blocks blocks{8, 8};
  StateMemory mem(blocks.ptrs);
  mem.load_old(0, val8(0x5a));
  const BlockState* const old_slot = &mem.old_state(0);
  for (std::uint64_t cycle = 0; cycle < 7; ++cycle) {
    mem.new_state(1).load_word(val8(cycle));
    mem.commit(1);
    if (cycle % 2 == 0) {
      mem.new_state(0).load_word(val8(0xf0 + cycle));  // discarded
    }
    EXPECT_EQ(&mem.old_state(0), old_slot) << "cycle " << cycle;
    EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0x5au) << "cycle " << cycle;
    EXPECT_EQ(mem.parity(0), 0u);
    EXPECT_EQ(mem.read_old(1).get_field(0, 8), cycle);
  }
}

TEST(StateMemory, ReEvaluationOverwritesNewSlotSafely) {
  // The old slot must survive any number of re-writes to the new slot —
  // the §4.2 re-evaluation guarantee.
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  mem.load_old(0, val8(0x11));
  for (std::uint64_t i = 0; i < 5; ++i) {
    mem.new_state(0).load_word(val8(0x20 + i));
    EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0x11u);
  }
  mem.commit(0);
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0x24u);  // last write wins
}

TEST(StateMemory, AlternatingBanksKeepIndependentData) {
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  for (std::uint64_t cycle = 0; cycle < 6; ++cycle) {
    mem.new_state(0).load_word(val8(cycle + 1));
    mem.commit(0);
    EXPECT_EQ(mem.read_old(0).get_field(0, 8), cycle + 1);
    // The slot just vacated still holds the previous cycle's state.
    if (cycle > 0) {
      EXPECT_EQ(mem.new_state(0).to_word().get_field(0, 8), cycle);
    }
  }
}

TEST(StateMemory, RejectsBadUsage) {
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  EXPECT_THROW(mem.read_old(1), Error);
  EXPECT_THROW(mem.commit(1), Error);
  EXPECT_THROW(mem.new_state(0).load_word(BitVector(9)), Error);
  EXPECT_THROW(mem.load_old(0, BitVector(7)), Error);
  EXPECT_THROW(StateMemory({}), Error);
}

}  // namespace
}  // namespace tmsim::core

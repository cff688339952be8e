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
  // Old bank still reset.
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0u);
  mem.swap_banks();
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0xabu);
}

TEST(StateMemory, BankSwapIsAPointerFlip) {
  // §4.1: "this copy action is performed by switching the offset pointer".
  const Blocks blocks{4, 4};
  StateMemory mem(blocks.ptrs);
  EXPECT_EQ(mem.old_offset(), 0u);
  mem.swap_banks();
  EXPECT_EQ(mem.old_offset(), 2u);
  mem.swap_banks();
  EXPECT_EQ(mem.old_offset(), 0u);
}

TEST(StateMemory, ReEvaluationOverwritesNewSlotSafely) {
  // The old bank must survive any number of re-writes to the new slot —
  // the §4.2 re-evaluation guarantee.
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  mem.load_old(0, val8(0x11));
  for (std::uint64_t i = 0; i < 5; ++i) {
    mem.new_state(0).load_word(val8(0x20 + i));
    EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0x11u);
  }
  mem.swap_banks();
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0x24u);  // last write wins
}

TEST(StateMemory, AlternatingBanksKeepIndependentData) {
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  for (std::uint64_t cycle = 0; cycle < 6; ++cycle) {
    mem.new_state(0).load_word(val8(cycle + 1));
    mem.swap_banks();
    EXPECT_EQ(mem.read_old(0).get_field(0, 8), cycle + 1);
  }
}

TEST(StateMemory, CarryOverCopiesOldIntoNew) {
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  mem.load_old(0, val8(0x5a));
  mem.new_state(0).load_word(val8(0x01));
  EXPECT_FALSE(mem.new_state(0).equals(mem.old_state(0)));
  mem.carry_over(0);
  EXPECT_TRUE(mem.new_state(0).equals(mem.old_state(0)));
  mem.swap_banks();
  EXPECT_EQ(mem.read_old(0).get_field(0, 8), 0x5au);
}

TEST(StateMemory, RejectsBadUsage) {
  const Blocks blocks{8};
  StateMemory mem(blocks.ptrs);
  EXPECT_THROW(mem.read_old(1), Error);
  EXPECT_THROW(mem.new_state(0).load_word(BitVector(9)), Error);
  EXPECT_THROW(mem.load_old(0, BitVector(7)), Error);
  EXPECT_THROW(StateMemory({}), Error);
}

}  // namespace
}  // namespace tmsim::core

#include "core/link_memory.h"

#include <gtest/gtest.h>

#include "core/example_blocks.h"

namespace tmsim::core {
namespace {

using examples::CombAdderBlock;
using examples::RegAdderBlock;

/// Model with one comb and one registered link (both external-ish).
SystemModel two_link_model() {
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<CombAdderBlock>(8, 0), "a");
  const BlockId b = m.add_block(std::make_shared<RegAdderBlock>(8, 0), "b");
  const LinkId comb_in = m.add_link("comb_in", 8, LinkKind::kCombinational);
  const LinkId comb_out = m.add_link("comb_out", 8, LinkKind::kCombinational);
  const LinkId reg_in = m.add_link("reg_in", 8, LinkKind::kRegistered);
  const LinkId reg_out = m.add_link("reg_out", 8, LinkKind::kRegistered);
  m.bind_input(a, 0, comb_in);
  m.bind_output(a, 0, comb_out);
  m.bind_input(b, 0, reg_in);
  m.bind_output(b, 0, reg_out);
  m.finalize();
  return m;
}

BitVector val8(std::uint64_t v) {
  BitVector b(8);
  b.set_field(0, 8, v);
  return b;
}

TEST(LinkMemory, CombinationalWriteReportsChange) {
  const SystemModel m = two_link_model();
  LinkMemory mem(m);
  EXPECT_FALSE(mem.write(0, val8(0)));   // same as reset value
  EXPECT_TRUE(mem.write(0, val8(5)));    // changed
  EXPECT_FALSE(mem.write(0, val8(5)));   // unchanged
  EXPECT_EQ(mem.read(0).get_field(0, 8), 5u);
}

TEST(LinkMemory, RegisteredLinkIsDoubleBanked) {
  const SystemModel m = two_link_model();
  LinkMemory mem(m);
  EXPECT_FALSE(mem.write(2, val8(7)));  // registered never reports change
  // Reader still sees the old bank.
  EXPECT_EQ(mem.read(2).get_field(0, 8), 0u);
  mem.swap_registered_banks();
  EXPECT_EQ(mem.read(2).get_field(0, 8), 7u);
  // Next cycle's write lands in the other bank.
  mem.write(2, val8(9));
  EXPECT_EQ(mem.read(2).get_field(0, 8), 7u);
  mem.swap_registered_banks();
  EXPECT_EQ(mem.read(2).get_field(0, 8), 9u);
}

TEST(LinkMemory, CombinationalLinkUnaffectedByBankSwap) {
  const SystemModel m = two_link_model();
  LinkMemory mem(m);
  mem.write(0, val8(3));
  mem.swap_registered_banks();
  EXPECT_EQ(mem.read(0).get_field(0, 8), 3u);
}

TEST(LinkMemory, WidthMismatchRejected) {
  const SystemModel m = two_link_model();
  LinkMemory mem(m);
  EXPECT_THROW(mem.write(0, BitVector(9)), Error);
}

TEST(LinkMemory, TotalBitsCountsValuesAndHbr) {
  // The memory keeps no HBR bits (the engine's unstable bitmap holds the
  // same facts), but the FPGA it models provisions one per comb link.
  const SystemModel m = two_link_model();
  LinkMemory mem(m);
  // 2 comb links: (8+1) each; 2 registered links: 8*2 each.
  EXPECT_EQ(mem.total_bits(), 2u * 9 + 2u * 16);
}

}  // namespace
}  // namespace tmsim::core

#include "core/system_model.h"

#include <gtest/gtest.h>

#include "core/example_blocks.h"

namespace tmsim::core {
namespace {

using examples::CombAdderBlock;
using examples::RegAdderBlock;

TEST(SystemModel, BuildAndFinalize) {
  SystemModel m;
  auto blk = std::make_shared<RegAdderBlock>(8, 1);
  const BlockId a = m.add_block(blk, "a");
  const BlockId b = m.add_block(blk, "b");  // shared logic instance
  const LinkId ab = m.add_link("ab", 8, LinkKind::kRegistered);
  const LinkId ba = m.add_link("ba", 8, LinkKind::kRegistered);
  m.bind_output(a, 0, ab);
  m.bind_input(b, 0, ab);
  m.bind_output(b, 0, ba);
  m.bind_input(a, 0, ba);
  m.finalize();
  EXPECT_TRUE(m.finalized());
  EXPECT_EQ(m.num_blocks(), 2u);
  EXPECT_TRUE(m.all_boundaries_registered());
  EXPECT_FALSE(m.is_external_input(ab));
  EXPECT_FALSE(m.is_external_output(ab));
}

TEST(SystemModel, ExternalLinks) {
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<CombAdderBlock>(4, 1), "a");
  const LinkId in = m.add_link("in", 4, LinkKind::kCombinational);
  const LinkId out = m.add_link("out", 4, LinkKind::kCombinational);
  m.bind_input(a, 0, in);
  m.bind_output(a, 0, out);
  m.finalize();
  EXPECT_TRUE(m.is_external_input(in));
  EXPECT_TRUE(m.is_external_output(out));
  // A comb link between blocks would break this, but external ones don't.
  EXPECT_TRUE(m.all_boundaries_registered());
}

TEST(SystemModel, RejectsUnboundPorts) {
  SystemModel m;
  m.add_block(std::make_shared<CombAdderBlock>(4, 1), "a");
  EXPECT_THROW(m.finalize(), Error);
}

TEST(SystemModel, RejectsDoubleWriter) {
  SystemModel m;
  auto blk = std::make_shared<CombAdderBlock>(4, 1);
  const BlockId a = m.add_block(blk, "a");
  const BlockId b = m.add_block(blk, "b");
  const LinkId l = m.add_link("l", 4, LinkKind::kCombinational);
  m.bind_output(a, 0, l);
  EXPECT_THROW(m.bind_output(b, 0, l), Error);
}

TEST(SystemModel, RejectsWidthMismatch) {
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<CombAdderBlock>(4, 1), "a");
  const LinkId l = m.add_link("l", 5, LinkKind::kCombinational);
  EXPECT_THROW(m.bind_output(a, 0, l), Error);
  EXPECT_THROW(m.bind_input(a, 0, l), Error);
}

TEST(SystemModel, RejectsLinksWiderThanOneWord) {
  // The engine's link memory holds each link in one 64-bit word.
  SystemModel m;
  EXPECT_NO_THROW(m.add_link("widest", 64, LinkKind::kCombinational));
  try {
    m.add_link("bus", 65, LinkKind::kRegistered);
    FAIL() << "a 65-bit link was accepted";
  } catch (const ContextualError& e) {
    EXPECT_EQ(e.context_value("link"), "bus");
    EXPECT_EQ(e.context_value("width"), "65");
    EXPECT_NE(std::string(e.what()).find("'bus'"), std::string::npos);
  }
  EXPECT_EQ(m.num_links(), 1u);  // the rejected link was not added
}

TEST(SystemModel, RejectsSecondReaderOnCombinationalLink) {
  // One HBR bit per link position implies a single reader (§4.2).
  SystemModel m;
  auto blk = std::make_shared<CombAdderBlock>(4, 1);
  const BlockId a = m.add_block(blk, "a");
  const BlockId b = m.add_block(blk, "b");
  const BlockId c = m.add_block(blk, "c");
  const LinkId src = m.add_link("src", 4, LinkKind::kCombinational);
  const LinkId o_b = m.add_link("ob", 4, LinkKind::kCombinational);
  const LinkId o_c = m.add_link("oc", 4, LinkKind::kCombinational);
  m.bind_output(a, 0, src);
  m.bind_input(b, 0, src);
  m.bind_input(c, 0, src);
  m.bind_output(b, 0, o_b);
  m.bind_output(c, 0, o_c);
  const LinkId a_in = m.add_link("ain", 4, LinkKind::kCombinational);
  m.bind_input(a, 0, a_in);
  EXPECT_THROW(m.finalize(), Error);
}

TEST(SystemModel, RegisteredLinkAllowsFanout) {
  SystemModel m;
  auto blk = std::make_shared<RegAdderBlock>(4, 1);
  const BlockId a = m.add_block(blk, "a");
  const BlockId b = m.add_block(blk, "b");
  const BlockId c = m.add_block(blk, "c");
  const LinkId src = m.add_link("src", 4, LinkKind::kRegistered);
  m.bind_output(a, 0, src);
  m.bind_input(b, 0, src);
  m.bind_input(c, 0, src);
  const LinkId a_in = m.add_link("ain", 4, LinkKind::kRegistered);
  const LinkId ob = m.add_link("ob", 4, LinkKind::kRegistered);
  const LinkId oc = m.add_link("oc", 4, LinkKind::kRegistered);
  m.bind_input(a, 0, a_in);
  m.bind_output(b, 0, ob);
  m.bind_output(c, 0, oc);
  m.finalize();
  EXPECT_EQ(m.link(src).readers.size(), 2u);
}

TEST(SystemModel, NoMutationAfterFinalize) {
  SystemModel m;
  const BlockId a = m.add_block(std::make_shared<CombAdderBlock>(4, 1), "a");
  const LinkId in = m.add_link("in", 4, LinkKind::kCombinational);
  const LinkId out = m.add_link("out", 4, LinkKind::kCombinational);
  m.bind_input(a, 0, in);
  m.bind_output(a, 0, out);
  m.finalize();
  EXPECT_THROW(m.add_block(std::make_shared<CombAdderBlock>(4, 1), "b"),
               Error);
  EXPECT_THROW(m.add_link("x", 4, LinkKind::kCombinational), Error);
}

}  // namespace
}  // namespace tmsim::core

#include "noc/flit_queue.h"

#include <gtest/gtest.h>

namespace tmsim::noc {
namespace {

Flit body(std::uint16_t payload) { return Flit{FlitType::kBody, payload}; }

TEST(FlitQueue, AtIndexesFromFront) {
  FlitQueue q(3);
  q.push(body(10));
  q.push(body(20));
  q.pop();
  q.push(body(30));
  q.push(body(40));  // wraps physically
  EXPECT_EQ(q.at(0), body(20));
  EXPECT_EQ(q.at(1), body(30));
  EXPECT_EQ(q.at(2), body(40));
  EXPECT_THROW(q.at(3), Error);
}

TEST(FlitQueue, RestoreReconstructsPointerState) {
  FlitQueue q(4);
  q.push(body(1));
  q.push(body(2));
  q.push(body(3));
  q.pop();
  const std::size_t rd = q.read_pos();
  const std::size_t wr = q.write_pos();
  const std::size_t sz = q.size();

  FlitQueue copy(4);
  for (std::size_t i = 0; i < 4; ++i) {
    copy.slot(i) = q.slot(i);
  }
  copy.restore(rd, wr, sz);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.pop(), body(2));
  EXPECT_EQ(copy.pop(), body(3));
}

TEST(FlitQueue, RestoreRejectsInconsistentPointers) {
  FlitQueue q(4);
  EXPECT_THROW(q.restore(0, 2, 1), Error);   // rd+size != wr
  EXPECT_THROW(q.restore(4, 0, 0), Error);   // rd out of range
  EXPECT_THROW(q.restore(0, 0, 5), Error);   // size > capacity
  q.restore(1, 3, 2);                        // consistent
  EXPECT_EQ(q.size(), 2u);
  q.restore(2, 2, 4);                        // full, rd == wr
  EXPECT_TRUE(q.full());
}

// The slot array is sized for the deepest admitted queue; the slots at
// or above a queue's depth are not registers of it and stay unreachable.
TEST(FlitQueue, SlotAtDepthThrows) {
  for (const std::size_t depth : {std::size_t{2}, kMaxQueueDepth}) {
    FlitQueue q(depth);
    const FlitQueue& cq = q;
    EXPECT_NO_THROW(q.slot(depth - 1)) << depth;
    EXPECT_THROW(q.slot(depth), Error) << depth;
    EXPECT_THROW(cq.slot(depth), Error) << depth;
  }
}

}  // namespace
}  // namespace tmsim::noc

#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.h"

namespace tmsim {
namespace {

TEST(RingBuffer, BasicFifoOrder) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 1);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  rb.push(5);
  rb.push(6);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
  EXPECT_EQ(rb.pop(), 6);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, OverflowAndUnderflowThrow) {
  RingBuffer<int> rb(2);
  EXPECT_THROW(rb.pop(), Error);
  EXPECT_THROW(rb.front(), Error);
  rb.push(1);
  rb.push(2);
  EXPECT_THROW(rb.push(3), Error);
}

TEST(RingBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer<int>(0), Error);
}

TEST(RingBuffer, MatchesDequeUnderRandomOps) {
  SplitMix64 rng(7);
  RingBuffer<int> rb(5);
  std::deque<int> model;
  for (int iter = 0; iter < 5000; ++iter) {
    if (!rb.full() && (model.empty() || rng.next_below(2) == 0)) {
      const int v = static_cast<int>(rng.next_below(1000));
      rb.push(v);
      model.push_back(v);
    } else {
      ASSERT_EQ(rb.pop(), model.front());
      model.pop_front();
    }
    ASSERT_EQ(rb.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(rb.front(), model.front());
    }
  }
}

}  // namespace
}  // namespace tmsim

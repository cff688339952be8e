// Property/stress tests for fpga::CyclicBuffer — the ARM↔FPGA decoupling
// buffer of §5.2, which every hosted farm job streams its stimuli and
// monitor words through. Three angles:
//   1. randomized differential test against a std::deque reference model
//      across thousands of mixed push/pop/pop_if_due/discard ops, with
//      full/empty/fill checked after every step (wrap-around coverage far
//      past capacity);
//   2. explicit full/empty disambiguation at every fill level, including
//      the capacity boundary where head == tail both ways;
//   3. a mutex-guarded concurrent producer/consumer pair, which the tsan
//      preset runs under ThreadSanitizer (through the `farm` label; the
//      `fpga` label runs it with the platform units).
#include "fpga/cyclic_buffer.h"

#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tmsim::fpga {
namespace {

TEST(CyclicBufferStress, RandomizedOpsMatchDequeReference) {
  // Small capacities maximize wrap-around events per operation.
  for (std::size_t capacity : {1u, 2u, 3u, 7u, 16u}) {
    CyclicBuffer buf(capacity);
    std::deque<TimedWord> ref;
    SplitMix64 rng(0x5eedull * capacity + 1);
    SystemCycle now = 0;

    for (int op = 0; op < 5000; ++op) {
      switch (rng.next_below(8)) {
        case 0:
        case 1:
        case 2: {  // push (respecting flow control, as §5.3 requires)
          if (buf.free_space() > 0) {
            const TimedWord w{now + rng.next_below(4),
                              static_cast<std::uint32_t>(rng.next())};
            buf.push(w);
            ref.push_back(w);
          } else {
            EXPECT_TRUE(buf.full());
          }
          break;
        }
        case 3:
        case 4: {  // pop
          if (!buf.empty()) {
            ASSERT_FALSE(ref.empty());
            EXPECT_EQ(buf.front(), ref.front());
            EXPECT_EQ(buf.pop(), ref.front());
            ref.pop_front();
          }
          break;
        }
        case 5:
        case 6: {  // pop_if_due — timestamp-gated consumption
          const auto got = buf.pop_if_due(now);
          if (!ref.empty() && ref.front().timestamp <= now) {
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, ref.front());
            ref.pop_front();
          } else {
            EXPECT_FALSE(got.has_value());
          }
          now += rng.next_below(3);
          break;
        }
        default: {  // rare discard_all (§5.3 step 4)
          if (rng.next_below(64) == 0) {
            buf.discard_all();
            ref.clear();
          }
          break;
        }
      }
      ASSERT_EQ(buf.fill(), ref.size());
      ASSERT_EQ(buf.empty(), ref.empty());
      ASSERT_EQ(buf.full(), ref.size() == capacity);
      ASSERT_EQ(buf.free_space(), capacity - ref.size());
    }
  }
}

TEST(CyclicBufferStress, FullAndEmptyDisambiguatedAtEveryFillLevel) {
  constexpr std::size_t kCap = 5;
  CyclicBuffer buf(kCap);
  // Rotate the internal head through several laps so the full/empty
  // check happens at every head position, not just head == 0.
  for (std::uint32_t lap = 0; lap < 3 * kCap; ++lap) {
    ASSERT_TRUE(buf.empty());
    ASSERT_FALSE(buf.full());
    for (std::size_t i = 0; i < kCap; ++i) {
      ASSERT_EQ(buf.fill(), i);
      buf.push({lap, static_cast<std::uint32_t>(i)});
      ASSERT_FALSE(buf.empty());
      ASSERT_EQ(buf.full(), i + 1 == kCap);
    }
    EXPECT_THROW(buf.push({lap, 999}), std::exception);  // overrun guarded
    for (std::size_t i = 0; i < kCap; ++i) {
      ASSERT_EQ(buf.pop().data, i);
    }
    // Stagger the head by one for the next lap.
    buf.push({lap, 0});
    buf.pop();
  }
}

TEST(CyclicBufferStress, ConcurrentProducerConsumerUnderLock) {
  // One buffer shared by a producer and a consumer thread, serialized
  // by an external mutex (CyclicBuffer itself is not thread-safe), so
  // TSan can vet the buffer under that discipline.
  constexpr std::uint32_t kWords = 20000;
  CyclicBuffer buf(8);
  std::mutex mu;
  std::vector<std::uint32_t> consumed;
  consumed.reserve(kWords);

  std::thread producer([&] {
    std::uint32_t next = 0;
    while (next < kWords) {
      std::lock_guard<std::mutex> lk(mu);
      while (next < kWords && !buf.full()) {
        buf.push({next, next});
        ++next;
      }
    }
  });
  std::thread consumer([&] {
    while (consumed.size() < kWords) {
      std::lock_guard<std::mutex> lk(mu);
      while (!buf.empty()) {
        consumed.push_back(buf.pop().data);
      }
    }
  });
  producer.join();
  consumer.join();

  ASSERT_EQ(consumed.size(), kWords);
  for (std::uint32_t i = 0; i < kWords; ++i) {
    ASSERT_EQ(consumed[i], i) << "FIFO order violated at " << i;
  }
}

}  // namespace
}  // namespace tmsim::fpga

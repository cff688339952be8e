// Concurrency tests of the sharded engine's synchronization primitives.
// These are the tests meant to run under -DTMSIM_TSAN=ON (and
// -DTMSIM_SANITIZE=ON): they hammer the barrier's reduction agreement
// and the mailbox's publish/poll visibility from real threads.
//
// "No lost HBR-clear" is the property the engine builds on: a consumer
// that polls with its last-seen version can never miss that a value
// changed, because versions only grow and every publish bumps exactly
// one. A missed change would mean a reader block is never destabilized
// — a silently wrong simulation, not a crash — so these tests count
// observations exactly rather than just checking for data races.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/shard_mailbox.h"

namespace tmsim::core {
namespace {

TEST(ShardBarrier, SingleParticipantNeverBlocks) {
  ShardBarrier b(1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(b.sync(i), i);
  }
}

TEST(ShardBarrier, EveryParticipantSeesTheSameSumEveryRound) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kRounds = 2000;
  ShardBarrier barrier(kThreads);
  std::vector<std::vector<std::uint64_t>> sums(
      kThreads, std::vector<std::uint64_t>(kRounds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        // Contribution depends on thread and round so a stale or
        // misattributed sum cannot collide with the expected value.
        sums[t][r] = barrier.sync(r * kThreads + t);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    // sum over t of (r * kThreads + t)
    const std::uint64_t expect =
        r * kThreads * kThreads + kThreads * (kThreads - 1) / 2;
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(sums[t][r], expect) << "round " << r << " thread " << t;
    }
  }
}

TEST(ShardBarrier, OrdersWritesAcrossRounds) {
  // Data published before a sync must be visible after it — the engine
  // relies on the barrier alone (not the mailbox versions) for ordering
  // plain writes like the stop_ flag and external-input link stores.
  constexpr std::uint64_t kRounds = 3000;
  ShardBarrier barrier(2);
  std::uint64_t plain = 0;  // written by thread A, read by thread B
  std::thread a([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      plain = r + 1;
      barrier.sync(0);  // publish
      barrier.sync(0);  // B read
    }
  });
  std::uint64_t bad = 0;
  std::thread b([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      barrier.sync(0);
      if (plain != r + 1) {
        ++bad;
      }
      barrier.sync(0);
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(bad, 0u);
}

TEST(ShardMailbox, PollSeesExactlyThePublishedSequence) {
  // Single producer / single consumer in barrier-aligned rounds — the
  // engine's actual protocol. The consumer must observe every change
  // exactly once and never a torn value.
  constexpr std::uint64_t kRounds = 4000;
  ShardMailbox mbox(std::vector<std::size_t>{64});
  ShardBarrier barrier(2);
  std::thread producer([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      if (r % 3 != 0) {  // publish on 2 of 3 rounds: polls must miss none
        mbox.publish(0, 0x0101010101010101ull * (r & 0xff) + r);
      }
      barrier.sync(0);
      barrier.sync(0);  // consumer polls between these two syncs
    }
  });
  std::uint64_t seen = 0;
  std::uint64_t last_value = 0;
  bool torn = false;
  std::thread consumer([&] {
    std::uint64_t last_seen = 0;
    std::uint64_t out = 0;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      barrier.sync(0);
      if (mbox.poll(0, last_seen, out)) {
        ++seen;
        last_value = out;
        const std::uint64_t expect = 0x0101010101010101ull * (r & 0xff) + r;
        torn = torn || (last_value != expect);
      }
      barrier.sync(0);
    }
  });
  producer.join();
  consumer.join();
  // Publishes happen strictly before the consumer's poll of the same
  // round, so every published round is seen in that round.
  const std::uint64_t published = kRounds - (kRounds + 2) / 3;
  EXPECT_EQ(seen, published);
  EXPECT_FALSE(torn);
}

TEST(ShardMailbox, NoLostUpdateUnderFreeRunningContention) {
  // Producer publishes as fast as it can with no barrier; a concurrent
  // observer watches the slot's version counter (the only part of a
  // slot that may be touched while the producer runs). Versions must be
  // strictly monotonic — a stuck or decreasing version is exactly the
  // "lost HBR-clear" failure mode — and after join the final poll must
  // surface the last published value.
  constexpr std::uint64_t kPublishes = 20000;
  ShardMailbox mbox(std::vector<std::size_t>{32});
  std::atomic<bool> done{false};
  std::uint64_t regressions = 0;
  std::uint64_t observed_max = 0;
  std::thread observer([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t v = mbox.version(0);
      if (v < last) {
        ++regressions;
      }
      last = std::max(last, v);
    }
    observed_max = last;
  });
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    mbox.publish(0, i & 0xffffffffu);
  }
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_EQ(regressions, 0u);
  EXPECT_LE(observed_max, kPublishes);
  // join() synchronized: the producer is quiescent, polling is legal.
  std::uint64_t last_seen = 0;
  std::uint64_t out = 0;
  ASSERT_TRUE(mbox.poll(0, last_seen, out));
  EXPECT_EQ(last_seen, kPublishes);
  EXPECT_EQ(out, kPublishes & 0xffffffffu);
  EXPECT_FALSE(mbox.poll(0, last_seen, out));
}

TEST(ShardMailbox, SlotsAreIndependent) {
  ShardMailbox mbox(std::vector<std::size_t>{8, 16});
  mbox.publish(0, 0xab);
  EXPECT_EQ(mbox.version(0), 1u);
  EXPECT_EQ(mbox.version(1), 0u);
  std::uint64_t seen1 = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(mbox.poll(1, seen1, out));
  std::uint64_t seen0 = 0;
  std::uint64_t out0 = 0;
  ASSERT_TRUE(mbox.poll(0, seen0, out0));
  EXPECT_EQ(out0, 0xabu);
  EXPECT_FALSE(mbox.poll(0, seen0, out0));
}

TEST(ShardMailbox, RejectsWidthMismatchAndBadSlot) {
  ShardMailbox mbox(std::vector<std::size_t>{8});
  EXPECT_THROW(mbox.publish(0, 0x100), Error);  // bit 8 is above the width
  EXPECT_THROW(mbox.publish(1, 0), Error);
  std::uint64_t seen = 0;
  std::uint64_t out = 0;
  EXPECT_THROW(mbox.poll(1, seen, out), Error);
}

}  // namespace
}  // namespace tmsim::core

// ResultStore completion-feed semantics, pinned: the feed is bounded,
// overflow drops the *oldest* notification (never the newest, never the
// producer), drops are counted and surfaced (farm.results.feed_dropped),
// and dropped notifications lose nothing — the results stay retrievable
// through get(). The §5.2 monitor-buffer discipline applied to job
// completions: a slow consumer must not stall a worker.
#include "farm/result_store.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "farm/farm.h"
#include "obs/metrics.h"

namespace tmsim::farm {
namespace {

JobResult result_with_id(std::uint64_t id) {
  JobResult r;
  r.job_id = id;
  r.status = JobStatus::kDone;
  return r;
}

TEST(ResultStore, FeedOverflowDropsOldestAndCounts) {
  ResultStore store(/*completion_feed_depth=*/4);
  // put() reports exactly which publishes displaced a notification.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_FALSE(store.put(result_with_id(id))) << "id " << id;
  }
  for (std::uint64_t id = 5; id <= 7; ++id) {
    EXPECT_TRUE(store.put(result_with_id(id))) << "id " << id;
  }
  EXPECT_EQ(store.completions_dropped(), 3u);

  // Drop-oldest: the feed holds the *newest* 4 completions, in order.
  EXPECT_EQ(store.drain_completions(),
            (std::vector<std::uint64_t>{4, 5, 6, 7}));

  // Nothing was lost, only the notification: every result — including
  // the dropped ids 1..3 — is still retrievable point-wise.
  for (std::uint64_t id = 1; id <= 7; ++id) {
    ASSERT_TRUE(store.get(id).has_value()) << "id " << id;
    EXPECT_EQ(store.get(id)->job_id, id);
  }
  EXPECT_EQ(store.size(), 7u);

  // After a drain the feed is empty and fills again without drops.
  EXPECT_FALSE(store.put(result_with_id(8)));
  EXPECT_EQ(store.drain_completions(), (std::vector<std::uint64_t>{8}));
  EXPECT_EQ(store.completions_dropped(), 3u);  // unchanged
}

TEST(ResultStore, FeedCarriesFullSixtyFourBitJobIds) {
  // Ids past 2^32 (about 19 h of uptime at the loadgen rate) must reach
  // the feed's consumers whole: farmd routes results by these ids.
  constexpr std::uint64_t kId = (std::uint64_t{1} << 32) + 5;
  ResultStore drained(/*completion_feed_depth=*/4);
  drained.put(result_with_id(kId));
  EXPECT_EQ(drained.drain_completions(), (std::vector<std::uint64_t>{kId}));
  ResultStore streamed(/*completion_feed_depth=*/4);
  streamed.put(result_with_id(kId));
  EXPECT_EQ(streamed.next_batch(0, std::chrono::microseconds(0)),
            (std::vector<std::uint64_t>{kId}));
}

TEST(ResultStore, NextBatchBlocksUntilCompletionOrDeadline) {
  using namespace std::chrono_literals;
  ResultStore store(/*completion_feed_depth=*/8);

  // Empty feed: the deadline-bounded wait returns empty, not never.
  EXPECT_TRUE(store.next_batch(0, 1ms).empty());

  // Ready notifications return immediately, FIFO, bounded by max_ids.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    store.put(result_with_id(id));
  }
  EXPECT_EQ(store.next_batch(3, 0us), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(store.next_batch(0, 0us), (std::vector<std::uint64_t>{4, 5}));
  EXPECT_TRUE(store.next_batch(0, 0us).empty());

  // A put() from another thread wakes a blocked next_batch before its
  // deadline — this is what lets the farmd result pump sleep instead of
  // polling.
  std::thread producer([&] {
    std::this_thread::sleep_for(5ms);
    store.put(result_with_id(42));
  });
  const std::vector<std::uint64_t> woke = store.next_batch(0, 10s);
  producer.join();
  EXPECT_EQ(woke, (std::vector<std::uint64_t>{42}));

  // Drop-oldest accounting is unchanged by the blocking API: overflow
  // past the feed depth still counts, and get() still has everything.
  for (std::uint64_t id = 100; id < 112; ++id) {
    store.put(result_with_id(id));
  }
  EXPECT_EQ(store.completions_dropped(), 4u);
  const std::vector<std::uint64_t> tail = store.next_batch(0, 0us);
  ASSERT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.front(), 104u);
  EXPECT_EQ(tail.back(), 111u);
  for (std::uint64_t id = 100; id < 112; ++id) {
    EXPECT_TRUE(store.get(id).has_value()) << id;
  }
}

TEST(ResultStore, FarmSurfacesFeedDropsAsMetric) {
  obs::MetricsRegistry metrics;
  FarmOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 8;
  opt.completion_feed_depth = 2;
  opt.supervisor_interval_ms = 0.0;
  opt.metrics = &metrics;
  {
    SimFarm farm(opt);
    JobSpec spec;
    spec.name = "feed";
    spec.net.width = 2;
    spec.net.height = 2;
    spec.cycles = 40;
    for (int i = 0; i < 5; ++i) {
      spec.seed = static_cast<std::uint64_t>(i + 1);
      ASSERT_TRUE(farm.submit(spec).accepted);
    }
    farm.drain();
    // 5 completions through a depth-2 feed nobody drained: 3 dropped.
    EXPECT_EQ(farm.results().completions_dropped(), 3u);
    EXPECT_EQ(farm.results().drain_completions().size(), 2u);
  }
  EXPECT_EQ(metrics.counter_value("farm.results.feed_dropped"), 3u);
}

}  // namespace
}  // namespace tmsim::farm

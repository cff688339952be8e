// ResultStore completion-feed semantics, pinned: the feed is the
// publish-order list itself, read through a consumer-owned Cursor. It
// loses nothing — every published id comes back, once, oldest first —
// and any number of cursors each read every id.
#include "farm/result_store.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tmsim::farm {
namespace {

using namespace std::chrono_literals;

JobResult result_with_id(std::uint64_t id) {
  JobResult r;
  r.job_id = id;
  r.status = JobStatus::kDone;
  return r;
}

TEST(ResultStore, FeedCarriesFullSixtyFourBitJobIds) {
  // Ids past 2^32 (about 19 h of uptime at the loadgen rate) must reach
  // the feed's consumers whole: farmd routes results by these ids.
  constexpr std::uint64_t kId = (std::uint64_t{1} << 32) + 5;
  ResultStore store;
  store.put(result_with_id(kId));
  ResultStore::Cursor cursor;
  EXPECT_EQ(store.next_batch(cursor, 0, 0us),
            (std::vector<std::uint64_t>{kId}));
}

TEST(ResultStore, NextBatchBlocksUntilCompletionOrDeadline) {
  ResultStore store;
  ResultStore::Cursor cursor;

  // Nothing published: the deadline-bounded wait returns empty, not never.
  EXPECT_TRUE(store.next_batch(cursor, 0, 1ms).empty());

  // Ready ids return immediately, oldest first, bounded by max_ids.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    store.put(result_with_id(id));
  }
  EXPECT_EQ(store.next_batch(cursor, 3, 0us),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(store.next_batch(cursor, 0, 0us),
            (std::vector<std::uint64_t>{4, 5}));
  EXPECT_TRUE(store.next_batch(cursor, 0, 0us).empty());

  // A put() from another thread wakes a blocked next_batch before its
  // deadline — this is what lets the farmd result pump sleep instead of
  // polling.
  std::thread producer([&] {
    std::this_thread::sleep_for(5ms);
    store.put(result_with_id(42));
  });
  const std::vector<std::uint64_t> woke = store.next_batch(cursor, 0, 10s);
  producer.join();
  EXPECT_EQ(woke, (std::vector<std::uint64_t>{42}));

  // However far the consumer falls behind, every id comes back, in order.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t id = 100; id < 112; ++id) {
    store.put(result_with_id(id));
    expected.push_back(id);
  }
  EXPECT_EQ(store.next_batch(cursor, 0, 0us), expected);
  EXPECT_EQ(cursor.read, store.size());
}

TEST(ResultStore, TwoCursorsEachReadEveryIdOnceInPublishOrder) {
  ResultStore store;
  ResultStore::Cursor a;
  ResultStore::Cursor b;
  std::vector<std::uint64_t> read_a;
  std::vector<std::uint64_t> read_b;
  const auto take = [&store](ResultStore::Cursor& c, std::size_t max,
                             std::vector<std::uint64_t>& into) {
    for (const std::uint64_t id : store.next_batch(c, max, 0us)) {
      into.push_back(id);
    }
  };

  // Puts interleaved with reads of different sizes: cursor a reads one
  // id at a time, b reads whatever is there every third put.
  std::vector<std::uint64_t> published;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    store.put(result_with_id(id * 7));
    published.push_back(id * 7);
    take(a, 1, read_a);
    if (id % 3 == 0) {
      take(b, 0, read_b);
    }
  }
  take(a, 0, read_a);
  take(b, 0, read_b);

  EXPECT_EQ(read_a, published);
  EXPECT_EQ(read_b, published);
  EXPECT_TRUE(store.next_batch(a, 0, 0us).empty());
  EXPECT_TRUE(store.next_batch(b, 0, 0us).empty());

  // A cursor made late still starts at the first result.
  ResultStore::Cursor late;
  EXPECT_EQ(store.next_batch(late, 0, 0us), published);
}

}  // namespace
}  // namespace tmsim::farm

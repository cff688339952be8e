// ResultStore: the thread-safe sink where workers publish finished
// JobResults and submitters collect them. Two access patterns:
//
//   - point lookup / blocking wait by job id (get / wait), and
//   - a bounded completion feed (drain_completions) of full 64-bit job
//     ids, a RingBuffer with the drop-oldest discipline of the cyclic
//     buffers that decouple the ARM from the FPGA (§5.2) — the consumer
//     that falls behind loses the *oldest* notifications (counted),
//     never blocks a worker, and can always recover the dropped results
//     through get().
//
// One mutex guards the results, their publish order and the feed; one
// condition variable wakes both id waiters and feed consumers
// (DESIGN.md §14). A result's list node is allocated before the lock is
// taken, so a publish holds it only to link the node, index it and push
// its id onto the feed.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.h"
#include "farm/job_result.h"

namespace tmsim::farm {

class ResultStore {
 public:
  explicit ResultStore(std::size_t completion_feed_depth = 64);

  /// Publishes a final result (workers call this exactly once per job).
  /// Never blocks. Returns true when the bounded completion feed was
  /// full and its *oldest* notification was dropped to make room
  /// (drop-oldest, pinned by tests/farm/result_store_test.cpp); the
  /// caller surfaces the drop as `farm.results.feed_dropped`.
  bool put(JobResult result);

  std::optional<JobResult> get(std::uint64_t job_id) const;

  /// Blocks until the job's result is published, then returns it.
  JobResult wait(std::uint64_t job_id) const;

  /// All published results, in completion order.
  std::vector<JobResult> all() const;
  std::size_t size() const;

  /// Job ids completed since the last drain, oldest first. When the feed
  /// overflowed in between, the oldest ids were dropped (see
  /// completions_dropped()); their results remain retrievable via get().
  std::vector<std::uint64_t> drain_completions();
  std::uint64_t completions_dropped() const;

  /// Deadline-bounded blocking drain for streaming consumers: waits up
  /// to `timeout` for at least one completion notification, then
  /// returns up to `max_ids` of them, oldest first (same drop-oldest
  /// accounting as drain_completions). Returns an empty vector on
  /// timeout — never throws, never blocks past the deadline. A
  /// `max_ids` of 0 means "no batch bound". Wakes immediately when a
  /// notification is already pending.
  std::vector<std::uint64_t> next_batch(std::size_t max_ids,
                                        std::chrono::microseconds timeout);

  /// Completion-feed occupancy (notifications waiting to be drained)
  /// and capacity — surfaced by SimFarm::introspect().
  std::size_t feed_fill() const;
  std::size_t feed_capacity() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::list<JobResult> results_;  ///< publish order
  std::unordered_map<std::uint64_t, std::list<JobResult>::const_iterator>
      index_;
  RingBuffer<std::uint64_t> feed_;
  std::uint64_t dropped_ = 0;
};

}  // namespace tmsim::farm

// ResultStore: the thread-safe sink where workers publish finished
// JobResults and submitters collect them. Two access patterns:
//
//   - point lookup / blocking wait by job id (get / wait), and
//   - the completion feed: the publish-order list itself, read through
//     a Cursor that each consumer owns (next_batch). Nothing is ever
//     erased, so the feed loses no id, never blocks a worker, and any
//     number of consumers each read every id once, oldest first.
//
// One mutex guards the results and their publish order; one condition
// variable wakes both id waiters and feed consumers (DESIGN.md §14). A
// result's list node is allocated before the lock is taken, so a
// publish holds it only to link the node and index it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "farm/job_result.h"

namespace tmsim::farm {

class ResultStore {
 public:
  /// One consumer's read position in publish order. A default Cursor
  /// starts before the first result; only next_batch on the store it is
  /// used with moves it.
  struct Cursor {
    std::size_t read = 0;  ///< results read so far
    std::list<JobResult>::const_iterator last{};  ///< valid when read > 0
  };

  /// Publishes a final result (workers call this exactly once per job).
  /// Never blocks on a consumer.
  void put(JobResult result);

  std::optional<JobResult> get(std::uint64_t job_id) const;

  /// Blocks until the job's result is published, then returns it.
  JobResult wait(std::uint64_t job_id) const;

  /// All published results, in completion order.
  std::vector<JobResult> all() const;
  std::size_t size() const;

  /// The ids published after `cursor`, oldest first, at most `max_ids`
  /// of them (0 = no bound); moves the cursor past them. Waits up to
  /// `timeout` when nothing new has been published, and returns an
  /// empty vector if nothing arrives by then.
  std::vector<std::uint64_t> next_batch(Cursor& cursor, std::size_t max_ids,
                                        std::chrono::microseconds timeout);

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::list<JobResult> results_;  ///< publish order; never erased
  std::unordered_map<std::uint64_t, std::list<JobResult>::const_iterator>
      index_;
};

}  // namespace tmsim::farm

#include "farm/result_store.h"

#include <algorithm>

#include "common/error.h"

namespace tmsim::farm {

ResultStore::ResultStore(std::size_t completion_feed_depth)
    : feed_(completion_feed_depth == 0 ? 1 : completion_feed_depth) {}

bool ResultStore::put(JobResult result) {
  const std::uint64_t id = result.job_id;
  std::list<JobResult> node;
  node.push_back(std::move(result));
  bool dropped_one = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TMSIM_CHECK_MSG(index_.emplace(id, node.cbegin()).second,
                    "duplicate result for a job id");
    results_.splice(results_.end(), node);
    // Completion feed: drop-oldest on overflow (the §5.2 monitor-buffer
    // discipline — a slow consumer must not stall the producer).
    dropped_one = feed_.full();
    dropped_ += dropped_one ? 1 : 0;
    feed_.push_overwrite(id);
  }
  cv_.notify_all();
  return dropped_one;
}

std::optional<JobResult> ResultStore::get(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(job_id);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return *it->second;
}

JobResult ResultStore::wait(std::uint64_t job_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return index_.contains(job_id); });
  return *index_.at(job_id);
}

std::vector<JobResult> ResultStore::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {results_.begin(), results_.end()};
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return results_.size();
}

std::vector<std::uint64_t> ResultStore::drain_completions() {
  return next_batch(0, std::chrono::microseconds(0));
}

std::vector<std::uint64_t> ResultStore::next_batch(
    std::size_t max_ids, std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return !feed_.empty(); });
  const std::size_t n =
      max_ids == 0 ? feed_.size() : std::min(feed_.size(), max_ids);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  while (ids.size() < n) {
    ids.push_back(feed_.pop());
  }
  return ids;
}

std::uint64_t ResultStore::completions_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t ResultStore::feed_fill() const {
  std::lock_guard<std::mutex> lock(mu_);
  return feed_.size();
}

std::size_t ResultStore::feed_capacity() const {
  return feed_.capacity();
}

}  // namespace tmsim::farm

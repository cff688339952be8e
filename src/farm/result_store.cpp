#include "farm/result_store.h"

#include <algorithm>
#include <iterator>

#include "common/error.h"

namespace tmsim::farm {

void ResultStore::put(JobResult result) {
  const std::uint64_t id = result.job_id;
  std::list<JobResult> node;
  node.push_back(std::move(result));
  {
    std::lock_guard<std::mutex> lock(mu_);
    TMSIM_CHECK_MSG(index_.emplace(id, node.cbegin()).second,
                    "duplicate result for a job id");
    results_.splice(results_.end(), node);
  }
  cv_.notify_all();
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

std::vector<std::uint64_t> ResultStore::next_batch(
    Cursor& cursor, std::size_t max_ids, std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return results_.size() > cursor.read; });
  const std::size_t unread = results_.size() - cursor.read;
  const std::size_t n = max_ids == 0 ? unread : std::min(unread, max_ids);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  auto it = cursor.read == 0 ? results_.cbegin() : std::next(cursor.last);
  for (; ids.size() < n; ++it) {
    ids.push_back(it->job_id);
    cursor.last = it;
  }
  cursor.read += n;
  return ids;
}

}  // namespace tmsim::farm

#include "farm/admission.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace tmsim::farm {

namespace {

double steady_now_us() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) *
         1e-3;
}

/// Display track for queue-side spans (workers live on 100 + w).
constexpr std::uint32_t kQueueTid = 90;

}  // namespace

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kStopped: return "stopped";
    case RejectReason::kInvalidSpec: return "invalid_spec";
    case RejectReason::kTooLarge: return "too_large";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(std::size_t capacity,
                               SystemCycle max_job_cycles,
                               std::function<double()> now_fn,
                               obs::Tracer* tracer)
    : capacity_(capacity),
      max_job_cycles_(max_job_cycles),
      now_fn_(now_fn ? std::move(now_fn) : steady_now_us),
      tracer_(tracer) {
  TMSIM_CHECK_MSG(capacity >= 1, "queue capacity must be positive");
}

std::size_t AdmissionQueue::enqueue(QueuedJob job, RequeuePosition pos) {
  // Copy what the span needs before the move; record after the unlock.
  const obs::TraceContext trace = job.trace;
  const auto attempt = static_cast<std::uint32_t>(job.attempts);
  const double queued_us = job.queued_us;
  const Priority prio = job.spec.priority;
  std::list<QueuedJob> node;  // allocated here, spliced under the lock
  node.push_back(std::move(job));
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::list<QueuedJob>& cls = classes_[static_cast<std::size_t>(prio)];
    cls.splice(pos == RequeuePosition::kFront ? cls.begin() : cls.end(),
               node);
    depth = depth_locked();
  }
  cv_.notify_one();
  if (tracer_ != nullptr && trace.sampled()) {
    tracer_->span(trace, tracer_->alloc_span_id(), trace.span_id,
                  "admission.enqueue", attempt, kQueueTid, queued_us,
                  queued_us,
                  {{"class", priority_name(prio)},
                   {"pos", pos == RequeuePosition::kFront ? "front" : "back"}});
  }
  return depth;
}

SubmitOutcome AdmissionQueue::submit(JobSpec spec, double now_us,
                                     const AcceptHook& on_accept,
                                     const obs::TraceContext* remote) {
  SubmitOutcome out;
  out.queue_capacity = capacity_;
  // Validate outside the lock: validation walks GT stream paths and must
  // not serialize submitters against each other.
  try {
    spec.validate();
  } catch (const std::exception& e) {
    out.reason = RejectReason::kInvalidSpec;
    out.detail = e.what();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  if (spec.cycles > max_job_cycles_) {
    out.reason = RejectReason::kTooLarge;
    out.detail = "cycle budget " + std::to_string(spec.cycles) +
                 " exceeds the farm ceiling " +
                 std::to_string(max_job_cycles_);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  if (stopped_.load(std::memory_order_acquire)) {
    out.reason = RejectReason::kStopped;
    out.detail = "farm is shutting down";
    out.queue_depth = depth();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  // Capacity is a lock-free reservation: claim a fresh slot, give it
  // back on overflow. The bound stays strict under concurrent submits.
  const std::size_t fresh_before =
      fresh_queued_.fetch_add(1, std::memory_order_acq_rel);
  if (fresh_before >= capacity_) {
    fresh_queued_.fetch_sub(1, std::memory_order_acq_rel);
    out.reason = RejectReason::kQueueFull;
    out.queue_depth = depth();
    // Deterministic backpressure hint: a pure function of the fresh
    // backlog, so identical rejection states yield identical hints (see
    // the header's backpressure contract).
    out.retry_after_us =
        kRetryAfterUsPerJob * static_cast<double>(fresh_before);
    out.detail = "admission queue full: " + std::to_string(fresh_before) +
                 "/" + std::to_string(capacity_) + " fresh jobs queued (" +
                 std::to_string(out.queue_depth) +
                 " total); suggest retrying in " +
                 std::to_string(
                     static_cast<std::uint64_t>(out.retry_after_us)) +
                 "us";
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  QueuedJob job;
  job.job_id = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.spec = std::move(spec);
  job.submitted_us = now_us;
  job.queued_us = now_us;
  // Head-sample *before* the fingerprint hash: unsampled jobs (the
  // common case at 1-in-N) skip all tracing work, not just storage.
  // Remote submissions carrying a client trace are always sampled —
  // the client already opened its half of the trace.
  const bool remote_traced = remote != nullptr && remote->trace_id != 0;
  if (tracer_ != nullptr && (remote_traced || tracer_->should_sample())) {
    job.trace = tracer_->start_trace(job.spec.fingerprint());
    if (remote_traced) {
      // Span *links*, not parentage: the client's trace is a separate
      // tree (trace_validate wants exactly one root per trace), so the
      // wire crossing is recorded as link attributes on the submit span.
      tracer_->span(job.trace, tracer_->alloc_span_id(), job.trace.span_id,
                    "farm.submit", 0, kQueueTid, now_us, now_us,
                    {{"job", std::to_string(job.job_id)},
                     {"name", job.spec.name},
                     {"link.client_trace", std::to_string(remote->trace_id)},
                     {"link.client_span", std::to_string(remote->span_id)}});
    } else {
      tracer_->span(job.trace, tracer_->alloc_span_id(), job.trace.span_id,
                    "farm.submit", 0, kQueueTid, now_us, now_us,
                    {{"job", std::to_string(job.job_id)},
                     {"name", job.spec.name}});
    }
  }
  if (job.spec.deadline_ms > 0) {
    job.deadline_at_us =
        now_us + static_cast<double>(job.spec.deadline_ms) * 1e3;
  }
  out.accepted = true;
  out.job_id = job.job_id;
  out.trace = job.trace;
  // The accept hook runs before the job is visible to any popper (and
  // with the queue lock released), closing the submit/pop TOCTOU.
  if (on_accept) {
    on_accept(job);
  }
  out.queue_depth = enqueue(std::move(job), RequeuePosition::kBack);
  return out;
}

bool AdmissionQueue::requeue(QueuedJob job, double now_us,
                             RequeuePosition pos) {
  // Deliberately allowed after stop(): admitted work must always be able
  // to come back (returning false would strand the session), and
  // shutdown drains the backlog through pop_blocking() anyway.
  job.queued_us = now_us;
  job.fresh = false;
  job.front_requeued = pos == RequeuePosition::kFront;
  enqueue(std::move(job), pos);
  return true;
}

std::size_t AdmissionQueue::depth_locked() const {
  std::size_t n = 0;
  for (const std::list<QueuedJob>& cls : classes_) {
    n += cls.size();
  }
  return n;
}

bool AdmissionQueue::take_first_eligible(std::size_t c, double now,
                                         double& next_eligible,
                                         std::list<QueuedJob>& out) {
  std::list<QueuedJob>& cls = classes_[c];
  for (auto it = cls.begin(); it != cls.end(); ++it) {
    if (it->not_before_us > now) {
      next_eligible = std::min(next_eligible, it->not_before_us);
      continue;  // backoff not expired; FIFO among *eligible* jobs
    }
    if (it->fresh) {
      fresh_queued_.fetch_sub(1, std::memory_order_acq_rel);
      it->fresh = false;
    }
    out.splice(out.end(), cls, it);
    return true;
  }
  return false;
}

std::optional<QueuedJob> AdmissionQueue::pop_blocking() {
  std::list<QueuedJob> taken;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const double now = now_fn_();
      double next_eligible = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < kNumPriorities && taken.empty(); ++c) {
        take_first_eligible(c, now, next_eligible, taken);
      }
      if (!taken.empty()) {
        break;
      }
      if (next_eligible < std::numeric_limits<double>::infinity()) {
        // Only backoff'd jobs remain (stopped or not — admitted work is
        // drained either way). Sleep until the earliest becomes eligible
        // or a new enqueue changes the picture.
        const auto wake_us = static_cast<std::int64_t>(
            std::max(1.0, next_eligible - now));
        cv_.wait_for(lock, std::chrono::microseconds(wake_us));
        continue;
      }
      if (stopped_.load(std::memory_order_acquire)) {
        return std::nullopt;  // stopped and drained
      }
      // Enqueues and stop() change the lists or stopped_ under mu_, then
      // notify, so the rescan above is the wait's predicate; a spurious
      // wakeup just rescans.
      cv_.wait(lock);
    }
  }
  QueuedJob job = std::move(taken.front());
  if (tracer_ != nullptr && job.trace.sampled()) {
    // The queue-wait span: last (re)enqueue → this dequeue.
    tracer_->span(job.trace, tracer_->alloc_span_id(), job.trace.span_id,
                  "admission.dequeue",
                  static_cast<std::uint32_t>(job.attempts), kQueueTid,
                  job.queued_us, now_fn_());
  }
  return job;
}

bool AdmissionQueue::has_higher_than(Priority p) const {
  if (p == Priority::kInteractive) {
    return false;  // nothing outranks the top class
  }
  const double now = now_fn_();
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t c = 0; c < static_cast<std::size_t>(p); ++c) {
    for (const QueuedJob& job : classes_[c]) {
      if (job.not_before_us <= now) {
        return true;
      }
    }
  }
  return false;
}

void AdmissionQueue::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

bool AdmissionQueue::stopped() const {
  return stopped_.load(std::memory_order_acquire);
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_locked();
}

std::size_t AdmissionQueue::depth(Priority p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return classes_[static_cast<std::size_t>(p)].size();
}

std::uint64_t AdmissionQueue::jobs_submitted() const {
  return submitted_.load(std::memory_order_relaxed);
}

std::uint64_t AdmissionQueue::jobs_rejected() const {
  return rejected_.load(std::memory_order_relaxed);
}

std::array<AdmissionQueue::ClassDepth, kNumPriorities>
AdmissionQueue::class_depths() const {
  std::array<ClassDepth, kNumPriorities> out{};
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    out[c].depth = classes_[c].size();
    if (out[c].depth == 0) {
      continue;
    }
    // The front-requeued prefix and the first job behind it (see
    // ClassDepth).
    out[c].oldest_queued_us = classes_[c].front().queued_us;
    for (const QueuedJob& j : classes_[c]) {
      out[c].oldest_queued_us = std::min(out[c].oldest_queued_us, j.queued_us);
      if (!j.front_requeued) {
        break;
      }
    }
  }
  return out;
}

}  // namespace tmsim::farm

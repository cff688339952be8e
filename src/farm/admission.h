// AdmissionQueue: bounded, priority-classed job intake with backpressure.
//
// ## Backpressure contract (DESIGN.md §13)
//
// The farm never blocks a submitter: a submit() against a full queue (or
// a stopped farm, or with an invalid/oversized spec) returns a structured
// rejection immediately — reject-with-reason, the same discipline the
// FPGA's stimuli interface applies to a full cyclic buffer (§5.3: check
// free space, never overrun). A kQueueFull outcome carries everything a
// well-behaved submitter needs to make a shedding decision:
//
//   - `queue_depth`    — total jobs queued at the instant of rejection,
//   - `queue_capacity` — the fresh-submission bound that was hit,
//   - `retry_after_us` — a deterministic resubmission hint,
//                        kRetryAfterUsPerJob × fresh backlog. It is a
//                        *pure function of queue state*, so identical
//                        rejection states produce identical hints
//                        (load-test replays stay reproducible).
//
// The hint is advisory: resubmitting earlier is never an error, it just
// earns another structured reject. Capacity bounds only *fresh*
// submissions; requeued work (preemption, retry) is exempt, because
// admitted work must always be able to come back.
//
// Ordering: strict priority (interactive > normal > batch), FIFO within
// a class. Preempted jobs re-enter through requeue(kFront) and go to the
// *front* of their class so a preempted job is not overtaken by later
// submissions of its own class. Retried jobs re-enter through
// requeue(kBack) — the back of their class, optionally with a
// `not_before_us` backoff stamp — so a flaky job never starves fresh
// work of its own class. A job whose not_before_us lies in the future is
// invisible to pop_blocking() until the backoff expires.
//
// ## One lock (DESIGN.md §14)
//
// Each priority class is one list, and all three sit behind one mutex
// with one condition variable. Queue position is the order: submits and
// kBack retries go to the back, kFront requeues to the front, and a pop
// takes the first eligible job from the front of the highest non-empty
// class. Spec validation, the capacity reservation (one atomic) and the
// accept hook run outside the lock, and list nodes are allocated and
// freed outside it too: the critical sections only splice nodes.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "farm/job_spec.h"
#include "farm/session.h"
#include "obs/trace.h"

namespace tmsim::farm {

enum class RejectReason : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,    ///< capacity reached; see retry_after_us
  kStopped = 2,      ///< farm is shutting down
  kInvalidSpec = 3,  ///< JobSpec::validate() threw (detail has the why)
  kTooLarge = 4,     ///< cycle budget above the farm's per-job ceiling
};

const char* reject_reason_name(RejectReason r);

/// Deterministic retry-after slope: microseconds of suggested backoff
/// per fresh job already queued at rejection time.
inline constexpr double kRetryAfterUsPerJob = 500.0;

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t job_id = 0;            ///< valid when accepted
  RejectReason reason = RejectReason::kNone;
  std::string detail;                  ///< human-readable rejection cause
  /// Backpressure context, filled on every outcome: total queued jobs
  /// (after enqueue when accepted, at rejection otherwise) and the
  /// fresh-submission capacity.
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  /// kQueueFull only: deterministic resubmission hint (see header).
  /// 0 on every other outcome.
  double retry_after_us = 0.0;
  /// Tracing identity assigned at admission (trace_id 0 when the job was
  /// not sampled). Lets a network front-end report the server-side trace
  /// back to the remote submitter.
  obs::TraceContext trace;
};

/// One queued unit of work. `session` is null for a fresh submission (or
/// a retry restarting from scratch) and carries the resumable execution
/// state for a preempted / reclaimed one.
struct QueuedJob {
  std::uint64_t job_id = 0;
  JobSpec spec;
  std::shared_ptr<SimSession> session;
  bool fresh = true;          ///< counts against capacity until first pop
  std::size_t attempts = 1;   ///< executions begun (1 = first attempt)
  std::size_t preemptions = 0;
  std::size_t slices = 0;
  double submitted_us = 0.0;  ///< timestamp of the original submit
  double queued_us = 0.0;     ///< timestamp of the last (re)enqueue
  double first_us = 0.0;    ///< timestamp of first execution (0 = never ran)
  double exec_us = 0.0;     ///< accumulated execution time
  /// Absolute deadline (farm clock), stamped at submit from
  /// spec.deadline_ms. 0 = none.
  double deadline_at_us = 0.0;
  /// Retry backoff: invisible to pop_blocking() before this instant.
  double not_before_us = 0.0;
  /// Set by a kFront requeue: the job sits in its class's front prefix,
  /// the only part class_depths() walks.
  bool front_requeued = false;
  /// Distributed-tracing identity (DESIGN.md §15), stamped at submit
  /// when the job is sampled. trace_id 0 (the default) disables every
  /// downstream recording site for this job.
  obs::TraceContext trace;
  /// Cooperative cancel token, stamped by the accept hook (the farm's
  /// control record holds the other reference). Null without a hook.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Currently open execution-segment span (one per dispatch), 0
  /// between dispatches. Owned by the worker running the job.
  std::uint64_t exec_span = 0;
  double exec_span_start_us = 0.0;
};

/// Where requeued work re-enters its priority class.
enum class RequeuePosition : std::uint8_t {
  kFront = 0,  ///< preemption / supervisor reclaim: must not be overtaken
  kBack = 1,   ///< retry: must not starve fresh same-class work
};

class AdmissionQueue {
 public:
  /// Runs on an accepted job after its id is assigned but *before* it
  /// becomes poppable — the farm installs its per-job control record
  /// here and stamps the job's cancel token, so a worker can never see
  /// a control-less job. Called with no queue locks held.
  using AcceptHook = std::function<void(QueuedJob& job)>;

  /// `capacity` bounds *fresh* submissions queued at once;
  /// `max_job_cycles` is the per-job cycle ceiling (kTooLarge above it).
  /// `now_fn` supplies the clock `not_before_us` stamps are compared
  /// against (defaults to a steady µs clock; the farm passes its own so
  /// queue time and trace span time share an epoch).
  /// A non-null `tracer` samples submissions and records the
  /// enqueue/dequeue spans of sampled jobs (span timestamps come from
  /// `now_fn`, so all of a trace's spans share one clock).
  AdmissionQueue(std::size_t capacity, SystemCycle max_job_cycles,
                 std::function<double()> now_fn = {},
                 obs::Tracer* tracer = nullptr);

  /// Validates and either enqueues (assigning a job id and stamping the
  /// deadline) or rejects. Never blocks. `on_accept`, when given, runs
  /// after the id is assigned and before the job is visible to poppers.
  /// A non-null `remote` marks the submission as arriving over the wire
  /// with that client-side trace identity: the job is then *always*
  /// sampled (the client already paid for a trace; dropping the server
  /// half would orphan it) and the client's ids are recorded as span
  /// link attributes on the submit span.
  SubmitOutcome submit(JobSpec spec, double now_us,
                       const AcceptHook& on_accept = {},
                       const obs::TraceContext* remote = nullptr);

  /// Re-enqueues admitted work. Exempt from the capacity bound and
  /// deliberately allowed after stop() — admitted work must always be
  /// able to come back, and shutdown drains the backlog. Does not touch
  /// the preemption counter — the caller accounts for *why* the job
  /// came back. Always returns true.
  bool requeue(QueuedJob job, double now_us,
               RequeuePosition pos = RequeuePosition::kFront);

  /// Blocks until eligible work is available (highest priority class
  /// first, queue order within a class, jobs with a future
  /// not_before_us skipped until their backoff expires) or the queue is
  /// stopped-and-empty (then nullopt). Backoff'd jobs are still drained
  /// after stop(): admitted work always resolves.
  std::optional<QueuedJob> pop_blocking();

  /// True when any queued *eligible* job outranks `p` — the preemption
  /// predicate workers poll between quanta.
  bool has_higher_than(Priority p) const;

  /// Wakes all waiters; pop_blocking() drains the backlog then returns
  /// nullopt. Subsequent submits are rejected with kStopped.
  void stop();
  bool stopped() const;

  std::size_t depth() const;
  std::size_t depth(Priority p) const;
  /// Accepted fresh submissions. Job ids are 1..jobs_submitted().
  std::uint64_t jobs_submitted() const;
  std::uint64_t jobs_rejected() const;

  /// Per-class occupancy snapshot for SimFarm::introspect().
  struct ClassDepth {
    std::size_t depth = 0;
    /// Oldest queued_us in the class (0 when empty); `now -
    /// oldest_queued_us` is the class's oldest age. Front requeues sit
    /// ahead of the rest of their class, which is in enqueue order, so
    /// the scan takes the front-requeued prefix (at most one job per
    /// worker) and the first job behind it, not the backlog. A submit
    /// stamps the caller's clock before it takes the lock, so one that
    /// stalls in between can land behind a younger job: the age is
    /// exact up to that stall.
    double oldest_queued_us = 0.0;
  };
  /// Indexed by priority class; callable from any thread.
  std::array<ClassDepth, kNumPriorities> class_depths() const;

 private:
  /// Pushes `job` into its class (front or back), wakes one popper and
  /// returns the total depth after the push.
  std::size_t enqueue(QueuedJob job, RequeuePosition pos);
  std::size_t depth_locked() const;
  /// Splices the first eligible job of class `c` onto `out`. Returns
  /// false when none is eligible. Lowers `next_eligible` to the earliest
  /// backoff expiry it skipped. Caller holds mu_.
  bool take_first_eligible(std::size_t c, double now, double& next_eligible,
                           std::list<QueuedJob>& out);

  const std::size_t capacity_;
  const SystemCycle max_job_cycles_;
  const std::function<double()> now_fn_;
  obs::Tracer* const tracer_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<std::list<QueuedJob>, kNumPriorities> classes_;  ///< mu_
  /// Written under mu_ (so a popper cannot miss it before waiting), read
  /// lock-free by submit().
  std::atomic<bool> stopped_{false};
  /// Fresh jobs queued, reserved by submit() before the push and
  /// released by the pop that takes the job.
  std::atomic<std::size_t> fresh_queued_{0};
  /// Accepted fresh submissions; the n-th accepted job gets id n.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace tmsim::farm

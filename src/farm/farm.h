// SimFarm: a multi-tenant batch simulation service over the engines —
// many queued JobSpecs, a fixed pool of worker threads, each worker
// owning a small cache of reusable engine instances, results landing in
// a thread-safe ResultStore.
//
// Scheduling model (DESIGN.md §11):
//   - admission through a bounded priority queue (AdmissionQueue) that
//     rejects with a structured reason instead of ever blocking a
//     submitter;
//   - workers run a job in quanta of `preempt_quantum` system cycles;
//     between quanta they poll for waiting higher-priority work and, if
//     any, *preempt*: checkpoint the session (EngineCheckpoint /
//     ArmHost slicing), requeue it at the front of its class, and pick
//     up the urgent job — possibly on a different worker's engine;
//   - the whole dance is invisible in the results: a job preempted N
//     times across M workers returns bit-identical summaries, fault
//     reports, and state digests to a standalone run
//     (tests/farm/farm_determinism_test.cpp enforces this over
//     randomized specs).
//
// Fault tolerance (DESIGN.md §13): every accepted job resolves to
// exactly one terminal status — kDone, kFailed (with a structured
// JobFailure: kind, cycle, last checkpoint, replay tuple), or
// kCancelled (with a CancelCause) — whatever happens to the workers
// running it:
//   - *deadlines & cancellation*: cancel() flips a per-job token that
//     sessions check cooperatively at slice boundaries (core) and
//     simulation-period boundaries (hosted); JobSpec::deadline_ms is
//     enforced the same way, by the worker at each boundary and by the
//     supervisor for jobs still in the queue. Races between cancel and
//     completion resolve deterministically: the first publisher to mark
//     the job terminal wins, the loser is suppressed.
//   - *failure containment*: a worker that sees a job throw — or the
//     hardened ArmHost abort with a FaultReport — publishes a
//     structured failure and keeps serving the queue. Transient classes
//     (TransientError chaos/contention, fault-report escalation) are
//     retried up to JobSpec::max_retries with deterministic seeded
//     backoff, requeued at the *back* of their class so retries never
//     starve fresh work; a transient job that exhausts its budget is
//     poison and lands in quarantined() with its replay tuple.
//   - *worker supervision*: a supervisor thread watches per-worker
//     heartbeats. A worker that dies (cooperatively, at a slice
//     boundary — kill_worker() or a chaos kKillWorker action) is
//     joined, its in-flight job reclaimed from the last checkpoint and
//     requeued at the front of its class, and the pool healed by
//     respawning into the same slot. A worker that is alive but stops
//     beating for `supervisor_miss_threshold` scans is *stuck*; with
//     supervisor_escalate_stuck the supervisor cancels its job
//     (CancelCause::kSupervisor) instead of letting it wedge the pool.
//   - the chaos proof: tests/farm/farm_chaos_test.cpp drives a farm
//     through injected exceptions, forced retries, and worker kills
//     (both flavors) over ≥100 randomized specs under TSan and asserts
//     (a) exactly one terminal result per accepted spec and (b) every
//     completed job bit-identical to a standalone run.
//
// Scaling (DESIGN.md §14): the admission queue, the result store and the
// per-job control table each have one mutex, held only for a push, a
// pop or a map update; specs are validated and jobs simulated outside
// all of them, and in-flight accounting is a single atomic — so adding
// workers adds throughput until the machine runs out of cores
// (tests/farm/farm_scaling_test.cpp pins w4 ≥ 2× w1 on a paced
// workload). A worker pops one job at a time; its small engine cache
// (kEngineCachePerWorker, farm.cpp) keeps engines warm across jobs with
// equal engine_cache_key. With memo_capacity > 0, a kDone result is
// cached under JobSpec::fingerprint() (LRU-bounded) and an identical
// later spec is served without simulating — sound because the
// fingerprint covers the spec's entire canonical serialization and every
// simulation-visible output is a pure function of the spec
// (tests/farm/farm_memo_test.cpp proves bit-identity). Served results
// carry memo_hit in their scheduling record.
//
// Observability (all optional, null = zero overhead):
//   farm.admission.{submitted,accepted,rejected} (+ per-reason labels),
//   farm.queue.depth{class=...} gauges, farm.jobs.{completed,failed
//   (+reason=...),cancelled (+cause=...)}, farm.retries.{scheduled,
//   exhausted}, farm.failures.quarantined, farm.cancellations.requested,
//   farm.supervisor.{scans,workers_lost,jobs_reclaimed,respawns,stuck,
//   deadlines_enforced},
//   farm.{preemptions,resumes,checkpoints}, per-worker
//   farm.worker.{slices,jobs,busy_us}{worker=i} counters — busy_us
//   bills *every* executed slice, including slices of jobs that later
//   fail or get cancelled — and a farm.worker.utilization gauge at
//   shutdown. Slice spans and preempt/kill events come from the tracer
//   and the flight recorder below.
//
// Distributed tracing + flight recorder + introspection (DESIGN.md
// §15, all off by default and provably free when off):
//   - FarmOptions::tracer samples submissions and threads a
//     TraceContext through the job's whole life — submit,
//     enqueue/dequeue, one farm.exec segment per dispatch (attach and
//     slice children), retry/backoff, supervisor reclaim, publish — so
//     one job renders as one connected span tree across workers,
//     retries, and preemptions (export via Tracer::write_jsonl /
//     export_chrome; checked by obs::trace_validate).
//   - FarmOptions::flight_recorder_depth arms a bounded per-worker
//     ring of structured events; every kFailed result carries the
//     failing worker's recent events for its job in
//     failure.flight_recording, next to the replay tuple.
//   - introspect() returns a JSON snapshot (per-class queue depths +
//     oldest age, worker states + current span, inflight /
//     memo / published-result counters) from any thread, and
//     introspect_interval_ms arms a thread that writes it to
//     introspect_path periodically.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "farm/admission.h"
#include "farm/result_store.h"
#include "farm/session.h"
#include "obs/flight_recorder.h"

namespace tmsim::obs {
class Counter;
class MetricsRegistry;
}  // namespace tmsim::obs

namespace tmsim::farm {

/// One observation point of the chaos hook: the farm calls it on the
/// worker thread at every slice boundary, before the slice runs.
struct ChaosEvent {
  std::size_t worker = 0;       ///< worker about to run the slice
  std::uint64_t job_id = 0;
  const JobSpec* spec = nullptr;
  std::size_t attempt = 1;      ///< 1-based execution attempt
  std::size_t slice = 0;        ///< slices already executed for this job
};

/// What the chaos hook may do to the farm (tests/bench only; the hook
/// must be thread-safe — it runs concurrently on every worker).
enum class ChaosAction : std::uint8_t {
  kNone = 0,
  /// Throw TransientError out of the slice (retried up to max_retries).
  kThrowTransient = 1,
  /// Throw a plain Error (classified kEngineError, never retried).
  kThrowPermanent = 2,
  /// The worker dies *gracefully* at this boundary: it detaches the
  /// session (consistent checkpoint + harness pair) and exits; the
  /// supervisor reclaims the job and resumes it from the checkpoint.
  kKillWorker = 3,
  /// The worker dies and its session is lost: the job restarts from
  /// scratch on another worker — bit-identical by the determinism
  /// contract, since everything derives from the spec.
  kKillWorkerLoseSession = 4,
};

/// Outcome of SimFarm::cancel().
enum class CancelResult : std::uint8_t {
  kUnknownJob = 0,      ///< id never accepted by this farm
  kAlreadyFinished = 1, ///< terminal result already published (or racing in)
  kRequested = 2,       ///< token flipped; resolves at the next boundary
};

const char* cancel_result_name(CancelResult r);

/// Post-mortem record of a poison job: a transient failure class that
/// exhausted its retry budget. `replay` is the canonical serialized
/// spec — rerunning it reproduces the failure bit-for-bit.
struct QuarantineRecord {
  std::uint64_t job_id = 0;
  std::string name;
  FailureKind kind = FailureKind::kNone;
  std::size_t attempts = 0;  ///< executions, all failed
  std::string message;       ///< last failure message
  std::string replay;        ///< JobSpec::serialize()
};

struct FarmOptions {
  std::size_t num_workers = 2;
  /// Fresh submissions queued at once before kQueueFull backpressure.
  std::size_t queue_capacity = 64;
  /// System cycles per slice; preemption, cancellation, deadlines, and
  /// chaos are only checked at slice boundaries, so this is the
  /// scheduling latency in simulated cycles.
  SystemCycle preempt_quantum = 256;
  /// Per-job cycle ceiling (admission rejects above it with kTooLarge).
  SystemCycle max_job_cycles = 10'000'000;
  /// Spec-fingerprint result memoization: kDone results cached under
  /// JobSpec::fingerprint(), identical later specs served without
  /// simulating (LRU bound = this many entries). 0 disables the memo.
  std::size_t memo_capacity = 0;
  /// Base of the deterministic retry backoff: attempt k of a transient
  /// failure is requeued not-before base × 2^(k-1) (+ seeded jitter in
  /// [0, base)) microseconds from the failure.
  double retry_backoff_base_us = 200.0;
  /// Supervisor heartbeat-scan period; 0 disables the supervisor
  /// entirely (kill_worker() then needs shutdown() to resolve orphans).
  double supervisor_interval_ms = 20.0;
  /// Consecutive scans a busy worker may go without a heartbeat before
  /// it is declared stuck.
  std::size_t supervisor_miss_threshold = 3;
  /// Cancel (CancelCause::kSupervisor) the job of a stuck-but-alive
  /// worker. Off by default: under heavy sanitizer/CI load a healthy
  /// slice can legitimately outlast the threshold.
  bool supervisor_escalate_stuck = false;
  /// Chaos hook (tests/bench): consulted at every slice boundary.
  std::function<ChaosAction(const ChaosEvent&)> chaos;
  /// Test knobs: force_preempt requeues after *every* quantum even with
  /// no higher-priority work waiting (maximally exercises the
  /// checkpoint/resume path); paranoid_resume re-verifies cycle and
  /// state digest after every restore.
  bool force_preempt = false;
  bool paranoid_resume = false;
  /// Observability sinks (borrowed; must outlive the farm).
  obs::MetricsRegistry* metrics = nullptr;
  /// Distributed tracing (DESIGN.md §15; borrowed, must outlive the
  /// farm). Sampling rate and span bounds live in the Tracer's own
  /// options; null (the default) costs one branch per site.
  obs::Tracer* tracer = nullptr;
  /// Flight-recorder depth in events per ring (one ring per worker
  /// plus one for the supervisor/shutdown paths). 0 (default) disables
  /// the recorder; when armed, every kFailed result carries a JSONL
  /// dump of the failing worker's recent events for that job in
  /// failure.flight_recording.
  std::size_t flight_recorder_depth = 0;
  /// Periodic introspection: every interval a snapshot thread writes
  /// introspect() to `introspect_path`. 0 (default) disables it.
  double introspect_interval_ms = 0.0;
  std::string introspect_path = "farm_introspect.json";
};

class SimFarm {
 public:
  explicit SimFarm(FarmOptions opt = {});
  /// Shuts down (drains queued and in-flight jobs, joins workers).
  ~SimFarm();

  SimFarm(const SimFarm&) = delete;
  SimFarm& operator=(const SimFarm&) = delete;

  /// Never blocks: either the job is queued (outcome.job_id) or the
  /// outcome says why not — kQueueFull outcomes carry the backpressure
  /// context (depth, capacity, deterministic retry-after hint).
  /// A non-null `remote` marks a submission that arrived over the wire
  /// with that client-side trace context — the job is then always
  /// sampled and the client ids ride on the submit span as link
  /// attributes (see AdmissionQueue::submit).
  SubmitOutcome submit(const JobSpec& spec,
                       const obs::TraceContext* remote = nullptr);

  /// Requests cooperative cancellation. kRequested means the job will
  /// resolve to kCancelled at its next slice/period boundary (or next
  /// scheduling turn, if still queued) — unless it reaches a different
  /// terminal state first; exactly one wins, never both.
  CancelResult cancel(std::uint64_t job_id);

  /// Asks worker `w` to die cooperatively at its next slice boundary
  /// (chaos/test API). `lose_session` picks the hard flavor: the
  /// in-flight session is destroyed and the job restarts from scratch.
  void kill_worker(std::size_t w, bool lose_session = false);

  /// Blocks until the job's result is published. Throws ContextualError
  /// for an id this farm never issued (0, a rejected submit's id, or
  /// above every id issued so far): no result would ever arrive.
  JobResult wait(std::uint64_t job_id);

  /// Blocks until every accepted job has a published result.
  void drain();

  /// Stops intake, drains queued + in-flight work, joins the workers
  /// (supervisor first, so reclaim/respawn cannot race the joins), and
  /// resolves any job stranded by a dying pool as kCancelled — no
  /// accepted job is ever left without a result. Idempotent. Publishes
  /// the end-of-life farm.worker.{utilization,busy_us} instruments.
  void shutdown();

  /// Poison jobs: transient failures that exhausted max_retries.
  std::vector<QuarantineRecord> quarantined() const;

  /// In-flight jobs reclaimed from dead workers so far. Safe to poll
  /// from any thread while the farm runs (the metrics registry's
  /// counters are not) — the robustness bench measures recovery latency
  /// with it.
  std::uint64_t jobs_reclaimed() const;

  const ResultStore& results() const { return results_; }
  ResultStore& results() { return results_; }
  const FarmOptions& options() const { return opt_; }
  std::size_t queue_depth() const { return queue_.depth(); }

  /// Live JSON snapshot of the farm (DESIGN.md §15): per-class queue
  /// depths and oldest age, worker states (busy/idle/dead) with
  /// current job and span, inflight / reclaim / quarantine / memo /
  /// result-feed counters, and tracer/recorder totals when armed.
  /// Callable from any thread at any time; touches only atomics and
  /// short leaf locks (never metrics_mu_).
  std::string introspect() const;

  /// Installs (or clears, with an empty function) an external-ingress
  /// introspection provider. When set, introspect() appends its return
  /// value verbatim as the snapshot's "net" object — tmsim-farmd uses
  /// this to surface listener/connection/outbox/spill state in the same
  /// snapshot (and the same periodic file) as the farm internals. The
  /// provider must return a complete JSON value and must not call back
  /// into the farm.
  void set_ingress_provider(std::function<std::string()> provider);

  /// The armed flight recorder, or null (test/diagnostic access).
  const obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }

 private:
  struct CachedEngine {
    std::string key;
    std::unique_ptr<core::SeqNocSimulation> sim;
    std::uint64_t last_used = 0;
  };
  struct Worker {
    std::thread thread;
    std::vector<CachedEngine> cache;
    std::uint64_t cache_clock = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    double busy_us = 0.0;
    // Per-stage pipeline accounting (worker-thread-private while the
    // worker lives; read by shutdown after the join). busy_us is the
    // "run" stage; these three complete the breakdown the throughput
    // bench emits as farm.stage.*_us.
    double queue_wait_us = 0.0;  ///< enqueue → pop, summed over jobs
    double attach_us = 0.0;      ///< session build + engine attach/restore
    double publish_us = 0.0;     ///< terminal arbitration + result store
    /// Cached ref to this worker's farm.worker.slices row, so the
    /// per-slice hot path skips the registry's registration mutex.
    obs::Counter* slices_counter = nullptr;

    // Supervision surface. heartbeat/idle are written by the worker
    // thread and read by the supervisor; kill/dead flags flow the other
    // way. `dead` is the release-store the supervisor acquires before
    // joining the thread and touching anything else.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<bool> idle{false};
    std::atomic<bool> kill_requested{false};
    std::atomic<bool> lose_session{false};
    std::atomic<bool> dead{false};
    std::atomic<std::uint64_t> current_job{0};
    /// Currently open farm.exec span id (0 when idle) — surfaced by
    /// introspect() so a stuck worker names the span it is stuck in.
    std::atomic<std::uint64_t> current_span{0};
    std::optional<QueuedJob> orphan;      ///< guarded by farm_mu_
    // Supervisor-private heartbeat bookkeeping (single-threaded: the
    // supervisor, then — after it is joined — shutdown).
    std::uint64_t last_beat = 0;
    std::size_t missed_scans = 0;
  };
  /// Per-job control block, created at admission and erased by the
  /// publisher that wins the terminal race.
  struct JobControl {
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    CancelCause cause = CancelCause::kNone;
    double deadline_at_us = 0.0;
  };

  void worker_main(std::size_t w);
  /// One scheduling turn: run quanta of `job` until it finishes, fails,
  /// is cancelled, or gets preempted/retried (then it is requeued
  /// internally). Returns false when the worker was killed and must
  /// exit (the job, if any, sits in its orphan slot).
  bool run_job(std::size_t w, QueuedJob job);
  /// Terminal-or-retry decision for a failed execution. Returns true
  /// (the worker always survives a job failure).
  bool finish_failure(std::size_t w, QueuedJob& job, FailureKind kind,
                      const std::string& message);
  core::SeqNocSimulation& acquire_engine(std::size_t w, const JobSpec& spec);
  /// Publishes `r` for `job` unless another publisher already marked the
  /// job terminal. Fills identity, checkpoint provenance, and the
  /// scheduling record; finalizes session stats for kDone and
  /// fault-abort failures.
  void publish(std::size_t w, QueuedJob& job, JobResult r);
  void publish_cancelled(std::size_t w, QueuedJob& job, CancelCause cause);
  double retry_backoff_us(const JobSpec& spec, std::size_t attempt) const;
  /// Tracing helpers (DESIGN.md §15): one farm.exec segment span per
  /// dispatch, opened before the memo check and closed — with its
  /// outcome — on *every* exit path, so worker death never leaves an
  /// unclosed span. No-ops without a tracer / for unsampled jobs.
  void open_exec_span(std::size_t w, QueuedJob& job);
  void close_exec_span(std::size_t w, QueuedJob& job, const char* outcome);
  /// Appends a flight-recorder event to ring `ring` (no-op when the
  /// recorder is off). Ring workers_.size() belongs to the
  /// supervisor/shutdown paths.
  void flight(std::size_t ring, const QueuedJob& job,
              obs::FlightEventKind kind, std::uint64_t a, std::uint64_t b);
  void introspector_main();
  void write_introspect_file() const;
  /// Memo cache (memo_capacity > 0): LRU of kDone results keyed by
  /// JobSpec::fingerprint(). Lookup refreshes recency and returns a copy.
  std::optional<JobResult> memo_lookup(std::uint64_t fingerprint);
  void memo_store(std::uint64_t fingerprint, const JobResult& r);
  void supervisor_main();
  void supervisor_scan();
  /// Joins dead workers, requeues their orphans (front of class), and —
  /// when allowed — respawns replacements. Supervisor thread or, once
  /// the supervisor is joined, shutdown.
  void reclaim_dead_workers(bool allow_respawn);
  double now_us() const;
  void update_queue_gauges();

  FarmOptions opt_;
  AdmissionQueue queue_;
  ResultStore results_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Lock map (DESIGN.md §14). Besides the queue's and the result
  // store's own mutex:
  //   - control_mu_     — the per-job control table (submit / cancel /
  //     dispatch / publish / supervisor deadline scan);
  //   - farm_mu_        — cold paths only: quarantine_, reclaims_, orphan
  //     slots;
  //   - metrics_mu_     — leaf mutex serializing writers of *shared*
  //     farm.* instruments (obs instruments are single-writer by
  //     contract; per-worker-labelled rows need no lock);
  //   - drain_mu_       — pairs with idle_cv_ for drain(); inflight_
  //     itself is atomic;
  //   - memo_mu_        — the memo LRU.
  // Leaf order: any of the above may be taken with metrics_mu_ nested
  // inside; no other nesting is used.
  mutable std::mutex farm_mu_;
  mutable std::mutex metrics_mu_;
  mutable std::mutex drain_mu_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> inflight_{0};  ///< accepted, not yet published
  std::atomic<bool> stopping_{false};
  mutable std::mutex control_mu_;
  std::unordered_map<std::uint64_t, JobControl> control_;
  std::vector<QuarantineRecord> quarantine_;
  std::uint64_t reclaims_ = 0;  ///< guarded by farm_mu_

  // Spec-fingerprint memoization (memo_capacity > 0). The list holds
  // entries most-recent-first; the map points into it.
  struct MemoEntry {
    std::uint64_t fingerprint = 0;
    JobResult result;
  };
  mutable std::mutex memo_mu_;
  std::list<MemoEntry> memo_lru_;
  std::unordered_map<std::uint64_t, std::list<MemoEntry>::iterator> memo_map_;
  std::uint64_t memo_hits_ = 0;       ///< guarded by memo_mu_
  std::uint64_t memo_misses_ = 0;     ///< guarded by memo_mu_
  std::uint64_t memo_inserts_ = 0;    ///< guarded by memo_mu_
  std::uint64_t memo_evictions_ = 0;  ///< guarded by memo_mu_

  std::thread supervisor_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;

  // External-ingress introspection provider (tmsim-farmd). Guarded by
  // its own leaf mutex so introspect() stays callable from any thread.
  mutable std::mutex ingress_mu_;
  std::function<std::string()> ingress_provider_;

  // Flight recorder (flight_recorder_depth > 0) and the periodic
  // introspection snapshot thread (introspect_interval_ms > 0).
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::thread introspector_;
  std::mutex intro_mu_;
  std::condition_variable intro_cv_;
  bool intro_stop_ = false;
};

}  // namespace tmsim::farm

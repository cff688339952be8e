#include "farm/farm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tmsim::farm {

namespace {

/// Engines a worker keeps warm, LRU-evicted (keyed by topology +
/// scheduler; every cached engine runs the canonical schedule seed).
constexpr std::size_t kEngineCachePerWorker = 2;

std::string worker_label(std::size_t w) {
  return "worker=" + std::to_string(w);
}

std::string hex_id(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* cancel_result_name(CancelResult r) {
  switch (r) {
    case CancelResult::kUnknownJob: return "unknown_job";
    case CancelResult::kAlreadyFinished: return "already_finished";
    case CancelResult::kRequested: return "requested";
  }
  return "?";
}

SimFarm::SimFarm(FarmOptions opt)
    : opt_(opt),
      queue_(opt.queue_capacity, opt.max_job_cycles,
             [this] { return now_us(); }, opt.tracer) {
  TMSIM_CHECK_MSG(opt_.num_workers >= 1, "farm needs at least one worker");
  TMSIM_CHECK_MSG(opt_.preempt_quantum >= 1, "quantum must be positive");
  for (std::size_t w = 0; w < opt_.num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  if (opt_.flight_recorder_depth > 0) {
    // One ring per worker plus one for the supervisor/shutdown paths.
    recorder_ = std::make_unique<obs::FlightRecorder>(
        opt_.num_workers + 1, opt_.flight_recorder_depth);
  }
  for (std::size_t w = 0; w < opt_.num_workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_main(w); });
  }
  if (opt_.supervisor_interval_ms > 0.0) {
    supervisor_ = std::thread([this] { supervisor_main(); });
  }
  if (opt_.introspect_interval_ms > 0.0) {
    introspector_ = std::thread([this] { introspector_main(); });
  }
}

SimFarm::~SimFarm() { shutdown(); }

double SimFarm::now_us() const {
  return static_cast<double>(steady_now_ns()) * 1e-3;
}

void SimFarm::update_queue_gauges() {
  // Gauges are refreshed at supervisor cadence and at shutdown, not on
  // every submit/publish — a point-in-time depth does not need (and the
  // hot path does not pay for) per-event precision.
  if (!opt_.metrics) {
    return;
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    const auto p = static_cast<Priority>(c);
    opt_.metrics->gauge("farm.queue.depth",
                        std::string("class=") + priority_name(p))
        .set(static_cast<double>(queue_.depth(p)));
  }
}

SubmitOutcome SimFarm::submit(const JobSpec& spec,
                              const obs::TraceContext* remote) {
  SubmitOutcome out;
  const double now = now_us();
  if (stopping_.load(std::memory_order_acquire)) {
    out.reason = RejectReason::kStopped;
    out.detail = "farm is shutting down";
  } else {
    // The accept hook installs the control record after the job id is
    // assigned and *before* the job becomes poppable, so a worker can
    // never see a control-less job — the old TOCTOU fix, without
    // holding any farm-wide lock across the enqueue.
    out = queue_.submit(spec, now,
                        [this](QueuedJob& job) {
                          inflight_.fetch_add(1, std::memory_order_relaxed);
                          JobControl ctl;
                          ctl.deadline_at_us = job.deadline_at_us;
                          job.cancel = ctl.cancel;
                          std::lock_guard<std::mutex> lock(control_mu_);
                          control_.emplace(job.job_id, std::move(ctl));
                        },
                        remote);
  }
  if (opt_.metrics) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    opt_.metrics->counter("farm.admission.submitted").add();
    if (out.accepted) {
      opt_.metrics->counter("farm.admission.accepted").add();
    } else {
      opt_.metrics->counter("farm.admission.rejected").add();
      opt_.metrics
          ->counter("farm.admission.rejected",
                    std::string("reason=") + reject_reason_name(out.reason))
          .add();
    }
  }
  return out;
}

CancelResult SimFarm::cancel(std::uint64_t job_id) {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    const auto it = control_.find(job_id);
    if (it == control_.end()) {
      // Control records live from admission until a publisher wins the
      // terminal race, and ids are issued densely from 1: an issued id
      // without a record is finished (or its result is racing in).
      return job_id != 0 && job_id <= queue_.jobs_submitted()
                 ? CancelResult::kAlreadyFinished
                 : CancelResult::kUnknownJob;
    }
    if (it->second.cause == CancelCause::kNone) {
      it->second.cause = CancelCause::kUser;
    }
    it->second.cancel->store(true, std::memory_order_relaxed);
  }
  if (opt_.metrics) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    opt_.metrics->counter("farm.cancellations.requested").add();
  }
  return CancelResult::kRequested;
}

JobResult SimFarm::wait(std::uint64_t job_id) {
  if (job_id == 0 || job_id > queue_.jobs_submitted()) {
    throw ContextualError("wait on a job id this farm never issued",
                          {{"job_id", std::to_string(job_id)}});
  }
  return results_.wait(job_id);
}

void SimFarm::kill_worker(std::size_t w, bool lose_session) {
  TMSIM_CHECK_MSG(w < workers_.size(), "no such worker");
  if (lose_session) {
    workers_[w]->lose_session.store(true, std::memory_order_relaxed);
  }
  workers_[w]->kill_requested.store(true, std::memory_order_relaxed);
}

std::vector<QuarantineRecord> SimFarm::quarantined() const {
  std::lock_guard<std::mutex> lock(farm_mu_);
  return quarantine_;
}

std::uint64_t SimFarm::jobs_reclaimed() const {
  std::lock_guard<std::mutex> lock(farm_mu_);
  return reclaims_;
}

void SimFarm::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  idle_cv_.wait(
      lock, [&] { return inflight_.load(std::memory_order_acquire) == 0; });
}

std::optional<JobResult> SimFarm::memo_lookup(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  const auto it = memo_map_.find(fingerprint);
  if (it == memo_map_.end()) {
    ++memo_misses_;
    return std::nullopt;
  }
  memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second);
  ++memo_hits_;
  return it->second->result;
}

void SimFarm::memo_store(std::uint64_t fingerprint, const JobResult& r) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_map_.contains(fingerprint)) {
    return;  // concurrent duplicate runs: first insert wins, both valid
  }
  MemoEntry entry;
  entry.fingerprint = fingerprint;
  entry.result = r;
  // Only the simulation-visible surface is memo material; the original
  // run's scheduling record is scrubbed so a served copy carries its own.
  entry.result.memo_hit = false;
  entry.result.preemptions = 0;
  entry.result.slices = 0;
  entry.result.last_worker = 0;
  entry.result.queue_seconds = 0.0;
  entry.result.exec_seconds = 0.0;
  entry.result.turnaround_seconds = 0.0;
  entry.result.failure.last_checkpoint_cycle = 0;
  entry.result.failure.last_checkpoint_digest = 0;
  memo_lru_.push_front(std::move(entry));
  memo_map_.emplace(fingerprint, memo_lru_.begin());
  ++memo_inserts_;
  while (memo_lru_.size() > opt_.memo_capacity) {
    memo_map_.erase(memo_lru_.back().fingerprint);
    memo_lru_.pop_back();
    ++memo_evictions_;
  }
}

void SimFarm::shutdown() {
  stopping_.store(true, std::memory_order_release);
  // 0. Stop the periodic introspector (it only reads, but joining it
  //    here keeps the rest of shutdown single-minded).
  if (introspector_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(intro_mu_);
      intro_stop_ = true;
    }
    intro_cv_.notify_all();
    introspector_.join();
  }
  // 1. Stop the supervisor first: below this line nothing reclaims or
  //    respawns concurrently, so the joins are race-free.
  if (supervisor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sup_mu_);
      sup_stop_ = true;
    }
    sup_cv_.notify_all();
    supervisor_.join();
  }
  // 2. Final reclaim pass: dead workers' orphans go back on the queue,
  //    and replacements are spawned so the backlog still has someone to
  //    run it even if the whole pool was killed.
  reclaim_dead_workers(/*allow_respawn=*/true);
  // 3. Drain: stop intake; workers run the backlog dry (including jobs
  //    still sleeping out a retry backoff), then exit.
  queue_.stop();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  // 4. No job left behind: a worker killed *during* the drain leaves an
  //    orphan with nobody to reclaim it, and a fully-killed pool leaves
  //    queued jobs unpopped. Resolve both as kCancelled (supervisor
  //    cause) so every accepted job still gets exactly one result.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    std::optional<QueuedJob> orphan;
    {
      std::lock_guard<std::mutex> lock(farm_mu_);
      orphan.swap(workers_[w]->orphan);
    }
    if (orphan) {
      publish_cancelled(w, *orphan, CancelCause::kSupervisor);
    }
  }
  while (std::optional<QueuedJob> job = queue_.pop_blocking()) {
    publish_cancelled(0, *job, CancelCause::kSupervisor);
  }
  update_queue_gauges();
  if (opt_.introspect_interval_ms > 0.0) {
    write_introspect_file();  // final end-of-life snapshot
  }
  // 5. End-of-life instruments (all worker threads joined above, so the
  //    per-worker rows have a single writer: this thread).
  const double end_us = now_us();
  if (opt_.metrics && end_us > 0.0) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const Worker& wk = *workers_[w];
      opt_.metrics->gauge("farm.worker.utilization", worker_label(w))
          .set(wk.busy_us / end_us);
      opt_.metrics->counter("farm.worker.busy_us", worker_label(w))
          .set(static_cast<std::uint64_t>(wk.busy_us));
      opt_.metrics->counter("farm.worker.cache_hits", worker_label(w))
          .set(wk.cache_hits);
      opt_.metrics->counter("farm.worker.cache_misses", worker_label(w))
          .set(wk.cache_misses);
      // Pipeline-stage breakdown (queue-wait / attach / run / publish) —
      // the throughput bench sums these across workers.
      opt_.metrics->counter("farm.stage.queue_wait_us", worker_label(w))
          .set(static_cast<std::uint64_t>(wk.queue_wait_us));
      opt_.metrics->counter("farm.stage.attach_us", worker_label(w))
          .set(static_cast<std::uint64_t>(wk.attach_us));
      opt_.metrics->counter("farm.stage.run_us", worker_label(w))
          .set(static_cast<std::uint64_t>(wk.busy_us));
      opt_.metrics->counter("farm.stage.publish_us", worker_label(w))
          .set(static_cast<std::uint64_t>(wk.publish_us));
    }
    std::lock_guard<std::mutex> memo_lock(memo_mu_);
    opt_.metrics->counter("farm.memo.hits").set(memo_hits_);
    opt_.metrics->counter("farm.memo.misses").set(memo_misses_);
    opt_.metrics->counter("farm.memo.inserts").set(memo_inserts_);
    opt_.metrics->counter("farm.memo.evictions").set(memo_evictions_);
    opt_.metrics->gauge("farm.memo.size")
        .set(static_cast<double>(memo_lru_.size()));
  }
}

void SimFarm::worker_main(std::size_t w) {
  Worker& worker = *workers_[w];
  for (;;) {
    worker.idle.store(true, std::memory_order_relaxed);
    std::optional<QueuedJob> job = queue_.pop_blocking();
    worker.idle.store(false, std::memory_order_relaxed);
    if (!job) {
      return;
    }
    worker.heartbeat.fetch_add(1, std::memory_order_relaxed);
    worker.queue_wait_us += std::max(0.0, now_us() - job->queued_us);
    if (!run_job(w, std::move(*job))) {
      return;  // killed: the orphan slot holds the job in flight
    }
  }
}

core::SeqNocSimulation& SimFarm::acquire_engine(std::size_t w,
                                                const JobSpec& spec) {
  Worker& worker = *workers_[w];
  const std::string key = engine_cache_key(spec);
  for (CachedEngine& e : worker.cache) {
    if (e.key == key) {
      e.last_used = ++worker.cache_clock;
      ++worker.cache_hits;
      return *e.sim;
    }
  }
  ++worker.cache_misses;
  if (worker.cache.size() >= kEngineCachePerWorker &&
      !worker.cache.empty()) {
    std::size_t lru = 0;
    for (std::size_t i = 1; i < worker.cache.size(); ++i) {
      if (worker.cache[i].last_used < worker.cache[lru].last_used) {
        lru = i;
      }
    }
    worker.cache.erase(worker.cache.begin() + static_cast<std::ptrdiff_t>(lru));
  }
  CachedEngine e;
  e.key = key;
  e.sim = std::make_unique<core::SeqNocSimulation>(
      spec.net, effective_engine_options(spec, /*canonical_seed=*/true));
  e.last_used = ++worker.cache_clock;
  worker.cache.push_back(std::move(e));
  return *worker.cache.back().sim;
}

double SimFarm::retry_backoff_us(const JobSpec& spec,
                                 std::size_t attempt) const {
  // Deterministic: exponential in the attempt, jitter a pure function of
  // (spec.seed, attempt) — a replayed failure schedule backs off on the
  // exact same instants.
  const double expo = static_cast<double>(
      1ull << std::min<std::size_t>(attempt > 0 ? attempt - 1 : 0, 10));
  const std::uint64_t h = derive_seed(
      spec.seed ^ (static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ull),
      "retry-backoff");
  const double jitter = static_cast<double>(h % 1024) / 1024.0;
  return opt_.retry_backoff_base_us * (expo + jitter);
}

void SimFarm::open_exec_span(std::size_t w, QueuedJob& job) {
  if (opt_.tracer == nullptr || !job.trace.sampled()) {
    return;
  }
  job.exec_span = opt_.tracer->alloc_span_id();
  job.exec_span_start_us = now_us();
  workers_[w]->current_span.store(job.exec_span, std::memory_order_relaxed);
}

void SimFarm::close_exec_span(std::size_t w, QueuedJob& job,
                              const char* outcome) {
  workers_[w]->current_span.store(0, std::memory_order_relaxed);
  if (opt_.tracer == nullptr || !job.trace.sampled() || job.exec_span == 0) {
    return;
  }
  opt_.tracer->span(job.trace, job.exec_span, job.trace.span_id, "farm.exec",
                    static_cast<std::uint32_t>(job.attempts),
                    static_cast<std::uint32_t>(100 + w),
                    job.exec_span_start_us, now_us(),
                    {{"worker", std::to_string(w)}, {"outcome", outcome}});
  job.exec_span = 0;
}

void SimFarm::flight(std::size_t ring, const QueuedJob& job,
                     obs::FlightEventKind kind, std::uint64_t a,
                     std::uint64_t b) {
  if (!recorder_) {
    return;
  }
  obs::FlightEvent e;
  e.ts_us = now_us();
  e.job_id = job.job_id;
  e.trace_id = job.trace.trace_id;
  e.span_id = job.exec_span != 0 ? job.exec_span : job.trace.span_id;
  e.attempt = static_cast<std::uint32_t>(job.attempts);
  e.kind = kind;
  e.a = a;
  e.b = b;
  recorder_->record(ring, e);
}

bool SimFarm::run_job(std::size_t w, QueuedJob job) {
  Worker& worker = *workers_[w];
  const auto tid = static_cast<std::uint32_t>(100 + w);
  const bool resumed = job.session != nullptr;
  const std::shared_ptr<std::atomic<bool>> token = job.cancel;
  worker.current_job.store(job.job_id, std::memory_order_relaxed);
  // One farm.exec segment per dispatch, opened before the memo check so
  // even memo-served jobs show where they ran; closed with its outcome
  // on every exit path below.
  open_exec_span(w, job);
  flight(w, job, obs::FlightEventKind::kDispatch, job.slices, job.attempts);
  // Memo fast path: only a fresh, never-run attempt may be served from
  // the cache (a resumed or retried job keeps executing), and a cancel
  // or deadline that arrived while queued still wins over a hit.
  if (opt_.memo_capacity > 0 && !job.session && job.slices == 0 &&
      job.attempts <= 1 && !token->load(std::memory_order_relaxed)) {
    const double mnow = now_us();
    if (!(job.deadline_at_us > 0.0 && mnow >= job.deadline_at_us)) {
      if (std::optional<JobResult> hit = memo_lookup(job.spec.fingerprint())) {
        hit->memo_hit = true;
        job.first_us = mnow;
        close_exec_span(w, job, "memo");
        publish(w, job, std::move(*hit));
        return true;
      }
    }
  }
  try {
    const double a0 = now_us();
    if (!job.session) {
      job.session = std::make_shared<SimSession>(job.spec);
    }
    job.session->bind_cancel(token);
    if (job.first_us == 0.0) {
      job.first_us = now_us();
    }
    if (job.session->needs_engine()) {
      job.session->attach(acquire_engine(w, job.spec), opt_.paranoid_resume);
    }
    worker.attach_us += now_us() - a0;
    if (opt_.tracer != nullptr && job.trace.sampled()) {
      opt_.tracer->span(job.trace, opt_.tracer->alloc_span_id(), job.exec_span,
                        "farm.attach", static_cast<std::uint32_t>(job.attempts),
                        tid, a0, now_us(),
                        {{"resumed", resumed ? "1" : "0"}});
    }
    flight(w, job, obs::FlightEventKind::kAttach, resumed ? 1 : 0,
           worker.cache_hits);
    if (resumed && opt_.metrics) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      opt_.metrics->counter("farm.resumes").add();
    }
    for (;;) {
      worker.heartbeat.fetch_add(1, std::memory_order_relaxed);
      // Terminal checks first, so a cancelled/expired job never burns
      // another slice. Cooperative cancellation (user / deadline-by-
      // supervisor / stuck-escalation):
      if (token->load(std::memory_order_relaxed)) {
        publish_cancelled(w, job, CancelCause::kNone);  // cause from control
        return true;
      }
      // Worker-side deadline check (covers supervisor-less farms).
      if (job.deadline_at_us > 0.0 && now_us() >= job.deadline_at_us) {
        publish_cancelled(w, job, CancelCause::kDeadline);
        return true;
      }
      // Chaos hook (tests/bench): may throw into the failure path or
      // flip this worker's kill flags.
      if (opt_.chaos) {
        ChaosEvent ev;
        ev.worker = w;
        ev.job_id = job.job_id;
        ev.spec = &job.spec;
        ev.attempt = job.attempts;
        ev.slice = job.slices;
        switch (opt_.chaos(ev)) {
          case ChaosAction::kNone:
            break;
          case ChaosAction::kThrowTransient:
            throw TransientError("chaos: injected transient fault");
          case ChaosAction::kThrowPermanent:
            throw Error("chaos: injected permanent fault");
          case ChaosAction::kKillWorkerLoseSession:
            worker.lose_session.store(true, std::memory_order_relaxed);
            [[fallthrough]];
          case ChaosAction::kKillWorker:
            worker.kill_requested.store(true, std::memory_order_relaxed);
            break;
        }
      }
      // Cooperative death, always at a slice boundary (a std::thread
      // cannot be killed mid-slice; the boundary is exactly where the
      // checkpoint contract already proves the state consistent).
      if (worker.kill_requested.load(std::memory_order_relaxed)) {
        const bool lost = worker.lose_session.load(std::memory_order_relaxed);
        if (lost) {
          job.session.reset();  // hard kill: the job restarts from scratch
        } else if (job.session->attached()) {
          job.session->detach();  // graceful: consistent checkpoint survives
        }
        flight(w, job, obs::FlightEventKind::kKill, lost ? 1 : 0, 0);
        close_exec_span(w, job, "killed");
        worker.current_job.store(0, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(farm_mu_);
          worker.orphan = std::move(job);
        }
        worker.dead.store(true, std::memory_order_release);
        return false;
      }
      const double t0 = now_us();
      SystemCycle advanced = 0;
      try {
        advanced = job.session->advance(opt_.preempt_quantum);
      } catch (...) {
        // Bill the partial slice: busy_us accounts every slice executed,
        // including the ones that end in a throw.
        const double t1 = now_us();
        worker.busy_us += t1 - t0;
        job.exec_us += t1 - t0;
        ++job.slices;
        throw;
      }
      const double t1 = now_us();
      worker.busy_us += t1 - t0;
      job.exec_us += t1 - t0;
      ++job.slices;
      if (opt_.metrics) {
        if (worker.slices_counter == nullptr) {
          std::lock_guard<std::mutex> lock(metrics_mu_);
          worker.slices_counter =
              &opt_.metrics->counter("farm.worker.slices", worker_label(w));
        }
        worker.slices_counter->add();
      }
      if (opt_.tracer != nullptr && job.trace.sampled()) {
        opt_.tracer->span(
            job.trace, opt_.tracer->alloc_span_id(), job.exec_span,
            "farm.slice", static_cast<std::uint32_t>(job.attempts), tid, t0,
            t1,
            {{"cycles", std::to_string(advanced)},
             {"deltas", std::to_string(job.session->last_slice_deltas())}});
      }
      flight(w, job, obs::FlightEventKind::kSlice, advanced,
             job.session->last_slice_deltas());
      if (job.session->done()) {
        break;
      }
      if (opt_.force_preempt || queue_.has_higher_than(job.spec.priority)) {
        if (job.session->attached()) {
          job.session->detach();
        }
        ++job.preemptions;
        flight(w, job, obs::FlightEventKind::kPreempt,
               job.session->cycles_done(), job.spec.cycles);
        close_exec_span(w, job, "preempted");
        worker.current_job.store(0, std::memory_order_relaxed);
        if (opt_.metrics) {
          std::lock_guard<std::mutex> lock(metrics_mu_);
          opt_.metrics->counter("farm.preemptions").add();
          opt_.metrics->counter("farm.checkpoints").add();
        }
        queue_.requeue(std::move(job), now_us(), RequeuePosition::kFront);
        return true;
      }
    }
    if (job.session->aborted()) {
      // Fault-report escalation: the hardened host stopped gracefully.
      // Classified transient (kFaultAbort) — in simulation the abort is
      // deterministic, so retries exhaust and the job lands in
      // quarantine with its replay tuple: the designed poison path.
      return finish_failure(w, job, FailureKind::kFaultAbort,
                            job.session->abort_reason());
    }
    JobResult r;
    r.status = JobStatus::kDone;
    close_exec_span(w, job, "done");
    publish(w, job, std::move(r));
    return true;
  } catch (const std::exception& e) {
    return finish_failure(w, job, classify_failure(e), e.what());
  }
}

bool SimFarm::finish_failure(std::size_t w, QueuedJob& job, FailureKind kind,
                             const std::string& message) {
  const bool transient = failure_is_transient(kind);
  const bool will_retry =
      transient && job.attempts <= job.spec.max_retries && !queue_.stopped();
  close_exec_span(w, job, will_retry ? "retry" : "failed");
  if (will_retry) {
    // Retry: restart from scratch. The engine checkpoint alone is not
    // consistent with the harness state mid-attempt, and the spec pins
    // the whole run anyway — a fresh session is provably bit-identical.
    job.session.reset();
    const std::size_t attempt = job.attempts;
    ++job.attempts;
    const double now = now_us();
    job.not_before_us = now + retry_backoff_us(job.spec, attempt);
    // The backoff window itself is a span of the *new* attempt, parented
    // to the root so the retry chain stays one connected tree.
    if (opt_.tracer != nullptr && job.trace.sampled()) {
      opt_.tracer->span(job.trace, opt_.tracer->alloc_span_id(),
                        job.trace.span_id, "farm.retry",
                        static_cast<std::uint32_t>(job.attempts),
                        static_cast<std::uint32_t>(100 + w), now,
                        job.not_before_us,
                        {{"kind", failure_kind_name(kind)}});
    }
    flight(w, job, obs::FlightEventKind::kRetry, job.attempts,
           static_cast<std::uint64_t>(kind));
    workers_[w]->current_job.store(0, std::memory_order_relaxed);
    if (opt_.metrics) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      opt_.metrics->counter("farm.retries.scheduled").add();
      opt_.metrics
          ->counter("farm.retries.scheduled",
                    std::string("kind=") + failure_kind_name(kind))
          .add();
    }
    queue_.requeue(std::move(job), now, RequeuePosition::kBack);
    return true;
  }
  JobResult r;
  r.status = JobStatus::kFailed;
  r.error = message;
  r.failure.kind = kind;
  r.failure.message = message;
  r.failure.at_cycle = job.session ? job.session->cycles_done() : 0;
  r.failure.attempts = job.attempts;
  r.failure.replay = job.spec.serialize();
  r.failure.quarantined = transient && job.spec.max_retries > 0 &&
                          job.attempts > job.spec.max_retries;
  if (r.failure.quarantined) {
    QuarantineRecord q;
    q.job_id = job.job_id;
    q.name = job.spec.name;
    q.kind = kind;
    q.attempts = job.attempts;
    q.message = message;
    q.replay = r.failure.replay;
    {
      std::lock_guard<std::mutex> lock(farm_mu_);
      quarantine_.push_back(std::move(q));
    }
    if (opt_.metrics) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      opt_.metrics->counter("farm.retries.exhausted").add();
      opt_.metrics->counter("farm.failures.quarantined").add();
    }
  }
  publish(w, job, std::move(r));
  return true;
}

void SimFarm::publish_cancelled(std::size_t w, QueuedJob& job,
                                CancelCause cause) {
  flight(w, job, obs::FlightEventKind::kCancel,
         static_cast<std::uint64_t>(cause), 0);
  close_exec_span(w, job, "cancelled");
  JobResult r;
  r.status = JobStatus::kCancelled;
  r.cancel_cause = cause;
  publish(w, job, std::move(r));
}

void SimFarm::publish(std::size_t w, QueuedJob& job, JobResult r) {
  const double p0 = now_us();
  r.job_id = job.job_id;
  r.spec_fingerprint = job.spec.fingerprint();
  r.name = job.spec.name;
  if (job.session) {
    // Completed jobs and graceful fault-aborts carry full statistics
    // (the hardened host's abort state is consistent by construction);
    // other terminal states report progress without finalizing.
    if (r.status == JobStatus::kDone ||
        (r.status == JobStatus::kFailed &&
         r.failure.kind == FailureKind::kFaultAbort)) {
      job.session->finalize(r);
    } else if (r.status == JobStatus::kCancelled) {
      // Progress report only; exception-path failures keep cycles at 0
      // exactly like run_job_standalone (failure.at_cycle has the spot).
      r.cycles_simulated = job.session->cycles_done();
    }
    r.failure.last_checkpoint_cycle = job.session->last_checkpoint_cycle();
    r.failure.last_checkpoint_digest = job.session->last_checkpoint_digest();
  }
  const double done_us = now_us();
  r.preemptions = job.preemptions;
  r.slices = job.slices;
  r.last_worker = w;
  r.queue_seconds =
      job.first_us > 0.0 ? (job.first_us - job.submitted_us) * 1e-6 : 0.0;
  r.exec_seconds = job.exec_us * 1e-6;
  r.turnaround_seconds = (done_us - job.submitted_us) * 1e-6;
  {
    // Terminal race arbitration: the first publisher erases the control
    // record and wins; any later publisher for the same job finds none
    // and is suppressed — exactly one result per accepted job, always.
    std::lock_guard<std::mutex> lock(control_mu_);
    const auto it = control_.find(job.job_id);
    if (it == control_.end()) {
      workers_[w]->current_job.store(0, std::memory_order_relaxed);
      workers_[w]->publish_us += now_us() - p0;
      return;
    }
    if (r.status == JobStatus::kCancelled &&
        r.cancel_cause == CancelCause::kNone) {
      r.cancel_cause = it->second.cause;
    }
    control_.erase(it);
  }
  if (r.status == JobStatus::kCancelled) {
    if (r.cancel_cause == CancelCause::kNone) {
      r.cancel_cause = CancelCause::kUser;
    }
    if (r.error.empty()) {
      r.error =
          std::string("cancelled: ") + cancel_cause_name(r.cancel_cause);
    }
  }
  if (opt_.memo_capacity > 0 && r.status == JobStatus::kDone && !r.memo_hit) {
    memo_store(r.spec_fingerprint, r);
  }
  // Past the arbitration: *this* publisher owns the terminal result, so
  // it is the only one that may record the trace root (exactly one
  // "farm.job" span per trace, even when a racing publisher lost above)
  // and the one whose flight-recorder context rides on the failure.
  if (opt_.tracer != nullptr && job.trace.sampled()) {
    const auto tid = static_cast<std::uint32_t>(100 + w);
    const double end = now_us();
    opt_.tracer->span(job.trace, opt_.tracer->alloc_span_id(),
                      job.trace.span_id, "farm.publish",
                      static_cast<std::uint32_t>(job.attempts), tid, p0, end,
                      {{"status", job_status_name(r.status)}});
    opt_.tracer->span(job.trace, job.trace.span_id, 0, "farm.job",
                      /*attempt=*/0, tid, job.submitted_us, end,
                      {{"job", std::to_string(job.job_id)},
                       {"name", job.spec.name},
                       {"status", job_status_name(r.status)},
                       {"attempts", std::to_string(job.attempts)}});
  }
  flight(w, job, obs::FlightEventKind::kPublish,
         static_cast<std::uint64_t>(r.status), 0);
  if (r.status == JobStatus::kFailed && recorder_) {
    // Black box: the failing worker's recent events for this job travel
    // with the failure, next to the replay tuple. Diagnostic-only —
    // results_equivalent() never looks at it.
    r.failure.flight_recording = recorder_->dump_jsonl(w, job.job_id);
  }
  const JobStatus status = r.status;
  const FailureKind kind = r.failure.kind;
  const CancelCause cause = r.cancel_cause;
  const bool memo_hit = r.memo_hit;
  results_.put(std::move(r));
  workers_[w]->current_job.store(0, std::memory_order_relaxed);
  if (opt_.metrics) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    switch (status) {
      case JobStatus::kDone:
        opt_.metrics->counter("farm.jobs.completed").add();
        if (memo_hit) {
          opt_.metrics->counter("farm.jobs.completed", "memo=hit").add();
        }
        break;
      case JobStatus::kFailed:
        opt_.metrics->counter("farm.jobs.failed").add();
        opt_.metrics
            ->counter("farm.jobs.failed",
                      std::string("reason=") + failure_kind_name(kind))
            .add();
        break;
      case JobStatus::kCancelled:
        opt_.metrics->counter("farm.jobs.cancelled").add();
        opt_.metrics
            ->counter("farm.jobs.cancelled",
                      std::string("cause=") + cancel_cause_name(cause))
            .add();
        break;
      case JobStatus::kPending:
        break;
    }
    opt_.metrics->counter("farm.worker.jobs", worker_label(w)).add();
  }
  workers_[w]->publish_us += now_us() - p0;
  const std::size_t before = inflight_.fetch_sub(1, std::memory_order_acq_rel);
  TMSIM_CHECK_MSG(before > 0, "result published for an untracked job");
  if (before == 1) {
    // Empty critical section: a drain()er that read inflight_ != 0 under
    // drain_mu_ is guaranteed to be inside wait() before we notify.
    { std::lock_guard<std::mutex> lock(drain_mu_); }
    idle_cv_.notify_all();
  }
}

std::string SimFarm::introspect() const {
  // Live snapshot, callable from any thread while the farm runs. Reads
  // atomics and takes only short leaf locks (the queue, the result
  // store, farm_mu_, memo_mu_) — never metrics_mu_, never a worker join.
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  const double now = now_us();
  os << "{\"ts_us\": " << now << ", \"stopping\": "
     << (stopping_.load(std::memory_order_acquire) ? "true" : "false")
     << ", \"inflight\": " << inflight_.load(std::memory_order_relaxed);

  os << ", \"queue\": {\"depth\": " << queue_.depth()
     << ", \"submitted\": " << queue_.jobs_submitted()
     << ", \"rejected\": " << queue_.jobs_rejected() << ", \"classes\": [";
  const auto classes = queue_.class_depths();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const AdmissionQueue::ClassDepth& cd = classes[c];
    const double age =
        cd.depth > 0 ? std::max(0.0, now - cd.oldest_queued_us) : 0.0;
    os << (c > 0 ? ", " : "") << "{\"class\": \""
       << priority_name(static_cast<Priority>(c)) << "\", \"depth\": "
       << cd.depth << ", \"oldest_age_us\": " << age << "}";
  }
  os << "]}";

  os << ", \"workers\": [";
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& wk = *workers_[w];
    const char* state = wk.dead.load(std::memory_order_acquire) ? "dead"
                        : wk.idle.load(std::memory_order_relaxed) ? "idle"
                                                                  : "busy";
    os << (w > 0 ? ", " : "") << "{\"worker\": " << w << ", \"state\": \""
       << state << "\", \"job\": "
       << wk.current_job.load(std::memory_order_relaxed) << ", \"span\": \""
       << hex_id(wk.current_span.load(std::memory_order_relaxed))
       << "\", \"heartbeat\": "
       << wk.heartbeat.load(std::memory_order_relaxed) << "}";
  }
  os << "]";

  os << ", \"results\": {\"published\": " << results_.size() << "}";

  {
    std::lock_guard<std::mutex> lock(farm_mu_);
    os << ", \"counters\": {\"reclaims\": " << reclaims_
       << ", \"quarantined\": " << quarantine_.size() << "}";
  }
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    os << ", \"memo\": {\"hits\": " << memo_hits_
       << ", \"misses\": " << memo_misses_
       << ", \"size\": " << memo_lru_.size() << "}";
  }
  if (opt_.tracer != nullptr) {
    os << ", \"trace\": {\"traces\": " << opt_.tracer->traces_started()
       << ", \"spans\": " << opt_.tracer->spans_recorded()
       << ", \"dropped\": " << opt_.tracer->spans_dropped() << "}";
  }
  if (recorder_) {
    os << ", \"flight\": {\"events\": " << recorder_->events_recorded()
       << ", \"overwritten\": " << recorder_->events_overwritten() << "}";
  }
  {
    // External ingress (tmsim-farmd): listener/connection/outbox/spill
    // state, appended verbatim so one snapshot covers the whole daemon.
    std::lock_guard<std::mutex> lock(ingress_mu_);
    if (ingress_provider_) {
      os << ", \"net\": " << ingress_provider_();
    }
  }
  os << "}";
  return os.str();
}

void SimFarm::set_ingress_provider(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(ingress_mu_);
  ingress_provider_ = std::move(provider);
}

void SimFarm::write_introspect_file() const {
  std::ofstream out(opt_.introspect_path, std::ios::trunc);
  if (out) {
    out << introspect() << "\n";
  }
}

void SimFarm::introspector_main() {
  const auto interval = std::chrono::microseconds(
      static_cast<std::int64_t>(opt_.introspect_interval_ms * 1e3));
  std::unique_lock<std::mutex> lock(intro_mu_);
  while (!intro_stop_) {
    intro_cv_.wait_for(lock, interval, [&] { return intro_stop_; });
    if (intro_stop_) {
      break;
    }
    lock.unlock();
    write_introspect_file();
    lock.lock();
  }
}

void SimFarm::supervisor_main() {
  const auto interval = std::chrono::microseconds(
      static_cast<std::int64_t>(opt_.supervisor_interval_ms * 1e3));
  std::unique_lock<std::mutex> lock(sup_mu_);
  while (!sup_stop_) {
    sup_cv_.wait_for(lock, interval, [&] { return sup_stop_; });
    if (sup_stop_) {
      break;
    }
    lock.unlock();
    supervisor_scan();
    lock.lock();
  }
}

void SimFarm::supervisor_scan() {
  if (opt_.metrics) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    opt_.metrics->counter("farm.supervisor.scans").add();
  }
  // Deadline enforcement for jobs the workers cannot see yet (still
  // queued, or mid-quantum on a hosted stack — the token stops the host
  // at its next simulation-period boundary).
  std::uint64_t deadlines_enforced = 0;
  {
    const double now = now_us();
    std::lock_guard<std::mutex> lock(control_mu_);
    for (auto& [id, ctl] : control_) {
      if (ctl.deadline_at_us <= 0.0 ||
          now < ctl.deadline_at_us ||
          ctl.cancel->load(std::memory_order_relaxed)) {
        continue;
      }
      if (ctl.cause == CancelCause::kNone) {
        ctl.cause = CancelCause::kDeadline;
      }
      ctl.cancel->store(true, std::memory_order_relaxed);
      ++deadlines_enforced;
    }
  }
  if (deadlines_enforced > 0 && opt_.metrics) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    opt_.metrics->counter("farm.supervisor.deadlines_enforced")
        .add(deadlines_enforced);
  }
  reclaim_dead_workers(/*allow_respawn=*/true);
  update_queue_gauges();
  // Heartbeat scan: a busy worker whose beat has not advanced for
  // `supervisor_miss_threshold` scans is stuck. Escalation (optional)
  // is cooperative too — cancel its job so the worker unwedges at the
  // next boundary it does reach.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = *workers_[w];
    if (worker.dead.load(std::memory_order_acquire)) {
      continue;  // reclaimed above (or racing to death; next scan)
    }
    const std::uint64_t beat = worker.heartbeat.load(std::memory_order_relaxed);
    if (worker.idle.load(std::memory_order_relaxed) ||
        beat != worker.last_beat) {
      worker.last_beat = beat;
      worker.missed_scans = 0;
      continue;
    }
    if (++worker.missed_scans < opt_.supervisor_miss_threshold) {
      continue;
    }
    worker.missed_scans = 0;
    if (!opt_.supervisor_escalate_stuck) {
      continue;
    }
    const std::uint64_t current =
        worker.current_job.load(std::memory_order_relaxed);
    if (current == 0) {
      continue;
    }
    bool escalated = false;
    {
      std::lock_guard<std::mutex> lock(control_mu_);
      const auto it = control_.find(current);
      if (it != control_.end()) {
        if (it->second.cause == CancelCause::kNone) {
          it->second.cause = CancelCause::kSupervisor;
        }
        it->second.cancel->store(true, std::memory_order_relaxed);
        escalated = true;
      }
    }
    if (escalated && opt_.metrics) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      opt_.metrics->counter("farm.supervisor.stuck").add();
    }
  }
}

void SimFarm::reclaim_dead_workers(bool allow_respawn) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = *workers_[w];
    if (!worker.dead.load(std::memory_order_acquire)) {
      continue;
    }
    // Join before touching anything the dead thread wrote: the join is
    // the happens-before edge that makes the orphan (and busy_us) safe
    // to read here.
    if (worker.thread.joinable()) {
      worker.thread.join();
    }
    std::optional<QueuedJob> orphan;
    {
      std::lock_guard<std::mutex> lock(farm_mu_);
      orphan.swap(worker.orphan);
    }
    if (opt_.metrics) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      opt_.metrics->counter("farm.supervisor.workers_lost").add();
    }
    if (orphan) {
      if (!queue_.stopped()) {
        // Reclaim: back to the front of its class, resuming from the
        // detach-time checkpoint (graceful kill) or from scratch (hard
        // kill dropped the session).
        const double rnow = now_us();
        if (opt_.tracer != nullptr && orphan->trace.sampled()) {
          opt_.tracer->span(orphan->trace, opt_.tracer->alloc_span_id(),
                            orphan->trace.span_id, "farm.reclaim",
                            static_cast<std::uint32_t>(orphan->attempts),
                            /*tid=*/90, rnow, rnow,
                            {{"worker", std::to_string(w)},
                             {"resumable", orphan->session ? "1" : "0"}});
        }
        flight(workers_.size(), *orphan, obs::FlightEventKind::kReclaim, w,
               orphan->session ? 1 : 0);
        queue_.requeue(std::move(*orphan), now_us(),
                       RequeuePosition::kFront);
        {
          std::lock_guard<std::mutex> lock(farm_mu_);
          ++reclaims_;
        }
        if (opt_.metrics) {
          std::lock_guard<std::mutex> lock(metrics_mu_);
          opt_.metrics->counter("farm.supervisor.jobs_reclaimed").add();
        }
      } else {
        publish_cancelled(w, *orphan, CancelCause::kSupervisor);
      }
    }
    worker.kill_requested.store(false, std::memory_order_relaxed);
    worker.lose_session.store(false, std::memory_order_relaxed);
    worker.last_beat = worker.heartbeat.load(std::memory_order_relaxed);
    worker.missed_scans = 0;
    worker.dead.store(false, std::memory_order_release);
    if (allow_respawn && !queue_.stopped()) {
      worker.thread = std::thread([this, w] { worker_main(w); });
      if (opt_.metrics) {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        opt_.metrics->counter("farm.supervisor.respawns").add();
      }
    }
  }
}

}  // namespace tmsim::farm

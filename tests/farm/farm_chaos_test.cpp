// The no-job-left-behind proof (DESIGN.md §13): a farm driven through
// injected transient faults, permanent faults, and worker kills — both
// the graceful flavor (checkpoint survives, job resumes) and the hard
// one (session lost, job restarts from scratch) — over 100+ randomized
// specs still resolves *every* accepted job to exactly one terminal
// result, and every job that completes is bit-identical to an
// undisturbed standalone run. Runs under TSan via the `chaos` ctest
// label (tsan preset), which makes the supervisor's join-before-touch
// reclaim discipline a checked property, not a comment.
//
// Chaos-group membership is a pure function of the job id, so the
// injected faults are as reproducible as the simulations they disturb.
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "farm/farm.h"
#include "farm/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tmsim::farm {
namespace {

/// Same family as farm_determinism_test: 2x2..3x3 meshes, 60..200
/// cycles, mixed BE/GT, ~1 in 4 hosted (some with a recoverable-rate
/// faulty bus), plus a retry budget for the chaos to spend.
JobSpec random_spec(std::uint64_t index) {
  SplitMix64 rng(0xc4a05ull + index);
  JobSpec spec;
  spec.name = "chaos-" + std::to_string(index);
  spec.net.width = 2 + rng.next_below(2);
  spec.net.height = 2 + rng.next_below(2);
  spec.net.topology = noc::Topology::kMesh;
  spec.net.router.queue_depth = 2 + rng.next_below(2);
  spec.priority = static_cast<Priority>(rng.next_below(kNumPriorities));
  spec.seed = rng.next();
  spec.cycles = 60 + rng.next_below(141);
  // Spare draw (the shard count specs once carried), so every later
  // draw, and every other field, is unchanged.
  (void)rng.next_below(2);
  spec.scheduler = static_cast<core::SchedulerKind>(rng.next_below(3));
  spec.workload.be_load = 0.05 * static_cast<double>(rng.next_below(5));
  spec.max_retries = 2;
  if (rng.next_below(4) == 0) {
    spec.kind = JobKind::kHostedFpga;
    if (rng.next_below(2) == 0) {
      spec.faults.read_flip = 1e-3;  // recoverable rate: never aborts
      spec.faults.stuck_busy = 1e-3;
    }
  } else {
    spec.workload.verify_payload = rng.next_below(2) == 0;
  }
  const std::size_t routers = spec.net.width * spec.net.height;
  const std::uint64_t num_gt = rng.next_below(3);
  for (std::uint64_t g = 0; g < num_gt; ++g) {
    traffic::GtStream s;
    s.src = rng.next_below(routers);
    s.dst = (s.src + 1 + rng.next_below(routers - 1)) % routers;
    s.vc = static_cast<unsigned>(g);
    s.period = 40 + 10 * rng.next_below(4);
    s.phase = rng.next_below(20);
    spec.workload.gt_streams.push_back(s);
  }
  return spec;
}

/// Which misfortune a job is assigned, as a pure function of its id.
enum class Group { kClean, kTransient, kKillGraceful, kKillHard, kPermanent };

Group group_of(std::uint64_t job_id) {
  const std::uint64_t h = (job_id * 0x9e3779b97f4a7c15ull) >> 33;
  switch (h % 8) {
    case 0:
    case 1:
      return Group::kTransient;
    case 2:
      return Group::kKillGraceful;
    case 3:
      return Group::kKillHard;
    case 4:
      return Group::kPermanent;
    default:
      return Group::kClean;
  }
}

TEST(FarmChaos, NoJobLeftBehindUnderInjectedFaultsAndWorkerKills) {
  constexpr std::size_t kSpecs = 120;
  std::vector<JobSpec> specs;
  specs.reserve(kSpecs);
  for (std::size_t i = 0; i < kSpecs; ++i) {
    specs.push_back(random_spec(i));
    ASSERT_NO_THROW(specs.back().validate()) << specs.back().serialize();
  }

  // The reference truth: every spec, undisturbed, on this thread.
  std::vector<JobResult> standalone;
  standalone.reserve(kSpecs);
  for (const JobSpec& spec : specs) {
    standalone.push_back(run_job_standalone(spec));
    ASSERT_EQ(standalone.back().status, JobStatus::kDone)
        << spec.name << ": " << standalone.back().error;
  }

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;  // full-rate: every chaos victim leaves a trace
  FarmOptions opt;
  opt.num_workers = 4;
  opt.queue_capacity = kSpecs;
  opt.preempt_quantum = 24;  // 3..9 slices per job: boundaries everywhere
  opt.retry_backoff_base_us = 50.0;
  opt.supervisor_interval_ms = 2.0;  // aggressive reclaim/respawn cadence
  opt.metrics = &metrics;
  opt.tracer = &tracer;
  opt.flight_recorder_depth = 256;

  // Kill actions must fire once per *job*, not once per (job, slice):
  // reclaim preserves the slice counter, so a slice-keyed kill would
  // re-fire on the replacement worker forever (the kill loop). Job ids
  // are assigned 1..kSpecs in submission order.
  std::vector<std::atomic<bool>> tripped(kSpecs + 1);
  opt.chaos = [&](const ChaosEvent& ev) {
    switch (group_of(ev.job_id)) {
      case Group::kTransient:
        // First attempt dies one slice in; the retry runs clean.
        return (ev.attempt == 1 && ev.slice == 1)
                   ? ChaosAction::kThrowTransient
                   : ChaosAction::kNone;
      case Group::kKillGraceful:
        return (ev.slice == 1 && !tripped[ev.job_id].exchange(true))
                   ? ChaosAction::kKillWorker
                   : ChaosAction::kNone;
      case Group::kKillHard:
        return (ev.slice == 1 && !tripped[ev.job_id].exchange(true))
                   ? ChaosAction::kKillWorkerLoseSession
                   : ChaosAction::kNone;
      case Group::kPermanent:
        return ev.slice == 1 ? ChaosAction::kThrowPermanent
                             : ChaosAction::kNone;
      case Group::kClean:
        break;
    }
    return ChaosAction::kNone;
  };

  std::size_t n_transient = 0, n_kill = 0, n_permanent = 0;
  SimFarm farm(opt);
  std::vector<std::uint64_t> ids;
  ids.reserve(kSpecs);
  for (const JobSpec& spec : specs) {
    const SubmitOutcome out = farm.submit(spec);
    ASSERT_TRUE(out.accepted) << spec.name << ": " << out.detail;
    ids.push_back(out.job_id);
    switch (group_of(out.job_id)) {
      case Group::kTransient: ++n_transient; break;
      case Group::kKillGraceful:
      case Group::kKillHard: ++n_kill; break;
      case Group::kPermanent: ++n_permanent; break;
      case Group::kClean: break;
    }
  }
  farm.drain();

  // (a) Exactly one terminal result per accepted spec…
  ASSERT_EQ(farm.results().size(), kSpecs);
  std::size_t done = 0, failed = 0;
  for (std::size_t i = 0; i < kSpecs; ++i) {
    const auto r = farm.results().get(ids[i]);
    ASSERT_TRUE(r.has_value()) << specs[i].name << " left behind";
    if (group_of(ids[i]) == Group::kPermanent) {
      // …with the designed failure where chaos was permanent: contained,
      // structured, never retried, replay tuple attached.
      EXPECT_EQ(r->status, JobStatus::kFailed) << specs[i].name;
      EXPECT_EQ(r->failure.kind, FailureKind::kEngineError);
      EXPECT_EQ(r->failure.attempts, 1u);
      EXPECT_EQ(r->failure.replay, specs[i].serialize());
      // Every surfaced failure ships its black box (DESIGN.md §15): the
      // failing worker's recent events for this job, next to the replay.
      EXPECT_FALSE(r->failure.flight_recording.empty()) << specs[i].name;
      EXPECT_NE(r->failure.flight_recording.find("\"event\": \"publish\""),
                std::string::npos);
      ++failed;
      continue;
    }
    // (b) …and everything that completed is bit-identical to standalone,
    // whether it was retried from scratch, resumed from a reclaimed
    // checkpoint, or restarted after its session died with its worker.
    EXPECT_EQ(r->status, JobStatus::kDone)
        << specs[i].name << ": " << r->error;
    std::string why;
    EXPECT_TRUE(results_equivalent(standalone[i], *r, &why))
        << specs[i].name << ": " << why << "\n" << specs[i].serialize();
    ++done;
  }
  farm.shutdown();

  // The ledger balances: every job in exactly one terminal bucket, no
  // job in two (terminal-race arbitration), none cancelled here.
  EXPECT_EQ(metrics.counter_value("farm.jobs.completed"), done);
  EXPECT_EQ(metrics.counter_value("farm.jobs.failed"), failed);
  EXPECT_EQ(metrics.counter_value("farm.jobs.cancelled"), 0u);
  EXPECT_EQ(done + failed, kSpecs);

  // And the chaos actually happened — this test must never pass because
  // the injection quietly stopped injecting.
  ASSERT_GT(n_transient, 0u);
  ASSERT_GT(n_kill, 0u);
  ASSERT_GT(n_permanent, 0u);
  EXPECT_EQ(metrics.counter_value("farm.retries.scheduled"), n_transient);
  EXPECT_EQ(metrics.counter_value("farm.retries.exhausted"), 0u);
  EXPECT_EQ(metrics.counter_value("farm.supervisor.workers_lost"), n_kill);
  EXPECT_EQ(metrics.counter_value("farm.supervisor.jobs_reclaimed"), n_kill);
  EXPECT_EQ(metrics.counter_value("farm.supervisor.respawns"), n_kill);
  EXPECT_EQ(metrics.counter_value("farm.jobs.failed", "reason=engine_error"),
            n_permanent);
  EXPECT_TRUE(farm.quarantined().empty());

  // Whatever the chaos did — retries, kills, reclaims, hard restarts —
  // every job's span chain is still one valid connected tree per trace.
  EXPECT_EQ(tracer.traces_started(), kSpecs);
  std::ostringstream os;
  tracer.write_jsonl(os);
  std::istringstream is(os.str());
  const auto verdict = obs::trace_validate(is);
  EXPECT_EQ(verdict, std::nullopt) << *verdict;
}

}  // namespace
}  // namespace tmsim::farm

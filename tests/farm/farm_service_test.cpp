// SimFarm service-level tests: end-to-end job execution (core and
// hosted), backpressure under flood without ever blocking a submitter
// (run under TSan via the tsan preset's farm label), forced
// preemption/resume accounting, the farm.* metrics surface, the
// completion feed, and wait() on ids the farm never issued.
#include "farm/farm.h"

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tmsim::farm {
namespace {

JobSpec small_job(const std::string& name, std::uint64_t seed,
                  Priority p = Priority::kNormal) {
  JobSpec spec;
  spec.name = name;
  spec.net.width = 3;
  spec.net.height = 3;
  spec.net.topology = noc::Topology::kMesh;
  spec.workload.be_load = 0.1;
  spec.priority = p;
  spec.seed = seed;
  spec.cycles = 200;
  return spec;
}

TEST(SimFarm, RunsCoreJobsToCompletion) {
  FarmOptions opt;
  opt.num_workers = 2;
  SimFarm farm(opt);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const auto out = farm.submit(small_job("core-" + std::to_string(i),
                                           100 + static_cast<unsigned>(i)));
    ASSERT_TRUE(out.accepted) << out.detail;
    ids.push_back(out.job_id);
  }
  farm.drain();
  for (const auto id : ids) {
    const JobResult r = farm.results().wait(id);
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_EQ(r.cycles_simulated, 200u);
    EXPECT_GT(r.flits_injected, 0u);
    EXPECT_NE(r.state_digest, 0u);
    EXPECT_GE(r.slices, 1u);
  }
}

TEST(SimFarm, RunsHostedJobsWithFaultyBus) {
  FarmOptions opt;
  opt.num_workers = 2;
  opt.preempt_quantum = 128;
  opt.force_preempt = true;  // hosted preemption = slicing ArmHost::run()
  SimFarm farm(opt);

  JobSpec spec = small_job("hosted", 7);
  spec.kind = JobKind::kHostedFpga;
  spec.net.width = 4;
  spec.net.height = 4;
  spec.workload.be_load = 0.05;
  spec.cycles = 600;
  spec.faults.read_flip = 2e-3;
  const auto out = farm.submit(spec);
  ASSERT_TRUE(out.accepted) << out.detail;
  const JobResult r = farm.wait(out.job_id);
  EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
  // ArmHost runs whole simulation periods, so the budget is a floor.
  EXPECT_GE(r.cycles_simulated, 600u);
  EXPECT_FALSE(r.fault_report.aborted);
  EXPECT_GT(r.preemptions, 0u);
}

TEST(SimFarm, BackpressureRejectsWithoutBlockingSubmitters) {
  obs::MetricsRegistry metrics;
  FarmOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 2;  // tiny: floods must bounce
  opt.metrics = &metrics;
  SimFarm farm(opt);

  // Four submitter threads flood the farm; every submit returns
  // immediately (accepted or structured reject), so total progress is
  // bounded by loop counts — a blocked submitter would hang the join.
  constexpr int kPerThread = 40;
  std::atomic<int> accepted{0}, rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto out = farm.submit(small_job(
            "flood-" + std::to_string(t) + "-" + std::to_string(i),
            static_cast<std::uint64_t>(t * 1000 + i + 1)));
        if (out.accepted) {
          ++accepted;
        } else {
          ++rejected;
          EXPECT_EQ(out.reason, RejectReason::kQueueFull);
          EXPECT_FALSE(out.detail.empty());
        }
      }
    });
  }
  for (auto& th : submitters) {
    th.join();
  }
  farm.drain();

  EXPECT_EQ(accepted + rejected, 4 * kPerThread);
  EXPECT_GT(rejected.load(), 0) << "flood never hit backpressure";
  EXPECT_EQ(farm.results().size(), static_cast<std::size_t>(accepted.load()));

  // The rejects are visible on the metrics surface, per reason.
  EXPECT_EQ(metrics.counter_value("farm.admission.rejected"),
            static_cast<std::uint64_t>(rejected.load()));
  EXPECT_EQ(metrics.counter_value("farm.admission.rejected",
                                  "reason=queue_full"),
            static_cast<std::uint64_t>(rejected.load()));
  EXPECT_EQ(metrics.counter_value("farm.admission.submitted"),
            static_cast<std::uint64_t>(4 * kPerThread));
}

TEST(SimFarm, ForcedPreemptionIsAccountedAndInvisibleInResults) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  FarmOptions opt;
  opt.num_workers = 2;
  opt.preempt_quantum = 32;  // 200-cycle jobs → ~6 slices each
  opt.force_preempt = true;
  opt.paranoid_resume = true;
  opt.metrics = &metrics;
  opt.tracer = &tracer;
  SimFarm farm(opt);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const auto out =
        farm.submit(small_job("pre-" + std::to_string(i),
                              static_cast<std::uint64_t>(31 + i)));
    ASSERT_TRUE(out.accepted);
    ids.push_back(out.job_id);
  }
  farm.drain();
  std::size_t slices = 0;
  for (const auto id : ids) {
    const JobResult r = farm.results().get(id).value();
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_GT(r.preemptions, 0u);
    EXPECT_GT(r.slices, r.preemptions);
    slices += r.slices;
  }
  farm.shutdown();

  EXPECT_GT(metrics.counter_value("farm.preemptions"), 0u);
  EXPECT_EQ(metrics.counter_value("farm.preemptions"),
            metrics.counter_value("farm.checkpoints"));
  EXPECT_EQ(metrics.counter_value("farm.resumes"),
            metrics.counter_value("farm.preemptions"));
  EXPECT_EQ(metrics.counter_value("farm.jobs.completed"), 6u);
  // The tracer saw every slice, and every preemption closed an exec
  // segment as "preempted".
  std::size_t slice_spans = 0;
  std::uint64_t preempted_execs = 0;
  for (const obs::SpanRecord& s : tracer.snapshot()) {
    slice_spans += s.name == "farm.slice";
    preempted_execs += s.name == "farm.exec" &&
                       s.args_json.find("\"preempted\"") != std::string::npos;
  }
  EXPECT_EQ(slice_spans, slices);
  EXPECT_EQ(preempted_execs, metrics.counter_value("farm.preemptions"));
}

TEST(SimFarm, WaitingInteractiveWorkPreemptsRunningBatchJob) {
  obs::MetricsRegistry metrics;
  FarmOptions opt;
  opt.num_workers = 1;  // the batch job holds the only worker
  opt.preempt_quantum = 64;
  opt.metrics = &metrics;
  SimFarm farm(opt);

  JobSpec batch = small_job("long-batch", 5, Priority::kBatch);
  batch.cycles = 60'000;  // long enough to still be running when the
                          // interactive job arrives
  const auto b = farm.submit(batch);
  ASSERT_TRUE(b.accepted);
  // Give the worker time to pick the batch job up and enter its slices.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto i = farm.submit(small_job("urgent", 6, Priority::kInteractive));
  ASSERT_TRUE(i.accepted);
  farm.drain();

  const JobResult br = farm.results().get(b.job_id).value();
  const JobResult ir = farm.results().get(i.job_id).value();
  EXPECT_EQ(br.status, JobStatus::kDone) << br.error;
  EXPECT_EQ(ir.status, JobStatus::kDone) << ir.error;
  // The batch job was checkpointed for the interactive one (natural
  // preemption, no force_preempt involved).
  EXPECT_GE(br.preemptions, 1u);
  EXPECT_EQ(ir.preemptions, 0u);
  EXPECT_GE(metrics.counter_value("farm.preemptions"), 1u);
}

TEST(SimFarm, InvalidAndOversizedSpecsBounceAtSubmit) {
  FarmOptions opt;
  opt.num_workers = 1;
  opt.max_job_cycles = 500;
  SimFarm farm(opt);

  JobSpec bad = small_job("bad", 1);
  bad.cycles = 0;
  const auto invalid = farm.submit(bad);
  EXPECT_FALSE(invalid.accepted);
  EXPECT_EQ(invalid.reason, RejectReason::kInvalidSpec);

  JobSpec big = small_job("big", 1);
  big.cycles = 501;
  const auto too_large = farm.submit(big);
  EXPECT_FALSE(too_large.accepted);
  EXPECT_EQ(too_large.reason, RejectReason::kTooLarge);

  farm.shutdown();
  const auto stopped = farm.submit(small_job("late", 1));
  EXPECT_FALSE(stopped.accepted);
  EXPECT_EQ(stopped.reason, RejectReason::kStopped);
}

TEST(SimFarm, CompletionFeedDeliversEveryAcceptedId) {
  FarmOptions opt;
  opt.num_workers = 2;
  SimFarm farm(opt);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto out = farm.submit(
        small_job("feed-" + std::to_string(i), static_cast<std::uint64_t>(i + 1)));
    ASSERT_TRUE(out.accepted);
    ids.insert(out.job_id);
  }
  farm.drain();

  // 10 completions: the feed holds exactly the 10 accepted ids, once each.
  ResultStore::Cursor cursor;
  const auto completed = farm.results().next_batch(cursor, 0, {});
  EXPECT_EQ(completed.size(), 10u);
  EXPECT_EQ(std::set<std::uint64_t>(completed.begin(), completed.end()), ids);
  EXPECT_TRUE(farm.results().next_batch(cursor, 0, {}).empty());
}

TEST(SimFarm, WaitOnAnUnissuedIdThrows) {
  // No result will ever be published for an id the farm never issued,
  // so wait() refuses it instead of blocking forever.
  FarmOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 1;
  SimFarm farm(opt);
  EXPECT_THROW(farm.wait(0), ContextualError);
  EXPECT_THROW(farm.wait(1), ContextualError);

  const auto accepted = farm.submit(small_job("issued", 1));
  ASSERT_TRUE(accepted.accepted);
  EXPECT_EQ(farm.wait(accepted.job_id).job_id, accepted.job_id);
  EXPECT_THROW(farm.wait(accepted.job_id + 1), ContextualError);

  // A rejected submit carries job_id 0.
  farm.shutdown();
  const auto rejected = farm.submit(small_job("late", 2));
  ASSERT_FALSE(rejected.accepted);
  EXPECT_THROW(farm.wait(rejected.job_id), ContextualError);
}

TEST(SimFarm, WorkerEngineCacheKeepsEnginesWarmAcrossJobs) {
  // One worker pops one job at a time; only its engine cache carries a
  // warm engine from one job to the next.
  const auto run = [](const std::vector<JobSpec>& specs) {
    obs::MetricsRegistry metrics;
    FarmOptions opt;
    opt.num_workers = 1;
    opt.metrics = &metrics;
    SimFarm farm(opt);
    for (const JobSpec& spec : specs) {
      EXPECT_TRUE(farm.submit(spec).accepted);
    }
    farm.drain();
    farm.shutdown();  // publishes the per-worker cache counters
    return std::make_pair(
        metrics.counter_value("farm.worker.cache_hits", "worker=0"),
        metrics.counter_value("farm.worker.cache_misses", "worker=0"));
  };
  constexpr std::uint64_t kJobs = 6;
  std::vector<JobSpec> same;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    same.push_back(small_job("same-" + std::to_string(i), 300 + i));
  }
  const auto [hits, misses] = run(same);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, kJobs - 1);

  // Two keys, alternating: both fit the cache, so each misses once.
  std::vector<JobSpec> alternating;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    JobSpec spec = small_job("alt-" + std::to_string(i), 400 + i);
    if (i % 2 == 1) {
      spec.net.width = 2;
      spec.net.height = 2;
    }
    alternating.push_back(spec);
  }
  ASSERT_NE(engine_cache_key(alternating[0]), engine_cache_key(alternating[1]));
  const auto [alt_hits, alt_misses] = run(alternating);
  EXPECT_EQ(alt_misses, 2u);
  EXPECT_EQ(alt_hits, kJobs - 2);
}

TEST(SimFarm, ShutdownIsIdempotentAndDrains) {
  FarmOptions opt;
  opt.num_workers = 2;
  SimFarm farm(opt);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto out = farm.submit(
        small_job("sd-" + std::to_string(i), static_cast<std::uint64_t>(i + 1)));
    ASSERT_TRUE(out.accepted);
    ids.push_back(out.job_id);
  }
  farm.shutdown();
  farm.shutdown();  // idempotent
  // Every accepted job has a published result even though we never
  // called drain(): shutdown finishes admitted work.
  for (const auto id : ids) {
    ASSERT_TRUE(farm.results().get(id).has_value());
    EXPECT_EQ(farm.results().get(id)->status, JobStatus::kDone);
  }
}

}  // namespace
}  // namespace tmsim::farm

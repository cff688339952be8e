// Trace invariants of the farm (DESIGN.md §15), including under chaos:
//   - a traced job's life renders as ONE connected span tree (validated
//     by obs::trace_validate) with the expected stations: farm.submit,
//     admission.enqueue/dequeue, farm.exec (+ attach/slice children),
//     farm.publish, under the farm.job root;
//   - retry attempts hang off the root as their own child chains
//     (attempt-k spans never parent to a sibling attempt);
//   - a job reclaimed from a killed worker keeps a single connected
//     trace, with the reclaim edge recorded;
//   - failures carry a non-empty flight-recorder dump;
//   - and the whole apparatus is *invisible in the results*: a 40-spec
//     differential run with full-rate tracing + flight recorder +
//     introspection against a dark farm is bit-identical per spec.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "farm/farm.h"
#include "farm/session.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"

namespace tmsim::farm {
namespace {

JobSpec tiny_spec(std::uint64_t index, SystemCycle cycles = 120) {
  JobSpec spec;
  spec.name = "trace-" + std::to_string(index);
  spec.net.width = 2;
  spec.net.height = 2;
  spec.net.topology = noc::Topology::kMesh;
  spec.seed = 0x7ace + index;
  spec.cycles = cycles;
  spec.workload.be_load = 0.10;
  traffic::GtStream s;
  s.src = 0;
  s.dst = 3;
  s.period = 40;
  spec.workload.gt_streams.push_back(s);
  return spec;
}

std::string spans_jsonl(const obs::Tracer& tracer) {
  std::ostringstream os;
  tracer.write_jsonl(os);
  return os.str();
}

std::size_t count_name(const std::string& log, const std::string& name) {
  const std::string needle = "\"name\": \"" + name + "\"";
  std::size_t n = 0;
  for (std::size_t pos = log.find(needle); pos != std::string::npos;
       pos = log.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(FarmTrace, LifecycleRendersAsOneConnectedTree) {
  obs::Tracer tracer;  // sample_every = 1: trace everything
  FarmOptions opt;
  opt.num_workers = 2;
  opt.preempt_quantum = 32;  // several slices per job
  opt.tracer = &tracer;
  constexpr std::size_t kJobs = 6;
  {
    SimFarm farm(opt);
    for (std::size_t i = 0; i < kJobs; ++i) {
      ASSERT_TRUE(farm.submit(tiny_spec(i)).accepted);
    }
    farm.drain();
    farm.shutdown();
  }
  EXPECT_EQ(tracer.traces_started(), kJobs);
  const std::string log = spans_jsonl(tracer);
  std::istringstream is(log);
  EXPECT_EQ(obs::trace_validate(is), std::nullopt) << log;
  // Every station of a clean job's life, once per job.
  EXPECT_EQ(count_name(log, "farm.job"), kJobs);
  EXPECT_EQ(count_name(log, "farm.submit"), kJobs);
  EXPECT_EQ(count_name(log, "admission.enqueue"), kJobs);
  EXPECT_EQ(count_name(log, "admission.dequeue"), kJobs);
  EXPECT_EQ(count_name(log, "farm.publish"), kJobs);
  EXPECT_GE(count_name(log, "farm.exec"), kJobs);
  EXPECT_GE(count_name(log, "farm.attach"), kJobs);
  EXPECT_GE(count_name(log, "farm.slice"), kJobs);
  // Every exec segment closed with an outcome.
  EXPECT_EQ(count_name(log, "farm.exec"),
            [&] {
              std::size_t n = 0;
              for (std::size_t pos = log.find("\"outcome\"");
                   pos != std::string::npos;
                   pos = log.find("\"outcome\"", pos + 1)) {
                ++n;
              }
              return n;
            }());
  // And the export draws without unbalanced braces.
  obs::ChromeTrace chrome;
  tracer.export_chrome(chrome);
  std::ostringstream os;
  chrome.write_json(os);
  const std::string json = os.str();
  std::size_t open = 0, close = 0;
  for (const char c : json) {
    open += c == '{';
    close += c == '}';
  }
  EXPECT_EQ(open, close);
}

TEST(FarmTrace, RetryAttemptsGetTheirOwnChildChains) {
  obs::Tracer tracer;
  FarmOptions opt;
  opt.num_workers = 2;
  opt.preempt_quantum = 32;
  opt.retry_backoff_base_us = 20.0;
  opt.tracer = &tracer;
  opt.flight_recorder_depth = 64;
  opt.chaos = [](const ChaosEvent& ev) {
    // First attempt of every job dies one slice in; the retry runs clean.
    return (ev.attempt == 1 && ev.slice == 1) ? ChaosAction::kThrowTransient
                                              : ChaosAction::kNone;
  };
  std::uint64_t id = 0;
  {
    SimFarm farm(opt);
    JobSpec spec = tiny_spec(0);
    spec.max_retries = 2;
    const SubmitOutcome out = farm.submit(spec);
    ASSERT_TRUE(out.accepted);
    id = out.job_id;
    const JobResult r = farm.wait(id);
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    farm.shutdown();
  }
  const std::string log = spans_jsonl(tracer);
  std::istringstream is(log);
  EXPECT_EQ(obs::trace_validate(is), std::nullopt) << log;
  // The retry edge and both attempts' exec segments are in the tree:
  // attempt 1 closed "retry", attempt 2 closed "done".
  EXPECT_EQ(count_name(log, "farm.retry"), 1u);
  EXPECT_EQ(count_name(log, "farm.exec"), 2u);
  EXPECT_NE(log.find("\"outcome\": \"retry\""), std::string::npos);
  EXPECT_NE(log.find("\"outcome\": \"done\""), std::string::npos);
  EXPECT_NE(log.find("\"attempt\": 2"), std::string::npos);
}

TEST(FarmTrace, ReclaimedJobsKeepOneConnectedTrace) {
  obs::Tracer tracer;
  FarmOptions opt;
  opt.num_workers = 2;
  opt.preempt_quantum = 32;
  opt.supervisor_interval_ms = 2.0;
  opt.tracer = &tracer;
  std::atomic<bool> tripped{false};
  opt.chaos = [&](const ChaosEvent& ev) {
    return (ev.slice == 1 && !tripped.exchange(true))
               ? ChaosAction::kKillWorker
               : ChaosAction::kNone;
  };
  {
    SimFarm farm(opt);
    const SubmitOutcome out = farm.submit(tiny_spec(0, /*cycles=*/200));
    ASSERT_TRUE(out.accepted);
    const JobResult r = farm.wait(out.job_id);
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    farm.shutdown();
  }
  const std::string log = spans_jsonl(tracer);
  std::istringstream is(log);
  EXPECT_EQ(obs::trace_validate(is), std::nullopt) << log;
  // The kill closed the first exec segment, the supervisor recorded the
  // reclaim edge, and a second dispatch finished the job — all one tree.
  EXPECT_EQ(count_name(log, "farm.reclaim"), 1u);
  EXPECT_NE(log.find("\"outcome\": \"killed\""), std::string::npos);
  EXPECT_NE(log.find("\"outcome\": \"done\""), std::string::npos);
  EXPECT_GE(count_name(log, "farm.exec"), 2u);
  EXPECT_EQ(count_name(log, "farm.job"), 1u);
}

TEST(FarmTrace, FailedJobsCarryAFlightRecordingThatValidates) {
  obs::Tracer tracer;
  FarmOptions opt;
  opt.num_workers = 2;
  opt.preempt_quantum = 32;
  opt.tracer = &tracer;
  opt.flight_recorder_depth = 128;
  opt.chaos = [](const ChaosEvent& ev) {
    return ev.slice == 1 ? ChaosAction::kThrowPermanent : ChaosAction::kNone;
  };
  std::uint64_t id = 0;
  {
    SimFarm farm(opt);
    const SubmitOutcome out = farm.submit(tiny_spec(0));
    ASSERT_TRUE(out.accepted);
    id = out.job_id;
    const JobResult r = farm.wait(id);
    ASSERT_EQ(r.status, JobStatus::kFailed);
    // The black box: non-empty, the job's own story, publish included.
    ASSERT_FALSE(r.failure.flight_recording.empty());
    EXPECT_NE(r.failure.flight_recording.find("\"event\": \"dispatch\""),
              std::string::npos);
    EXPECT_NE(r.failure.flight_recording.find("\"event\": \"slice\""),
              std::string::npos);
    EXPECT_NE(r.failure.flight_recording.find("\"event\": \"publish\""),
              std::string::npos);
    EXPECT_NE(r.failure.flight_recording.find(
                  "\"job\": " + std::to_string(id)),
              std::string::npos);
    farm.shutdown();
  }
  // The failed attempt's span chain still validates as a closed tree.
  const std::string log = spans_jsonl(tracer);
  std::istringstream is(log);
  EXPECT_EQ(obs::trace_validate(is), std::nullopt) << log;
  EXPECT_NE(log.find("\"outcome\": \"failed\""), std::string::npos);
}

TEST(FarmTrace, FullObservabilityIsInvisibleInResults) {
  // The differential proof behind "provably free when off": 40 specs
  // through a dark farm vs. a fully-lit one (full-rate tracing, flight
  // recorder, periodic introspection) — bit-identical result surfaces.
  constexpr std::size_t kSpecs = 40;
  std::vector<JobSpec> specs;
  specs.reserve(kSpecs);
  for (std::size_t i = 0; i < kSpecs; ++i) {
    JobSpec spec = tiny_spec(i, 60 + 20 * (i % 5));
    spec.workload.be_load = 0.05 * static_cast<double>(i % 4);
    specs.push_back(std::move(spec));
  }

  const auto run = [&](FarmOptions opt) {
    opt.num_workers = 4;
    opt.queue_capacity = kSpecs;
    opt.preempt_quantum = 32;
    opt.force_preempt = true;  // maximum churn on the traced paths
    SimFarm farm(opt);
    std::vector<std::uint64_t> ids;
    ids.reserve(kSpecs);
    for (const JobSpec& spec : specs) {
      const SubmitOutcome out = farm.submit(spec);
      EXPECT_TRUE(out.accepted) << out.detail;
      ids.push_back(out.job_id);
    }
    farm.drain();
    std::vector<JobResult> results;
    results.reserve(kSpecs);
    for (const std::uint64_t id : ids) {
      results.push_back(farm.wait(id));
    }
    farm.shutdown();
    return results;
  };

  const std::vector<JobResult> dark = run(FarmOptions{});

  obs::Tracer tracer;
  const std::string snap_path =
      testing::TempDir() + "farm_trace_introspect.json";
  FarmOptions lit;
  lit.tracer = &tracer;
  lit.flight_recorder_depth = 64;
  lit.introspect_interval_ms = 1.0;
  lit.introspect_path = snap_path;
  const std::vector<JobResult> full = run(lit);

  ASSERT_EQ(dark.size(), full.size());
  for (std::size_t i = 0; i < kSpecs; ++i) {
    ASSERT_EQ(dark[i].status, JobStatus::kDone) << dark[i].error;
    std::string why;
    EXPECT_TRUE(results_equivalent(dark[i], full[i], &why))
        << specs[i].name << ": " << why;
  }
  // The lit run actually traced (this test must not pass vacuously)…
  EXPECT_EQ(tracer.traces_started(), kSpecs);
  EXPECT_GT(tracer.spans_recorded(), 0u);
  const std::string log = spans_jsonl(tracer);
  std::istringstream is(log);
  EXPECT_EQ(obs::trace_validate(is), std::nullopt);
  // …and the shutdown snapshot landed on disk.
  std::ifstream snap(snap_path);
  ASSERT_TRUE(snap.good());
  std::stringstream buf;
  buf << snap.rdbuf();
  EXPECT_NE(buf.str().find("\"workers\""), std::string::npos);
  std::remove(snap_path.c_str());
}

TEST(FarmTrace, IntrospectSnapshotIsLiveAndBalanced) {
  obs::Tracer tracer;
  FarmOptions opt;
  opt.num_workers = 2;
  opt.tracer = &tracer;
  opt.flight_recorder_depth = 32;
  SimFarm farm(opt);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(farm.submit(tiny_spec(i)).accepted);
  }
  // Callable mid-flight from a foreign thread (this one), repeatedly.
  const std::string live = farm.introspect();
  farm.drain();
  const std::string settled = farm.introspect();
  farm.shutdown();
  for (const std::string* s : {&live, &settled}) {
    std::size_t open = 0, close = 0;
    for (const char c : *s) {
      open += c == '{';
      close += c == '}';
    }
    EXPECT_EQ(open, close) << *s;
    for (const char* key :
         {"\"ts_us\"", "\"inflight\"", "\"queue\"", "\"classes\"",
          "\"depth\"", "\"oldest_age_us\"", "\"workers\"", "\"state\"",
          "\"results\"", "\"published\"", "\"memo\"",
          "\"trace\"", "\"flight\"", "\"counters\""}) {
      EXPECT_NE(s->find(key), std::string::npos) << key << " in " << *s;
    }
  }
  EXPECT_NE(settled.find("\"inflight\": 0"), std::string::npos);
  EXPECT_NE(settled.find("\"published\": 4"), std::string::npos);
}

}  // namespace
}  // namespace tmsim::farm

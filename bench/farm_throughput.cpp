// Farm throughput bench: jobs/second and job-latency quantiles of the
// SimFarm batch service as a function of worker-pool size and admission
// queue depth. The paper's platform simulates one SoC at a time; the
// farm layer (DESIGN.md §11) amortizes one host across many queued
// simulation requests, so the capacity question becomes "how many
// Fig. 1-style sweep points per second does a pool of N workers
// clear?" — which is what this bench measures.
//
// Four sweeps (DESIGN.md §14):
//   1. CPU-bound capacity vs (workers, queue depth). The job count
//      scales with the worker count so every pool runs saturated —
//      a fixed count under-saturates large pools and mismeasures them.
//      Each point also emits its pipeline-stage breakdown (queue-wait /
//      attach / run / publish µs summed across workers) so a scaling
//      regression names the stage that serialized, and the share of
//      engine acquisitions a worker served from its warm-engine cache.
//   2. Paced scaling: jobs that sleep a fixed wall interval per slice,
//      so throughput scales with workers iff the farm hot path is
//      concurrent — even on a single-core host, where CPU-bound w4
//      can never beat w1. `paced_scaling_w4_over_w1` is the headline
//      number; ≥ 2.0 is the wall the `scale` test suite enforces.
//   3. Memoization: a duplicate-heavy stream (the sweep-grid use case:
//      many submitters asking for overlapping points) with the
//      spec-fingerprint memo off vs on.
//
// Output: human tables plus BENCH_farm_throughput.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "farm/farm.h"
#include "obs/metrics.h"

namespace {

using tmsim::farm::ChaosAction;
using tmsim::farm::ChaosEvent;
using tmsim::farm::FarmOptions;
using tmsim::farm::JobResult;
using tmsim::farm::JobSpec;
using tmsim::farm::JobStatus;
using tmsim::farm::Priority;
using tmsim::farm::SimFarm;
using tmsim::farm::SubmitOutcome;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

JobSpec make_job(std::size_t i, tmsim::SystemCycle cycles) {
  JobSpec spec;
  spec.name = "sweep-" + std::to_string(i);
  spec.net.width = 4;
  spec.net.height = 4;
  spec.net.topology = tmsim::noc::Topology::kMesh;
  // A Fig. 1-style point: GT background plus a BE load that scales with
  // the job index, so the pool sees heterogeneous work.
  spec.workload.fig1_gt = true;
  spec.workload.gt_period = 600;
  spec.workload.be_load = 0.02 * static_cast<double>(i % 10);
  spec.priority = static_cast<Priority>(i % 3);
  spec.seed = 0x9001 + i;
  spec.cycles = cycles;
  return spec;
}

struct Point {
  std::size_t workers;
  std::size_t queue_capacity;
  std::size_t num_jobs = 0;
  std::size_t jobs_done = 0;
  std::size_t rejected = 0;
  double wall_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  // Pipeline-stage breakdown, µs summed across workers (farm.stage.*).
  double queue_wait_us = 0.0;
  double attach_us = 0.0;
  double run_us = 0.0;
  double publish_us = 0.0;
  // Engine-cache reuse, summed across workers (farm.worker.cache_*).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

Point run_point(std::size_t workers, std::size_t queue_capacity,
                std::size_t num_jobs, tmsim::SystemCycle cycles) {
  Point pt{workers, queue_capacity};
  pt.num_jobs = num_jobs;
  tmsim::obs::MetricsRegistry metrics;
  FarmOptions opt;
  opt.num_workers = workers;
  opt.queue_capacity = queue_capacity;
  opt.preempt_quantum = 512;
  opt.metrics = &metrics;
  SimFarm farm(opt);

  std::vector<std::uint64_t> ids;
  ids.reserve(num_jobs);
  pt.wall_s = tmsim::bench::time_run([&] {
    std::size_t waited = 0;
    for (std::size_t i = 0; i < num_jobs; ++i) {
      // Submit-until-accepted: on kQueueFull backpressure, service the
      // queue by waiting for the oldest outstanding result — the
      // structured reject means the submitter, not the farm, decides
      // how to shed or defer load.
      for (;;) {
        const SubmitOutcome out = farm.submit(make_job(i, cycles));
        if (out.accepted) {
          ids.push_back(out.job_id);
          break;
        }
        ++pt.rejected;
        if (waited < ids.size()) {
          farm.wait(ids[waited++]);
        }
      }
    }
    farm.drain();
  });

  std::vector<double> turnaround;
  turnaround.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    const JobResult r = farm.results().get(id).value();
    if (r.status == JobStatus::kDone) {
      ++pt.jobs_done;
      turnaround.push_back(r.turnaround_seconds);
    }
  }
  pt.p50_s = quantile(turnaround, 0.50);
  pt.p99_s = quantile(turnaround, 0.99);
  // Stage instruments are published at end-of-life; shut down, then sum
  // the per-worker rows.
  farm.shutdown();
  for (std::size_t w = 0; w < workers; ++w) {
    const std::string label = "worker=" + std::to_string(w);
    pt.queue_wait_us += static_cast<double>(
        metrics.counter_value("farm.stage.queue_wait_us", label));
    pt.attach_us += static_cast<double>(
        metrics.counter_value("farm.stage.attach_us", label));
    pt.run_us +=
        static_cast<double>(metrics.counter_value("farm.stage.run_us", label));
    pt.publish_us += static_cast<double>(
        metrics.counter_value("farm.stage.publish_us", label));
    pt.cache_hits += metrics.counter_value("farm.worker.cache_hits", label);
    pt.cache_misses += metrics.counter_value("farm.worker.cache_misses", label);
  }
  return pt;
}

/// Share of engine acquisitions served by a warm cached engine.
double cache_hit_frac(const Point& pt) {
  const std::uint64_t total = pt.cache_hits + pt.cache_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(pt.cache_hits) /
                          static_cast<double>(total);
}

/// Paced run: every slice sleeps a fixed wall interval via the chaos
/// hook (kNone — the job itself is untouched), so the workload is
/// concurrency-bound, not CPU-bound. Returns jobs per wall second.
double run_paced(std::size_t workers, std::size_t num_jobs) {
  FarmOptions opt;
  opt.num_workers = workers;
  opt.queue_capacity = num_jobs;
  opt.preempt_quantum = 256;
  opt.supervisor_interval_ms = 0.0;
  // 8ms per slice so pacing dominates the job's own CPU even on a
  // single-core host (see tests/farm/farm_scaling_test.cpp).
  opt.chaos = [](const ChaosEvent&) {
    std::this_thread::sleep_for(std::chrono::microseconds(8000));
    return ChaosAction::kNone;
  };
  SimFarm farm(opt);
  const double wall = tmsim::bench::time_run([&] {
    for (std::size_t i = 0; i < num_jobs; ++i) {
      JobSpec spec;
      spec.name = "paced-" + std::to_string(i);
      spec.net.width = 2;
      spec.net.height = 2;
      spec.net.topology = tmsim::noc::Topology::kMesh;
      spec.seed = 0xbea7 + i;
      spec.cycles = 2 * opt.preempt_quantum;  // 2 slices = 2 paced sleeps
      spec.workload.be_load = 0.05;
      farm.submit(spec);
    }
    farm.drain();
  });
  farm.shutdown();
  return static_cast<double>(num_jobs) / wall;
}

struct MemoRun {
  double jobs_per_sec = 0.0;
  std::uint64_t hits = 0;
};

/// Duplicate-heavy stream: `num_jobs` submissions cycling over
/// `distinct` unique specs — the sweep-grid overlap case the memo is
/// built for.
MemoRun run_memo(std::size_t memo_capacity, std::size_t num_jobs,
                 std::size_t distinct, tmsim::SystemCycle cycles) {
  tmsim::obs::MetricsRegistry metrics;
  FarmOptions opt;
  opt.num_workers = 2;
  opt.queue_capacity = num_jobs;
  opt.memo_capacity = memo_capacity;
  opt.metrics = &metrics;
  SimFarm farm(opt);
  MemoRun out;
  const double wall = tmsim::bench::time_run([&] {
    for (std::size_t i = 0; i < num_jobs; ++i) {
      farm.submit(make_job(i % distinct, cycles));
    }
    farm.drain();
  });
  farm.shutdown();
  out.jobs_per_sec = static_cast<double>(num_jobs) / wall;
  out.hits = metrics.counter_value("farm.memo.hits");
  return out;
}

}  // namespace

int main() {
  const bool quick = tmsim::bench::quick_mode();
  // Saturation fix: the job count scales with the pool so w4 does not
  // idle on a workload sized for w1.
  const std::size_t jobs_per_worker = quick ? 12 : 50;
  const tmsim::SystemCycle cycles = quick ? 300 : 1500;

  tmsim::bench::print_header(
      "farm_throughput",
      "batch-service capacity: jobs/sec vs worker pool and queue depth");
  std::printf(
      "%zu jobs/worker x %llu cycles each, 4x4 mesh, mixed priorities\n\n",
      jobs_per_worker, static_cast<unsigned long long>(cycles));
  std::printf("%8s %9s %6s %10s %9s %10s %10s %9s\n", "workers", "queue",
              "jobs", "jobs/sec", "wall(s)", "p50(ms)", "p99(ms)", "rejects");

  std::vector<Point> points;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const std::size_t qcap : {4u, 64u}) {
      const Point pt =
          run_point(workers, qcap, jobs_per_worker * workers, cycles);
      std::printf("%8zu %9zu %6zu %10.1f %9.3f %10.3f %10.3f %9zu\n",
                  pt.workers, pt.queue_capacity, pt.num_jobs,
                  static_cast<double>(pt.jobs_done) / pt.wall_s, pt.wall_s,
                  pt.p50_s * 1e3, pt.p99_s * 1e3, pt.rejected);
      points.push_back(pt);
    }
  }

  std::printf("\npipeline-stage breakdown (us summed across workers):\n");
  std::printf("%8s %9s %12s %10s %12s %11s %10s\n", "workers", "queue",
              "queue_wait", "attach", "run", "publish", "cache_hit");
  for (const Point& pt : points) {
    std::printf("%8zu %9zu %12.0f %10.0f %12.0f %11.0f %10.3f\n", pt.workers,
                pt.queue_capacity, pt.queue_wait_us, pt.attach_us, pt.run_us,
                pt.publish_us, cache_hit_frac(pt));
  }

  // Paced scaling: the farm-internal concurrency proof (see header).
  const std::size_t paced_jobs_per_worker = quick ? 16 : 48;
  std::printf("\npaced scaling (8ms slice pacing, %zu jobs/worker):\n",
              paced_jobs_per_worker);
  std::printf("%8s %10s\n", "workers", "jobs/sec");
  std::vector<std::pair<std::size_t, double>> paced;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const double jps = run_paced(workers, paced_jobs_per_worker * workers);
    std::printf("%8zu %10.1f\n", workers, jps);
    paced.emplace_back(workers, jps);
  }
  const double paced_ratio = paced.back().second / paced.front().second;
  std::printf("w4/w1 scaling: %.2fx (ideal 4.0, wall >= 2.0)\n", paced_ratio);

  // Memoization: duplicate-heavy stream, memo off vs on.
  const std::size_t memo_jobs = quick ? 48 : 240;
  const std::size_t memo_distinct = 8;
  const MemoRun memo_off = run_memo(0, memo_jobs, memo_distinct, cycles);
  const MemoRun memo_on = run_memo(64, memo_jobs, memo_distinct, cycles);
  std::printf(
      "\nmemoization (%zu jobs over %zu distinct specs, 2 workers):\n",
      memo_jobs, memo_distinct);
  std::printf("  memo off: %8.1f jobs/sec\n", memo_off.jobs_per_sec);
  std::printf("  memo on:  %8.1f jobs/sec (%llu hits, %.2fx speedup)\n",
              memo_on.jobs_per_sec,
              static_cast<unsigned long long>(memo_on.hits),
              memo_on.jobs_per_sec / memo_off.jobs_per_sec);

  std::vector<tmsim::bench::BenchMetric> metrics;
  for (const Point& pt : points) {
    const std::string tag = "w" + std::to_string(pt.workers) + "_q" +
                            std::to_string(pt.queue_capacity);
    metrics.push_back({"jobs_per_sec_" + tag,
                       static_cast<double>(pt.jobs_done) / pt.wall_s,
                       "jobs/s"});
    metrics.push_back({"p50_latency_" + tag, pt.p50_s, "seconds"});
    metrics.push_back({"p99_latency_" + tag, pt.p99_s, "seconds"});
    metrics.push_back(
        {"rejects_" + tag, static_cast<double>(pt.rejected), "count"});
    metrics.push_back({"stage_queue_wait_us_" + tag, pt.queue_wait_us, "us"});
    metrics.push_back({"stage_attach_us_" + tag, pt.attach_us, "us"});
    metrics.push_back({"stage_run_us_" + tag, pt.run_us, "us"});
    metrics.push_back({"stage_publish_us_" + tag, pt.publish_us, "us"});
    metrics.push_back(
        {"engine_cache_hit_frac_" + tag, cache_hit_frac(pt), "ratio"});
  }
  for (const auto& [workers, jps] : paced) {
    metrics.push_back(
        {"paced_jobs_per_sec_w" + std::to_string(workers), jps, "jobs/s"});
  }
  metrics.push_back({"paced_scaling_w4_over_w1", paced_ratio, "ratio"});
  metrics.push_back({"memo_off_jobs_per_sec", memo_off.jobs_per_sec, "jobs/s"});
  metrics.push_back({"memo_on_jobs_per_sec", memo_on.jobs_per_sec, "jobs/s"});
  metrics.push_back({"memo_speedup",
                     memo_on.jobs_per_sec / memo_off.jobs_per_sec, "ratio"});
  metrics.push_back(
      {"memo_hits", static_cast<double>(memo_on.hits), "count"});
  tmsim::bench::emit_bench_json(
      "farm_throughput",
      {{"jobs_per_worker", std::to_string(jobs_per_worker)},
       {"cycles_per_job", std::to_string(cycles)},
       {"network", "4x4 mesh"},
       {"paced_jobs_per_worker", std::to_string(paced_jobs_per_worker)},
       {"memo_jobs", std::to_string(memo_jobs)},
       {"memo_distinct", std::to_string(memo_distinct)},
       {"quick", quick ? "1" : "0"}},
      metrics);
  return 0;
}

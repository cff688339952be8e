// Farm load generator: the worst case for the farm's admission-queue,
// control-table and result-store locks (DESIGN.md §14). Four submitter
// threads blast a duplicate-heavy stream of tiny specs at a farm whose
// admission queue is provisioned for 50k fresh jobs, so the backlog
// genuinely reaches tens of thousands of queued specs while four
// workers pop from the same queue.
//
// The stream cycles over a small set of distinct specs (a sweep grid
// being refined by many clients at once), so with the spec-fingerprint
// memo enabled the farm simulates each distinct point once and serves
// the rest from cache — the drain phase then measures the pure
// scheduling hot path: pop → memo-serve → publish.
//
// Output: human summary plus BENCH_farm_loadgen.json with sustained
// jobs/sec, submit-side throughput, peak queue depth (from the
// backpressure context every SubmitOutcome carries), turnaround
// quantiles, and memo accounting.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "farm/farm.h"
#include "obs/metrics.h"

namespace {

using tmsim::farm::FarmOptions;
using tmsim::farm::JobResult;
using tmsim::farm::JobSpec;
using tmsim::farm::JobStatus;
using tmsim::farm::Priority;
using tmsim::farm::SimFarm;
using tmsim::farm::SubmitOutcome;

JobSpec tiny_job(std::size_t distinct_index) {
  JobSpec spec;
  spec.name = "load-" + std::to_string(distinct_index);
  spec.net.width = 2;
  spec.net.height = 2;
  spec.net.topology = tmsim::noc::Topology::kMesh;
  spec.workload.be_load = 0.02 * static_cast<double>(distinct_index % 8);
  spec.priority = static_cast<Priority>(distinct_index % 3);
  spec.seed = 0x10ad + distinct_index;
  spec.cycles = 100;
  return spec;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main() {
  const bool quick = tmsim::bench::quick_mode();
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kDistinct = 128;
  const std::size_t num_jobs = quick ? 10'000 : 40'000;

  tmsim::bench::print_header(
      "farm_loadgen",
      "sustained overload: 4 submitter threads vs a 50k-deep admission "
      "queue");
  std::printf("%zu jobs over %zu distinct specs, memo on, 4 workers\n\n",
              num_jobs, kDistinct);

  tmsim::obs::MetricsRegistry metrics;
  FarmOptions opt;
  opt.num_workers = 4;
  opt.queue_capacity = 50'000;
  opt.memo_capacity = 2 * kDistinct;
  opt.metrics = &metrics;
  SimFarm farm(opt);

  std::atomic<std::size_t> peak_depth{0};
  std::atomic<std::size_t> rejects{0};
  std::vector<std::vector<std::uint64_t>> ids(kSubmitters);
  double submit_wall = 0.0;
  const double total_wall = tmsim::bench::time_run([&] {
    submit_wall = tmsim::bench::time_run([&] {
      std::vector<std::thread> submitters;
      for (std::size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
          ids[t].reserve(num_jobs / kSubmitters);
          for (std::size_t i = t; i < num_jobs; i += kSubmitters) {
            for (;;) {
              const SubmitOutcome out = farm.submit(tiny_job(i % kDistinct));
              if (out.accepted) {
                ids[t].push_back(out.job_id);
                // The outcome's backpressure context doubles as a free
                // depth probe — no extra lock on the hot path.
                std::size_t seen = peak_depth.load(std::memory_order_relaxed);
                while (out.queue_depth > seen &&
                       !peak_depth.compare_exchange_weak(
                           seen, out.queue_depth, std::memory_order_relaxed)) {
                }
                break;
              }
              rejects.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::yield();
            }
          }
        });
      }
      for (auto& t : submitters) {
        t.join();
      }
    });
    farm.drain();
  });

  std::vector<double> turnaround;
  turnaround.reserve(num_jobs);
  std::size_t done = 0;
  for (const auto& mine : ids) {
    for (const std::uint64_t id : mine) {
      const JobResult r = farm.results().get(id).value();
      if (r.status == JobStatus::kDone) {
        ++done;
        turnaround.push_back(r.turnaround_seconds);
      }
    }
  }
  farm.shutdown();

  const double jobs_per_sec = static_cast<double>(done) / total_wall;
  const double submit_per_sec = static_cast<double>(num_jobs) / submit_wall;
  const double p50 = quantile(turnaround, 0.50);
  const double p99 = quantile(turnaround, 0.99);
  const auto memo_hits = metrics.counter_value("farm.memo.hits");

  std::printf("submitted:        %zu jobs in %.3fs (%.0f submits/sec)\n",
              num_jobs, submit_wall, submit_per_sec);
  std::printf("completed:        %zu jobs in %.3fs (%.0f jobs/sec)\n", done,
              total_wall, jobs_per_sec);
  std::printf("peak queue depth: %zu (capacity %zu)\n", peak_depth.load(),
              opt.queue_capacity);
  std::printf("turnaround:       p50 %.1fms  p99 %.1fms\n", p50 * 1e3,
              p99 * 1e3);
  std::printf("memo:             %llu hits / %zu jobs, %zu rejects\n",
              static_cast<unsigned long long>(memo_hits), num_jobs,
              rejects.load());

  tmsim::bench::emit_bench_json(
      "farm_loadgen",
      {{"num_jobs", std::to_string(num_jobs)},
       {"distinct_specs", std::to_string(kDistinct)},
       {"submitters", std::to_string(kSubmitters)},
       {"queue_capacity", std::to_string(opt.queue_capacity)},
       {"memo_capacity", std::to_string(opt.memo_capacity)},
       {"quick", quick ? "1" : "0"}},
      {{"jobs_per_sec", jobs_per_sec, "jobs/s"},
       {"submits_per_sec", submit_per_sec, "jobs/s"},
       {"peak_queue_depth", static_cast<double>(peak_depth.load()), "jobs"},
       {"p50_turnaround", p50, "seconds"},
       {"p99_turnaround", p99, "seconds"},
       {"memo_hits", static_cast<double>(memo_hits), "count"},
       {"rejects", static_cast<double>(rejects.load()), "count"}});
  return 0;
}

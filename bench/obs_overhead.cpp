// Observability overhead: what does the DESIGN.md §15 stack (tracer +
// flight recorder + introspection) cost on the farm's scheduling hot
// path? Same shape as farm_loadgen — submitter threads blasting tiny
// specs at a 4-worker farm — but with the memo OFF so every job runs a
// real simulation and every dispatch exercises the instrumented path.
//
// Three configurations of the identical workload:
//   off      — no tracer, no recorder (the default farm);
//   sampled  — 1-in-64 head sampling + flight recorder + introspection,
//              the configuration meant for always-on production use;
//   full     — every job traced (sample_every = 1), recorder and
//              introspection armed: the debugging ceiling.
//
// One repetition runs all three modes back to back, starting at a
// different mode each time, so host drift lands on every mode alike. The
// overhead is taken within each repetition and reported as the median
// over repetitions with its interquartile range; the headline claim
// pinned by bench_schema_test is that the sampled configuration costs
// < 5% of loadgen throughput.
//
// Output: human summary plus BENCH_obs_overhead.json with per-mode
// median jobs/sec, the derived overhead percentages (median and IQR),
// and the span/trace accounting that proves the lit runs actually
// traced.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "farm/farm.h"
#include "obs/trace.h"

namespace {

using tmsim::farm::FarmOptions;
using tmsim::farm::JobSpec;
using tmsim::farm::Priority;
using tmsim::farm::SimFarm;
using tmsim::farm::SubmitOutcome;

JobSpec tiny_job(std::size_t distinct_index) {
  JobSpec spec;
  spec.name = "obs-" + std::to_string(distinct_index);
  spec.net.width = 2;
  spec.net.height = 2;
  spec.net.topology = tmsim::noc::Topology::kMesh;
  spec.workload.be_load = 0.02 * static_cast<double>(distinct_index % 8);
  spec.priority = static_cast<Priority>(distinct_index % 3);
  spec.seed = 0x0b5e + distinct_index;
  spec.cycles = 100;
  return spec;
}

struct ModeResult {
  double jobs_per_sec = 0.0;
  std::uint64_t traces = 0;
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;
};

/// One full submit→drain pass; `tracer` may be null (the off mode).
ModeResult run_mode(std::size_t num_jobs, std::size_t num_submitters,
                    tmsim::obs::Tracer* tracer, bool recorder,
                    bool introspect) {
  FarmOptions opt;
  opt.num_workers = 4;
  opt.queue_capacity = num_jobs;
  opt.memo_capacity = 0;  // every job simulates: the honest hot path
  opt.tracer = tracer;
  opt.flight_recorder_depth = recorder ? 256 : 0;
  if (introspect) {
    opt.introspect_interval_ms = 5.0;
    opt.introspect_path = "farm_introspect.json";
  }
  SimFarm farm(opt);

  const double wall = tmsim::bench::time_run([&] {
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < num_submitters; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = t; i < num_jobs; i += num_submitters) {
          for (;;) {
            const SubmitOutcome out = farm.submit(tiny_job(i));
            if (out.accepted) {
              break;
            }
            std::this_thread::yield();
          }
        }
      });
    }
    for (auto& th : submitters) {
      th.join();
    }
    farm.drain();
  });
  farm.shutdown();

  ModeResult r;
  r.jobs_per_sec = static_cast<double>(num_jobs) / wall;
  if (tracer != nullptr) {
    r.traces = tracer->traces_started();
    r.spans = tracer->spans_recorded();
    r.spans_dropped = tracer->spans_dropped();
  }
  return r;
}

}  // namespace

using tmsim::bench::Spread;
using tmsim::bench::spread_of;

int main() {
  const bool quick = tmsim::bench::quick_mode();
  constexpr std::size_t kSubmitters = 4;
  const int reps = quick ? 5 : 15;
  const std::size_t num_jobs = quick ? 1'500 : 6'000;

  tmsim::bench::print_header(
      "obs_overhead",
      "tracing + flight recorder + introspection cost on the farm hot "
      "path");
  std::printf(
      "%zu distinct jobs, memo off, 4 workers, %d alternating repetitions\n\n",
      num_jobs, reps);

  // Mode table: {label, sample_every (0 = no tracer)}.
  struct Mode {
    const char* label;
    std::uint64_t sample_every;
  };
  const Mode modes[] = {{"off", 0}, {"sampled", 64}, {"full", 1}};

  // Warm the allocator / thread pool before anyone is timed.
  run_mode(num_jobs / 4, kSubmitters, nullptr, false, false);

  std::array<std::vector<double>, 3> jobs_per_sec;
  std::array<std::vector<double>, 3> overhead_pct;  // [1], [2] used
  std::array<ModeResult, 3> last;
  double spans_dropped = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::array<double, 3> rate{};
    for (int k = 0; k < 3; ++k) {
      const int m = (rep + k) % 3;
      tmsim::obs::Tracer tracer(
          {.sample_every = modes[m].sample_every,
           .max_spans = std::size_t{32} * num_jobs});
      const bool lit = modes[m].sample_every != 0;
      last[m] = run_mode(num_jobs, kSubmitters, lit ? &tracer : nullptr, lit,
                         lit);
      rate[m] = last[m].jobs_per_sec;
      jobs_per_sec[m].push_back(rate[m]);
      spans_dropped =
          std::max(spans_dropped, static_cast<double>(last[m].spans_dropped));
    }
    for (int m = 1; m < 3; ++m) {
      overhead_pct[m].push_back(100.0 * (rate[0] - rate[m]) / rate[0]);
    }
  }

  std::array<Spread, 3> rate;
  for (int m = 0; m < 3; ++m) {
    rate[m] = spread_of(jobs_per_sec[m]);
  }
  const Spread sampled = spread_of(overhead_pct[1]);
  const Spread full = spread_of(overhead_pct[2]);

  for (int m = 0; m < 3; ++m) {
    std::printf("%-8s %8.0f jobs/sec (IQR %.0f)", modes[m].label,
                rate[m].median, rate[m].iqr);
    if (m > 0) {
      const Spread& o = m == 1 ? sampled : full;
      std::printf("  (%+.2f%% vs off, IQR %.2f pp, %llu traces, %llu spans)",
                  o.median, o.iqr,
                  static_cast<unsigned long long>(last[m].traces),
                  static_cast<unsigned long long>(last[m].spans));
    }
    std::printf("\n");
  }
  std::printf("\nclaim: 1-in-64 sampling costs < 5%% → measured %+.2f%% "
              "(median of %d, IQR %.2f pp)\n",
              sampled.median, reps, sampled.iqr);

  tmsim::bench::emit_bench_json(
      "obs_overhead",
      {{"num_jobs", std::to_string(num_jobs)},
       {"submitters", std::to_string(kSubmitters)},
       {"workers", "4"},
       {"memo", "off"},
       {"reps", std::to_string(reps)},
       {"quick", quick ? "1" : "0"}},
      {{"jobs_per_sec_off", rate[0].median, "jobs/s"},
       {"jobs_per_sec_sampled", rate[1].median, "jobs/s"},
       {"jobs_per_sec_full", rate[2].median, "jobs/s"},
       {"overhead_sampled_pct", sampled.median, "percent"},
       {"overhead_sampled_iqr_pct", sampled.iqr, "percent"},
       {"overhead_full_pct", full.median, "percent"},
       {"overhead_full_iqr_pct", full.iqr, "percent"},
       {"traces_sampled", static_cast<double>(last[1].traces), "count"},
       {"traces_full", static_cast<double>(last[2].traces), "count"},
       {"spans_full", static_cast<double>(last[2].spans), "count"},
       {"spans_dropped_full", spans_dropped, "count"}});
  std::remove("farm_introspect.json");
  return 0;
}

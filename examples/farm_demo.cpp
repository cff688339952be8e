// Farm demo (DESIGN.md §11): a 50-job Fig. 1-style sweep pushed through
// the multi-tenant batch service.
//
//   $ ./examples/farm_demo
//
// Submits 50 jobs — a BE-load sweep at three priority classes, plus a
// few hosted-FPGA jobs with a faulty bus — to a 2-worker SimFarm,
// drains it, prints each job's result in submission order (looked up
// by id in the ResultStore), and writes:
//   farm_metrics.json   — farm.* admission/queue/worker counters plus
//                         the per-worker utilization gauges
//   farm_timeline.json  — chrome://tracing view of every job's span
//                         tree (submit, queue, per-worker exec/slice
//                         spans, publish), exported from the tracer
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "farm/farm.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

int main() {
  using namespace tmsim;
  using farm::JobSpec;
  using farm::Priority;

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;

  farm::FarmOptions opt;
  opt.num_workers = 2;
  opt.queue_capacity = 64;
  opt.preempt_quantum = 256;
  opt.metrics = &metrics;
  opt.tracer = &tracer;
  farm::SimFarm farm(opt);

  // --- Submit the sweep -----------------------------------------------------
  // 45 core-traffic points: BE load 0.00..0.28 on a 4x4 mesh with the
  // Fig. 1 GT population. Batch/normal points go in first; a wave of
  // interactive points lands while they are mid-flight, so the workers
  // checkpoint the batch jobs and serve the urgent ones first.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 45; ++i) {
    if (i == 30) {
      // Stagger the interactive wave so the background jobs are already
      // mid-flight when it arrives (otherwise the whole burst queues
      // before the workers wake and strict priority alone orders it).
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    JobSpec spec;
    spec.name = "sweep-be" + std::to_string(i);
    spec.net.width = 4;
    spec.net.height = 4;
    spec.net.topology = noc::Topology::kMesh;
    spec.workload.fig1_gt = true;
    spec.workload.gt_period = 600;
    spec.workload.be_load = 0.02 * (i % 15);
    // First 30 submissions are background classes; the last 15 are the
    // interactive wave that preempts them.
    spec.priority = i < 30 ? (i % 2 ? Priority::kNormal : Priority::kBatch)
                           : Priority::kInteractive;
    spec.seed = 1000 + i;
    spec.cycles = 2000;
    const auto out = farm.submit(spec);
    if (!out.accepted) {
      std::printf("reject %-12s: %s\n", spec.name.c_str(), out.detail.c_str());
      continue;
    }
    ids.push_back(out.job_id);
  }
  // 5 hosted-FPGA jobs, one with bus faults, exercising the full §5
  // ARM/bus/FPGA stack as a farm tenant.
  for (int i = 0; i < 5; ++i) {
    JobSpec spec;
    spec.name = "hosted-" + std::to_string(i);
    spec.kind = farm::JobKind::kHostedFpga;
    spec.net.width = 4;
    spec.net.height = 4;
    spec.workload.be_load = 0.05;
    spec.priority = Priority::kBatch;
    spec.seed = 77 + i;
    spec.cycles = 1500;
    if (i == 4) {
      spec.faults.read_flip = 1e-3;  // one faulty-bus tenant
    }
    const auto out = farm.submit(spec);
    if (out.accepted) {
      ids.push_back(out.job_id);
    }
  }
  std::printf("submitted %zu jobs to %zu workers; draining...\n\n", ids.size(),
              opt.num_workers);
  farm.drain();

  // --- Results --------------------------------------------------------------
  std::printf("%-12s %5s %9s %9s %7s %7s %8s\n", "job", "prio", "gt.mean",
              "be.mean", "slices", "preempt", "digest");
  for (const std::uint64_t id : ids) {
    const farm::JobResult r = farm.results().get(id).value();
    std::printf("%-12s %5llu %9.2f %9.2f %7zu %7zu %08llx\n", r.name.c_str(),
                static_cast<unsigned long long>(id), r.gt.total.mean(),
                r.be.total.mean(), r.slices, r.preemptions,
                static_cast<unsigned long long>(r.state_digest & 0xffffffff));
  }
  farm.shutdown();  // publishes the utilization gauges

  // --- Artefacts ------------------------------------------------------------
  {
    std::ofstream os("farm_metrics.json");
    metrics.write_json(os, {{"example", "farm_demo"}});
  }
  obs::ChromeTrace timeline;
  for (std::size_t w = 0; w < opt.num_workers; ++w) {
    timeline.name_thread(static_cast<std::uint32_t>(100 + w),
                         "farm.worker" + std::to_string(w));
  }
  tracer.export_chrome(timeline);
  {
    std::ofstream os("farm_timeline.json");
    timeline.write_json(os);
  }
  std::printf("\nfarm counters:\n");
  for (const char* name :
       {"farm.admission.submitted", "farm.admission.accepted",
        "farm.admission.rejected", "farm.jobs.completed", "farm.jobs.failed",
        "farm.preemptions", "farm.checkpoints", "farm.resumes"}) {
    std::printf("  %-26s %10llu\n", name,
                static_cast<unsigned long long>(metrics.counter_value(name)));
  }
  std::printf("\nwrote farm_metrics.json (%zu metrics), farm_timeline.json "
              "(%zu events)\n",
              metrics.size(), timeline.size());
  std::printf("load farm_timeline.json at chrome://tracing to see the "
              "per-worker slice tracks\n");
  return 0;
}

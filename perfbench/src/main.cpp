// perfbench: one run of one tmsim benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch-dir <dir>]
//   perfbench --selftest
//
// Every workload has an engine phase (its network and traffic under
// TrafficHarness, round-robin vs compiled) and a service phase (its jobs
// through an in-process tmsim-farmd), so every run reports every metric.
// The untraced run (--trace 0) prints the end-to-end metrics; the traced
// run (--trace 1) the per-layer ones. The last stdout line is the run's
// JSON report; the exit code is non-zero when any correctness check failed.
// perfbench/run.py validates the seed, run length and trace flag before it
// starts this binary; here only the workload name is looked up.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "farm/job_spec.h"
#include "farm_phase.h"
#include "noc_phase.h"
#include "report.h"

namespace {

using perfbench::EngineWorkload;
using perfbench::Report;
using perfbench::ServiceWorkload;
namespace farm = tmsim::farm;
namespace noc = tmsim::noc;

struct Workload {
  std::string name;
  EngineWorkload engine;
  ServiceWorkload service;
  bool setup_is_service = false;   ///< setup_s = daemon start + handshake
};

// The paper's 6×6 mesh with the Table 3 router.
noc::NetworkConfig mesh6x6(std::size_t queue_depth) {
  noc::NetworkConfig net;
  net.width = 6;
  net.height = 6;
  net.topology = noc::Topology::kMesh;
  net.router.queue_depth = queue_depth;
  return net;
}

farm::JobSpec batch_spec(const noc::NetworkConfig& net, std::uint64_t seed,
                         std::size_t i, std::uint64_t cycles) {
  farm::JobSpec spec;
  spec.name = "b" + std::to_string(i);
  spec.priority = farm::Priority::kBatch;
  spec.net = net;
  spec.seed = farm::derive_seed(seed, "batch-" + std::to_string(i));
  spec.cycles = cycles;
  return spec;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "noc6x6_saturated";
    w.engine.net = mesh6x6(4);
    w.engine.traffic.be_load = 0.30;
    w.engine.warmup = 200;
    w.engine.chunk = 200;
    w.engine.chunks = 4;
    w.service.batch = [net = w.engine.net](std::uint64_t seed, std::size_t i) {
      farm::JobSpec spec = batch_spec(net, seed, i, 1024);
      spec.workload.be_load = 0.30;
      return spec;
    };
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "noc6x6_gt_sparse";
    w.engine.net = mesh6x6(4);
    w.engine.traffic.fig1_gt = true;
    w.engine.traffic.gt_period = 2400;
    w.engine.warmup = 0;
    w.engine.chunk = 600;  // four chunks: one GT period
    w.engine.chunks = 4;
    w.service.batch = [net = w.engine.net](std::uint64_t seed, std::size_t i) {
      farm::JobSpec spec = batch_spec(net, seed, i, 2400);
      spec.workload.fig1_gt = true;
      spec.workload.gt_period = 2400;
      return spec;
    };
    out.push_back(std::move(w));
  }
  {
    // Fig. 1 sweep grid: queue depth 2, the GT population, BE 0 → 0.14.
    Workload w;
    w.name = "farmd_sweep";
    w.engine.net = mesh6x6(2);
    w.engine.traffic.fig1_gt = true;
    w.engine.traffic.gt_period = 600;
    w.engine.traffic.be_load = 0.07;  // mid-grid point
    w.engine.warmup = 200;
    w.engine.chunk = 200;
    w.engine.chunks = 4;
    w.setup_is_service = true;
    w.service.batch = [net = w.engine.net](std::uint64_t seed, std::size_t i) {
      farm::JobSpec spec = batch_spec(net, seed, i, 1024);
      spec.workload.fig1_gt = true;
      spec.workload.gt_period = 600;
      spec.workload.be_load = 0.02 * static_cast<double>(i % 8);
      return spec;
    };
    out.push_back(std::move(w));
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch-dir <dir>] | --selftest\n");
  std::exit(2);
}

constexpr double kServiceCheckS = 5.0;

int run(const Workload& w, std::uint64_t seed, double seconds, bool traced,
        const std::string& scratch) {
  Report rep;
  // Untraced runs spend most of the time on the engine figures; the
  // service still runs (its oracle, its share of peak RSS) for a fixed
  // kServiceCheckS. Traced runs split evenly: the service's own figures
  // need enough probes.
  const double engine_s =
      traced ? seconds * 0.5 : std::max(seconds - kServiceCheckS, seconds * 0.5);
  const perfbench::NocPhaseResult n =
      perfbench::run_noc_phase(w.engine, seed, engine_s, traced, rep);
  const perfbench::ServicePhaseResult s = perfbench::run_service_phase(
      w.service, seed, seconds - engine_s, traced, scratch, rep);
  if (traced) {
    // One figure for the cost of tracing: the larger of the engine's
    // (timing decorators) and the service's (Tracer at sample_every = 1).
    rep.metric("trace.overhead_frac", std::max(n.overhead_frac, s.overhead_frac),
               "ratio");
    rep.note("trace.engine_overhead_frac", n.overhead_frac);
    rep.note("trace.service_overhead_frac", s.overhead_frac);
  } else {
    rep.metric("setup_s", w.setup_is_service ? s.setup_s : n.setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.note("setup.engine_s", n.setup_s);
    rep.note("setup.service_s", s.setup_s);
  }
  rep.note("failed_frac", rep.attempted() > 0
                              ? static_cast<double>(rep.failed()) /
                                    static_cast<double>(rep.attempted())
                              : 0.0);
  std::printf("%s\n", rep.json().c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, seed_text, seconds_text, trace_text;
  std::string scratch = "perfbench_scratch";
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--selftest") {
    Report rep;
    const bool ok = perfbench::noc_selftest(rep);
    std::printf("%s\n", rep.json().c_str());
    return ok ? 0 : 1;
  }
  for (std::size_t i = 0; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) {
      usage_error("missing value for " + args[i]);
    }
    const std::string& v = args[i + 1];
    if (args[i] == "--workload") {
      workload = v;
    } else if (args[i] == "--seed") {
      seed_text = v;
    } else if (args[i] == "--seconds") {
      seconds_text = v;
    } else if (args[i] == "--trace") {
      trace_text = v;
    } else if (args[i] == "--scratch-dir") {
      scratch = v;
    } else {
      usage_error("unknown argument " + args[i]);
    }
  }
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == workload; });
  if (it == all.end()) {
    std::string names;
    for (const Workload& w : all) {
      names += (names.empty() ? "" : ", ") + w.name;
    }
    usage_error("unknown workload '" + workload + "' (known: " + names + ")");
  }
  try {
    return run(*it, std::stoull(seed_text), std::stod(seconds_text),
               trace_text == "1", scratch);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
}

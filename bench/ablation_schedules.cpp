// Ablation (not in the paper): the §4.2 dynamic HBR schedule against the
// compiled static program the engine ships (SchedulerKind::kCompiled).
//
// The case-study router's outputs depend on registered state only, so
// the build-time analysis (analysis/static_schedule.h) emits a fixed op
// program with no HBR bookkeeping at all: it replays the same drives and
// evaluations every system cycle, busy or idle. The paper's dynamic
// schedule instead pays N + (re-evaluations where a link actually
// changed). This bench asks whether the HBR bits earn their keep against
// that static schedule: at low load the dynamic schedule needs fewer
// delta cycles, at high load the static program wins, and both stay
// bit-exact (the bench exits non-zero if their state digests differ).
#include <cstdio>

#include "analysis/table.h"
#include "bench/bench_util.h"
#include "core/noc_block.h"
#include "traffic/harness.h"

int main() {
  using namespace tmsim;
  bench::print_header("Ablation",
                      "dynamic HBR schedule vs compiled static program");

  const noc::NetworkConfig net = bench::paper_network(/*queue_depth=*/4);
  const std::size_t n = net.num_routers();
  const std::size_t cycles = bench::quick_mode() ? 1000 : 4000;
  constexpr core::SchedulerKind kModes[] = {core::SchedulerKind::kRoundRobin,
                                            core::SchedulerKind::kCompiled};

  analysis::TablePrinter table({"load", "dynamic delta/cyc",
                                "compiled delta/cyc", "saved", "dyn host cps",
                                "compiled host cps"});
  std::vector<bench::BenchMetric> metrics;
  bool identical = true;
  for (double load : {0.0, 0.05, 0.10, 0.20, 0.40}) {
    double dpc[2], cps[2];
    std::uint64_t digest[2];
    for (int mode = 0; mode < 2; ++mode) {
      core::SeqNocSimulation sim(net,
                                 core::EngineOptions{.scheduler = kModes[mode]});
      traffic::TrafficHarness::Options opts;
      opts.seed = 5;
      traffic::TrafficHarness h(sim, opts);
      if (load > 0) {
        h.set_be_load(load, {0, 1, 2, 3});
      }
      const double secs = bench::time_run([&] { h.run(cycles); });
      dpc[mode] = static_cast<double>(sim.engine().total_delta_cycles()) /
                  static_cast<double>(sim.cycle());
      cps[mode] = static_cast<double>(cycles) / secs;
      digest[mode] = core::engine_state_digest(sim.engine());
    }
    identical = identical && digest[0] == digest[1];
    table.add_row({analysis::fmt("%.2f", load), analysis::fmt("%.2f", dpc[0]),
                   analysis::fmt("%.2f", dpc[1]),
                   analysis::fmt("%.0f%%", 100 * (1 - dpc[0] / dpc[1])),
                   analysis::fmt("%.0f", cps[0]),
                   analysis::fmt("%.0f", cps[1])});
    const std::string tag = analysis::fmt("load=%.2f", load);
    metrics.push_back({"dynamic.delta_per_cycle." + tag, dpc[0],
                       "delta_cycles/cycle"});
    metrics.push_back({"compiled.delta_per_cycle." + tag, dpc[1],
                       "delta_cycles/cycle"});
  }
  table.print();

  std::printf("\nnotes:\n");
  std::printf("  the compiled program replays a fixed op list every cycle "
              "(N = %zu\n  routers); the dynamic schedule pays N plus only "
              "the links that\n  actually changed, so its delta-cycle "
              "advantage equals the idleness\n  of the traffic.\n", n);
  std::printf("  the compiled program is legal for any partitioning: the "
              "analysis\n  proves its order from the link graph, and true "
              "combinational cycles\n  settle in scoped HBR regions "
              "(DESIGN.md §17).\n");
  std::printf("  state digests %s\n",
              identical ? "identical on every row" : "DIFFER");

  bench::emit_bench_json("ablation_schedules",
                         {{"cycles", std::to_string(cycles)},
                          {"network", "6x6 mesh, queue depth 4"}},
                         metrics);
  return identical ? 0 : 1;
}

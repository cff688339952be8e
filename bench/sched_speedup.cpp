// Worklist-scheduler speedup (DESIGN.md §12): event-driven worklist vs
// the paper's dense §4.2 round-robin sweep, on the one-shard engine (the
// only one that runs the worklist).
//
// The dense sweep pays one evaluation per block per system cycle even
// when the network is completely idle ("it is guaranteed that all
// routers are evaluated at least once") plus an O(num_blocks) scan to
// find the non-stable ones. The worklist scheduler replaces the scan
// with a dedup'd FIFO fed by link-change events and skips quiescent
// blocks outright (the state-fixed-point fast path), so its per-cycle
// cost tracks *activity*, not network size. The differential suite
// (tests/integration/sched_equivalence_test.cpp) proves the results
// bit-identical; this bench prices the difference:
//
//   idle      — no traffic at all: the fast path's best case
//   sparse    — 2% injection: the regime the scheduler targets
//   saturated — 50% injection: everything active, the fast path's
//               worst case (must not be materially slower than dense)
//
// Per-cycle evaluation/skip counts come from the engine.sched.* registry
// rows so the speedup can be read against the work elided.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/example_blocks.h"
#include "core/noc_block.h"
#include "core/sequential_simulator.h"
#include "core/system_model.h"
#include "obs/engine_sinks.h"
#include "traffic/harness.h"

namespace {

using namespace tmsim;

struct Row {
  double cps = 0;                ///< wall-clock simulated cycles per second
  double evals_per_cycle = 0;    ///< delta evaluations per system cycle
  double skipped_per_cycle = 0;  ///< quiescence-fast-path skips per cycle
};

Row measure(const noc::NetworkConfig& net, core::SchedulerKind sched,
            double load, std::size_t cycles) {
  core::EngineOptions opts;
  opts.scheduler = sched;
  core::SeqNocSimulation sim(net, opts);
  obs::MetricsRegistry registry;
  obs::EngineMetricsSink sink(registry);
  traffic::TrafficHarness::Options topts;
  topts.seed = 21;
  traffic::TrafficHarness h(sim, topts);
  h.set_be_load(load);
  h.run(cycles / 10 + 20);  // warmup: reset transients, queues fill
  sim.set_observer(&sink);
  const double secs = bench::time_run([&] { h.run(cycles); });
  sim.set_observer(nullptr);
  Row r;
  r.cps = static_cast<double>(cycles) / secs;
  const double n = static_cast<double>(cycles);
  r.evals_per_cycle =
      static_cast<double>(
          registry.counter("engine.sched.delta_evals").value()) / n;
  r.skipped_per_cycle =
      static_cast<double>(
          registry.counter("engine.sched.skipped_blocks").value()) / n;
  return r;
}

// ---------------------------------------------------------------------------
// Compiled static-schedule sweep (DESIGN.md §17).
//
// The acyclic-region-dominated adversary: an XOR chain whose block ids
// run *against* the dataflow, with every block also fed by its own
// changing external input. Each cycle the event-driven worklist seeds
// all n blocks in id order — the wrong order — so the change wavefront
// crosses the FIFO against the dataflow and the fixed point costs
// ~n²/2 evaluations per cycle. The compiled schedule evaluates the
// same chain in topological order: exactly n evaluations, every cycle.
// ---------------------------------------------------------------------------

/// b[i] (XOR) reads its own external link and b[i+1]'s output; b[n-1]
/// is the head. Ids are anti-topological on purpose.
struct ChainModel {
  explicit ChainModel(std::size_t n) {
    using core::LinkKind;
    using core::examples::Xor2Block;
    std::vector<core::BlockId> b(n);
    std::vector<core::LinkId> chain(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = model.add_block(std::make_shared<Xor2Block>(16, 0x1d + i),
                             "b" + std::to_string(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      ext.push_back(model.add_link("ext" + std::to_string(i), 16,
                                   LinkKind::kCombinational));
      chain[i] = model.add_link("c" + std::to_string(i), 16,
                                LinkKind::kCombinational);
      dangle.push_back(model.add_link("d" + std::to_string(i), 16,
                                      LinkKind::kCombinational));
    }
    const core::LinkId head_in =
        model.add_link("head_in", 16, LinkKind::kCombinational);
    ext.push_back(head_in);
    // chain[i+1] feeds b[i].in1, so chain values flow head -> tail
    // while ids (and the worklist's seed order) run tail -> head.
    for (std::size_t i = 0; i < n; ++i) {
      model.bind_input(b[i], 0, ext[i]);
      model.bind_input(b[i], 1, i + 1 < n ? chain[i + 1] : head_in);
      model.bind_output(b[i], 0, chain[i]);
      model.bind_output(b[i], 1, dangle[i]);
    }
    model.finalize();
  }
  core::SystemModel model;
  std::vector<core::LinkId> ext;
  std::vector<core::LinkId> dangle;
};

Row measure_chain(const core::SystemModel& model,
                  const std::vector<core::LinkId>& ext,
                  core::SchedulerKind sched, std::size_t cycles) {
  core::SequentialSimulator sim(model, core::SchedulePolicy::kDynamic, 256, 1,
                                sched);
  SplitMix64 rng(0x5eed);
  BitVector v(16);
  std::uint64_t evals = 0;
  const double secs = bench::time_run([&] {
    for (std::size_t c = 0; c < cycles; ++c) {
      for (const core::LinkId l : ext) {
        v.set_field(0, 16, rng.next() & 0xffff);
        sim.set_external_input(l, v);
      }
      evals += sim.step().delta_cycles;
    }
  });
  Row r;
  r.cps = static_cast<double>(cycles) / secs;
  r.evals_per_cycle =
      static_cast<double>(evals) / static_cast<double>(cycles);
  return r;
}

}  // namespace

int main() {
  bench::print_header("Worklist scheduler",
                      "event-driven worklist vs dense round-robin sweep");
  std::vector<bench::BenchMetric> metrics;
  const std::size_t scale = bench::quick_mode() ? 4 : 1;

  noc::NetworkConfig net;
  net.width = 12;
  net.height = 12;
  net.topology = noc::Topology::kMesh;
  net.router.queue_depth = 4;
  std::printf("network: %zux%zu mesh (%zu routers), queue depth %zu\n",
              net.width, net.height, net.num_routers(),
              net.router.queue_depth);

  const struct {
    const char* name;
    double load;
  } kLoads[] = {{"idle", 0.0}, {"sparse", 0.02}, {"saturated", 0.5}};

  std::printf("\nseq engine (shards=1):\n");
  std::printf("  %-10s %12s %12s %8s %11s %11s\n", "load", "rr cyc/s",
              "wl cyc/s", "speedup", "wl evals/c", "wl skips/c");
  for (const auto& l : kLoads) {
    const std::size_t cycles = (l.load >= 0.5 ? 400 : 1200) / scale;
    const Row rr =
        measure(net, core::SchedulerKind::kRoundRobin, l.load, cycles);
    const Row wl = measure(net, core::SchedulerKind::kWorklist, l.load, cycles);
    const double speedup = wl.cps / rr.cps;
    std::printf("  %-10s %12.0f %12.0f %7.2fx %11.1f %11.1f\n", l.name,
                rr.cps, wl.cps, speedup, wl.evals_per_cycle,
                wl.skipped_per_cycle);
    const std::string tag = std::string("seq.") + l.name;
    metrics.push_back({"sched.speedup." + tag, speedup, "ratio"});
    metrics.push_back({"sched.wl_evals_per_cycle." + tag,
                       wl.evals_per_cycle, "count"});
    metrics.push_back({"sched.wl_skips_per_cycle." + tag,
                       wl.skipped_per_cycle, "count"});
    metrics.push_back({"sched.rr_evals_per_cycle." + tag,
                       rr.evals_per_cycle, "count"});
    if (l.load > 0.0 && l.load <= 0.1) {
      // The headline acceptance metric: worklist vs round-robin on a
      // sparse (≤10% injection) workload.
      metrics.push_back({"sched.speedup.sparse", speedup, "ratio"});
    }
  }
  std::printf("\n");

  bench::emit_bench_json(
      "sched_speedup",
      {{"quick", bench::quick_mode() ? "1" : "0"},
       {"net", "12x12 mesh"},
       {"sparse_load", "0.02"}},
      metrics);

  // ------------------------------------------------------------------
  // Compiled static-schedule sweep: BENCH_compiled_speedup.json.
  // ------------------------------------------------------------------
  bench::print_header("Compiled schedule",
                      "build-time static schedule vs run-time worklist");
  std::vector<bench::BenchMetric> cmetrics;
  const std::size_t chain_n = bench::quick_mode() ? 48 : 96;
  const std::size_t chain_cycles = bench::quick_mode() ? 60 : 200;
  ChainModel chain(chain_n);
  std::printf(
      "anti-topological XOR chain: %zu blocks, per-block stimulus, "
      "%zu cycles\n", chain_n, chain_cycles);
  const Row crr = measure_chain(chain.model, chain.ext,
                                core::SchedulerKind::kRoundRobin,
                                chain_cycles);
  const Row cwl = measure_chain(chain.model, chain.ext,
                                core::SchedulerKind::kWorklist, chain_cycles);
  const Row ccp = measure_chain(chain.model, chain.ext,
                                core::SchedulerKind::kCompiled, chain_cycles);
  std::printf("  %-12s %12s %12s\n", "scheduler", "cyc/s", "evals/cyc");
  std::printf("  %-12s %12.0f %12.1f\n", "round_robin", crr.cps,
              crr.evals_per_cycle);
  std::printf("  %-12s %12.0f %12.1f\n", "worklist", cwl.cps,
              cwl.evals_per_cycle);
  std::printf("  %-12s %12.0f %12.1f\n", "compiled", ccp.cps,
              ccp.evals_per_cycle);
  std::printf("  compiled vs worklist: %.2fx cyc/s, %.1fx fewer evals\n",
              ccp.cps / cwl.cps, cwl.evals_per_cycle / ccp.evals_per_cycle);
  cmetrics.push_back(
      {"compiled.table3_cps.round_robin", crr.cps, "cycles/s"});
  cmetrics.push_back({"compiled.table3_cps.worklist", cwl.cps, "cycles/s"});
  cmetrics.push_back({"compiled.table3_cps.compiled", ccp.cps, "cycles/s"});
  // The headline acceptance metric: compiled over worklist cycle rate on
  // the acyclic-region-dominated config (bench_schema_test pins >= 3x).
  cmetrics.push_back(
      {"compiled.speedup.table3_cps", ccp.cps / cwl.cps, "ratio"});
  cmetrics.push_back({"compiled.evals_per_cycle.worklist",
                      cwl.evals_per_cycle, "count"});
  cmetrics.push_back({"compiled.evals_per_cycle.compiled",
                      ccp.evals_per_cycle, "count"});

  // NoC rows: the mesh's link graph is acyclic after dependency pruning,
  // so the compiled schedule must hold its own against the worklist's
  // quiescence fast path on real router workloads too.
  std::printf("\nNoC (seq engine):\n");
  std::printf("  %-10s %12s %12s %8s\n", "load", "wl cyc/s", "cp cyc/s",
              "cp/wl");
  for (const auto& l : kLoads) {
    const std::size_t cycles = (l.load >= 0.5 ? 400 : 1200) / scale;
    const Row wl = measure(net, core::SchedulerKind::kWorklist, l.load, cycles);
    const Row cp = measure(net, core::SchedulerKind::kCompiled, l.load, cycles);
    std::printf("  %-10s %12.0f %12.0f %7.2fx\n", l.name, wl.cps, cp.cps,
                cp.cps / wl.cps);
    cmetrics.push_back({"compiled.noc_cps.worklist." + std::string(l.name),
                        wl.cps, "cycles/s"});
    cmetrics.push_back({"compiled.noc_cps.compiled." + std::string(l.name),
                        cp.cps, "cycles/s"});
    cmetrics.push_back({"compiled.noc_evals_per_cycle." + std::string(l.name),
                        cp.evals_per_cycle, "count"});
  }
  std::printf("\n");

  bench::emit_bench_json(
      "compiled_speedup",
      {{"quick", bench::quick_mode() ? "1" : "0"},
       {"chain_blocks", std::to_string(chain_n)},
       {"chain_cycles", std::to_string(chain_cycles)},
       {"net", "12x12 mesh"}},
      cmetrics);
  return 0;
}

// Compiled-schedule speedup (DESIGN.md §17): the gated op program vs the
// paper's dense §4.2 round-robin sweep.
//
// The dense sweep pays one evaluation per block per system cycle even
// when the network is completely idle ("it is guaranteed that all
// routers are evaluated at least once") plus an O(num_blocks) scan to
// find the non-stable ones. The compiled program replays a topological
// op list instead, and its quiescence gate skips every block with no new
// input whose last evaluation was a state fixed point, so its per-cycle
// cost tracks *activity*, not network size. The differential suites
// (tests/integration/sched_equivalence_test.cpp, `ctest -L compiled`)
// prove the results bit-identical; this bench prices the difference on
// a 12x12 mesh:
//
//   idle      — no traffic at all: the gate's best case, timed as
//               per-cycle step() calls (one gated op-program pass
//               against one sweep) because the harness would jump a
//               settled compiled engine over the whole run at once
//   sparse    — 2% injection: mostly quiescent routers
//   saturated — 50% injection: everything active, the gate's worst case
//
// plus an anti-topological XOR chain, where the sweep chases the change
// wavefront against the dataflow and the program does one pass.
//
// Per-cycle evaluation/skip counts come from the engine.sched.* registry
// rows so the speedup can be read against the work elided. The record is
// BENCH_compiled_speedup.json; bench_schema_test gates it.
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
  double skipped_per_cycle = 0;  ///< quiescence-gate skips per cycle
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
  const double secs = bench::time_run([&] {
    if (load > 0.0) {
      h.run(cycles);
      return;
    }
    for (std::size_t c = 0; c < cycles; ++c) {
      sim.step();
    }
  });
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
// The acyclic-region-dominated adversary: an XOR chain whose block ids
// run *against* the dataflow, with every block also fed by its own
// changing external input. Each cycle the round-robin sweep visits all n
// blocks in id order — the wrong order — so the change wavefront crosses
// the sweep against the dataflow and the fixed point costs ~n²/2
// evaluations per cycle. The compiled schedule evaluates the same chain
// in topological order: exactly n evaluations, every cycle.
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
    // while ids (and the round-robin sweep order) run tail -> head.
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
  bench::print_header("Compiled schedule",
                      "gated op program vs dense round-robin sweep");
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

  std::printf("\nNoC (seq engine):\n");
  std::printf("  %-10s %12s %12s %8s %11s %11s\n", "load", "rr cyc/s",
              "cp cyc/s", "cp/rr", "cp evals/c", "cp skips/c");
  for (const auto& l : kLoads) {
    const std::size_t cycles = (l.load >= 0.5 ? 400 : 1200) / scale;
    const Row rr =
        measure(net, core::SchedulerKind::kRoundRobin, l.load, cycles);
    const Row cp = measure(net, core::SchedulerKind::kCompiled, l.load, cycles);
    std::printf("  %-10s %12.0f %12.0f %7.2fx %11.1f %11.1f\n", l.name,
                rr.cps, cp.cps, cp.cps / rr.cps, cp.evals_per_cycle,
                cp.skipped_per_cycle);
    const std::string load = l.name;
    metrics.push_back({"compiled.noc_cps.round_robin." + load, rr.cps,
                       "cycles/s"});
    metrics.push_back({"compiled.noc_cps.compiled." + load, cp.cps,
                       "cycles/s"});
    metrics.push_back({"compiled.noc_speedup." + load, cp.cps / rr.cps,
                       "ratio"});
    metrics.push_back({"compiled.noc_evals_per_cycle.round_robin." + load,
                       rr.evals_per_cycle, "count"});
    metrics.push_back({"compiled.noc_evals_per_cycle." + load,
                       cp.evals_per_cycle, "count"});
    metrics.push_back({"compiled.noc_skips_per_cycle." + load,
                       cp.skipped_per_cycle, "count"});
  }

  const std::size_t chain_n = bench::quick_mode() ? 48 : 96;
  const std::size_t chain_cycles = bench::quick_mode() ? 60 : 200;
  ChainModel chain(chain_n);
  std::printf(
      "\nanti-topological XOR chain: %zu blocks, per-block stimulus, "
      "%zu cycles\n", chain_n, chain_cycles);
  const Row crr = measure_chain(chain.model, chain.ext,
                                core::SchedulerKind::kRoundRobin,
                                chain_cycles);
  const Row ccp = measure_chain(chain.model, chain.ext,
                                core::SchedulerKind::kCompiled, chain_cycles);
  std::printf("  %-12s %12s %12s\n", "scheduler", "cyc/s", "evals/cyc");
  std::printf("  %-12s %12.0f %12.1f\n", "round_robin", crr.cps,
              crr.evals_per_cycle);
  std::printf("  %-12s %12.0f %12.1f\n", "compiled", ccp.cps,
              ccp.evals_per_cycle);
  std::printf("  compiled vs round_robin: %.2fx cyc/s, %.1fx fewer evals\n\n",
              ccp.cps / crr.cps, crr.evals_per_cycle / ccp.evals_per_cycle);
  metrics.push_back({"compiled.table3_cps.round_robin", crr.cps, "cycles/s"});
  metrics.push_back({"compiled.table3_cps.compiled", ccp.cps, "cycles/s"});
  metrics.push_back(
      {"compiled.speedup.table3_cps", ccp.cps / crr.cps, "ratio"});
  metrics.push_back({"compiled.evals_per_cycle.round_robin",
                     crr.evals_per_cycle, "count"});
  metrics.push_back({"compiled.evals_per_cycle.compiled",
                     ccp.evals_per_cycle, "count"});

  bench::emit_bench_json(
      "compiled_speedup",
      {{"quick", bench::quick_mode() ? "1" : "0"},
       {"chain_blocks", std::to_string(chain_n)},
       {"chain_cycles", std::to_string(chain_cycles)},
       {"net", "12x12 mesh"},
       {"sparse_load", "0.02"}},
      metrics);
  return 0;
}

// Sharded-engine speedup, measured on this host.
//
// The sharded bulk-synchronous engine partitions the block graph over N
// worker threads and synchronizes cut links at delta-cycle barriers
// (DESIGN.md §9). The bench measures wall-clock cycles per second for
// shards ∈ {1, 2, 4, 8} on a 4×4 and an 8×8 mesh, with the links the
// min-cut partition cuts at each shard count. Thread-level speedup needs
// hardware threads: on a single-core host the barrier protocol is pure
// overhead and every sharded row will be *slower* than sequential — the
// bench prints the host's hardware_concurrency so that reading is
// unambiguous.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "core/noc_block.h"
#include "traffic/harness.h"

namespace {

using namespace tmsim;

struct Measured {
  double cps = 0;            ///< wall-clock simulated cycles per second
  double supersteps = 0;     ///< barrier rounds per system cycle
  std::size_t cut_links = 0; ///< mailbox slots (0 for the sequential row)
};

Measured measure(const noc::NetworkConfig& net, const core::EngineOptions& opts,
                 std::size_t cycles) {
  core::SeqNocSimulation sim(net, opts);
  traffic::TrafficHarness::Options topts;
  topts.seed = 21;
  traffic::TrafficHarness h(sim, topts);
  h.set_be_load(0.10);
  const double secs = bench::time_run([&] { h.run(cycles); });
  Measured m;
  m.cps = static_cast<double>(cycles) / secs;
  m.supersteps = static_cast<double>(sim.engine().total_supersteps()) /
                 static_cast<double>(sim.cycle());
  m.cut_links = sim.engine().num_boundary_links();
  return m;
}

}  // namespace

int main() {
  bench::print_header("Sharded engine", "measured host scaling");
  std::vector<bench::BenchMetric> metrics;
  const std::size_t scale = bench::quick_mode() ? 4 : 1;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u%s\n", hw,
              hw <= 1 ? "  (single core: sharded rows measure pure "
                        "synchronization overhead, not speedup)"
                      : "");

  const std::size_t shard_counts[] = {2, 4, 8};

  for (const std::size_t side : {std::size_t{4}, std::size_t{8}}) {
    noc::NetworkConfig net;
    net.width = side;
    net.height = side;
    net.topology = noc::Topology::kMesh;
    net.router.queue_depth = 4;
    const std::size_t cycles = (side == 4 ? 2000 : 600) / scale;

    const Measured seq = measure(net, core::EngineOptions{}, cycles);
    metrics.push_back({"seq.cps." + std::to_string(side) + "x" +
                           std::to_string(side),
                       seq.cps, "cycles/s"});
    std::printf("\n%zux%zu mesh, %zu cycles — sequential: %.0f cycles/s\n",
                side, side, cycles, seq.cps);
    std::printf("  %6s %10s %9s %8s %11s\n", "shards", "cycles/s",
                "vs seq", "cut", "steps/cyc");
    for (const std::size_t k : shard_counts) {
      core::EngineOptions opts;
      opts.num_shards = k;
      const Measured m = measure(net, opts, cycles);
      const std::string tag = std::to_string(side) + "x" +
                              std::to_string(side) + ".shards=" +
                              std::to_string(k);
      metrics.push_back({"speedup." + tag, m.cps / seq.cps, "ratio"});
      metrics.push_back({"cut_links." + tag,
                         static_cast<double>(m.cut_links), "count"});
      std::printf("  %6zu %10.0f %8.2fx %8zu %11.2f\n", k, m.cps,
                  m.cps / seq.cps, m.cut_links, m.supersteps);
    }
  }
  std::printf("\n");

  bench::emit_bench_json(
      "sharded_speedup",
      {{"quick", bench::quick_mode() ? "1" : "0"},
       {"hw_threads", std::to_string(std::thread::hardware_concurrency())}},
      metrics);
  return 0;
}

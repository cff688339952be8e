// Sharded-engine speedup: measured host scaling + modeled FPGA scaling.
//
// The sharded bulk-synchronous engine partitions the block graph over N
// worker threads and synchronizes cut links at delta-cycle barriers
// (DESIGN.md §9). Two questions, answered separately and honestly:
//
//   1. What does it do on *this host*? Measured wall-clock cycles per
//      second for shards ∈ {1, 2, 4, 8} on a 4×4 and an 8×8 mesh, with
//      the links the min-cut partition cuts at each shard count.
//      Thread-level speedup needs hardware threads:
//      on a single-core host the barrier protocol is pure overhead and
//      every sharded row will be *slower* than sequential — the bench
//      prints the host's hardware_concurrency so that reading is
//      unambiguous.
//
//   2. What would it do on the paper's platform? N copies of the §5.2
//      evaluation pipeline each walk ~1/N of the delta work between
//      barrier rounds; TimingModel::sharded_simulate_estimate prices
//      that with the measured supersteps/cycle and partition imbalance
//      from the same runs, at the paper's 6.6 MHz logic clock.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "core/noc_block.h"
#include "core/partition.h"
#include "fpga/arm_host.h"
#include "fpga/fpga_design.h"
#include "fpga/timing_model.h"
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

/// Max-over-min shard population: the model's `imbalance` knob.
double imbalance_of(const core::SystemModel& model, std::size_t shards) {
  const core::Partition p = core::partition_blocks(model, shards);
  std::size_t lo = model.num_blocks(), hi = 0;
  for (const auto& s : p.shards) {
    lo = std::min(lo, s.size());
    hi = std::max(hi, s.size());
  }
  return lo == 0 ? 1.0 : static_cast<double>(hi) / static_cast<double>(lo);
}

}  // namespace

int main() {
  bench::print_header("Sharded engine", "measured host scaling + modeled FPGA scaling");
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

  // Modeled FPGA scaling: counts from a hardened ArmHost run on the 8×8
  // mesh, supersteps/cycle and imbalance measured from the matching
  // sharded runs above (re-derived here cheaply).
  std::printf("\nmodeled parallel FPGA engine (8x8 mesh, paper clocks):\n");
  fpga::FpgaDesign design{fpga::FpgaBuildConfig{}};
  fpga::ArmHost::Workload wl;
  wl.be_load = 0.10;
  fpga::ArmHost host(design, wl);
  host.configure_network(8, 8, noc::Topology::kMesh);
  host.run(600 / scale);
  const fpga::TimingModel model;
  const fpga::PhaseTimes seq_times = model.evaluate(host.counts());
  std::printf("  sequential: simulate %.3fs, %.0f cycles/s\n",
              seq_times.simulate_raw, seq_times.cycles_per_second);

  noc::NetworkConfig net8;
  net8.width = 8;
  net8.height = 8;
  net8.topology = noc::Topology::kMesh;
  net8.router.queue_depth = 4;
  std::printf("  %6s %12s %9s %12s\n", "shards", "simulate(s)", "speedup",
              "cycles/s");
  for (const std::size_t k : shard_counts) {
    // Supersteps/cycle from a short real sharded run of the same mesh;
    // imbalance from the partition itself.
    core::EngineOptions opts;
    opts.num_shards = k;
    const Measured m = measure(net8, opts, 120 / scale + 30);
    core::SeqNocSimulation probe(net8, opts);
    const double imb = imbalance_of(probe.engine().model(), k);
    const fpga::ShardedEstimate est = model.sharded_simulate_estimate(
        host.counts(), k, imb, 4.0, std::max(m.supersteps, 1.0));
    std::printf("  %6zu %12.3f %8.2fx %12.0f\n", k, est.simulate_raw,
                est.speedup, est.cycles_per_second);
    metrics.push_back({"modeled.speedup.shards=" + std::to_string(k),
                       est.speedup, "ratio"});
  }
  std::printf("\n");

  bench::emit_bench_json(
      "sharded_speedup",
      {{"quick", bench::quick_mode() ? "1" : "0"},
       {"hw_threads", std::to_string(std::thread::hardware_concurrency())}},
      metrics);
  return 0;
}

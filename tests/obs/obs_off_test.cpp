// The zero-overhead-when-disabled contract (DESIGN.md §10): a run with
// no observer attached must be bit-identical to the seed behaviour, and
// attaching the full sink stack must not perturb simulation results —
// observability reads state, never writes it.
#include <gtest/gtest.h>

#include <sstream>

#include "core/noc_block.h"
#include "obs/engine_sinks.h"
#include "obs/metrics.h"
#include "traffic/harness.h"

namespace tmsim {
namespace {

noc::NetworkConfig small_net() {
  noc::NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = noc::Topology::kMesh;
  net.router.queue_depth = 2;
  return net;
}

struct RunResult {
  std::uint64_t delivered = 0;
  double latency_sum = 0.0;
  std::uint64_t cycles = 0;
};

/// Runs the workload, optionally under the full observer stack, and
/// returns the statistics plus a hash-free snapshot via the caller's
/// engine inspection lambda.
RunResult run_workload(core::SeqNocSimulation& sim, std::size_t cycles) {
  traffic::TrafficHarness::Options opts;
  opts.seed = 77;
  traffic::TrafficHarness h(sim, opts);
  h.set_be_load(0.12);
  h.run(cycles);
  const auto be = h.summarize(traffic::PacketClass::kBestEffort);
  RunResult r;
  r.delivered = be.delivered;
  r.latency_sum = be.network.sum();
  r.cycles = sim.cycle();
  return r;
}

void expect_same_final_state(const core::Engine& a, const core::Engine& b) {
  ASSERT_EQ(a.model().num_links(), b.model().num_links());
  for (core::LinkId l = 0; l < a.model().num_links(); ++l) {
    ASSERT_TRUE(a.link_value(l) == b.link_value(l))
        << "link " << a.model().link(l).name << " diverged";
  }
  for (core::BlockId blk = 0; blk < a.model().num_blocks(); ++blk) {
    ASSERT_TRUE(a.block_state(blk) == b.block_state(blk))
        << "block " << a.model().block(blk).name << " diverged";
  }
}

TEST(ObsOff, SequentialRunIsBitIdenticalWithAndWithoutObservers) {
  const noc::NetworkConfig net = small_net();
  const std::size_t cycles = 400;

  core::SeqNocSimulation plain(net);
  const RunResult r_plain = run_workload(plain, cycles);

  core::SeqNocSimulation observed(net);
  obs::MetricsRegistry reg;
  obs::EngineMetricsSink metrics(reg);
  std::ostringstream vcd_os;
  obs::VcdTracerOptions vopts;
  vopts.ring_cycles = 16;
  obs::VcdTracer tracer(observed.engine().model(), vcd_os, vopts);
  obs::MultiObserver fan;
  fan.add(&metrics);
  fan.add(&tracer);
  observed.set_observer(&fan);
  const RunResult r_obs = run_workload(observed, cycles);

  EXPECT_EQ(r_plain.delivered, r_obs.delivered);
  EXPECT_DOUBLE_EQ(r_plain.latency_sum, r_obs.latency_sum);
  EXPECT_EQ(r_plain.cycles, r_obs.cycles);
  expect_same_final_state(plain.engine(), observed.engine());

  // Not vacuous: the sinks really saw the run.
  EXPECT_EQ(reg.counter_value("engine.cycles"), cycles);
  EXPECT_GE(reg.counter_value("engine.delta_cycles"), cycles * 9);
}

TEST(ObsOff, DetachingMidRunRestoresTheUnobservedPath) {
  const noc::NetworkConfig net = small_net();
  core::SeqNocSimulation sim(net);
  obs::MetricsRegistry reg;
  obs::EngineMetricsSink metrics(reg);
  sim.set_observer(&metrics);
  traffic::TrafficHarness::Options opts;
  opts.seed = 77;
  traffic::TrafficHarness h(sim, opts);
  h.set_be_load(0.12);
  h.run(50);
  const std::uint64_t seen = reg.counter_value("engine.cycles");
  EXPECT_EQ(seen, 50u);
  sim.set_observer(nullptr);
  h.run(50);
  EXPECT_EQ(reg.counter_value("engine.cycles"), seen);  // no more updates
  EXPECT_EQ(sim.cycle(), 100u);
}

}  // namespace
}  // namespace tmsim

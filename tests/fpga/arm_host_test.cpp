#include "fpga/arm_host.h"

#include <gtest/gtest.h>

#include "fpga/resource_model.h"
#include "traffic/workloads.h"

namespace tmsim::fpga {
namespace {

TEST(ArmHost, EndToEndBeWorkloadDeliversPackets) {
  FpgaDesign fpga{FpgaBuildConfig{}};
  ArmHost::Workload wl;
  wl.be_load = 0.08;
  ArmHost host(fpga, wl);
  host.configure_network(4, 4, noc::Topology::kMesh);
  host.run(2000);
  EXPECT_FALSE(host.overloaded());
  EXPECT_GE(fpga.cycles_simulated(), 2000u);
  EXPECT_GT(host.packets_delivered(), 20u);
  const auto& lat = host.latency(traffic::PacketClass::kBestEffort);
  EXPECT_GT(lat.count(), 20u);
  EXPECT_GT(lat.mean(), 5.0);   // at least serialization + a hop
  EXPECT_LT(lat.mean(), 500.0);
  // Counts populated for the timing model.
  const PhaseCounts& c = host.counts();
  EXPECT_GT(c.flits_generated, 100u);
  EXPECT_GT(c.load_bus_writes, 2 * c.flits_generated - 10);
  EXPECT_GT(c.retrieve_bus_reads, c.flits_analyzed);
  EXPECT_GT(c.randoms_drawn, 0u);
  EXPECT_GT(c.periods, 10u);
  EXPECT_EQ(c.fpga_clock_cycles, fpga.fpga_clock_cycles());
}

TEST(ArmHost, GtStreamsDeliverWithBoundedLatency) {
  FpgaDesign fpga{FpgaBuildConfig{}};
  noc::NetworkConfig net;
  net.width = 4;
  net.height = 4;
  ArmHost::Workload wl;
  traffic::GtStream s;
  s.src = 0;
  s.dst = 2;
  s.vc = 0;
  s.period = 300;
  wl.gt_streams.push_back(s);
  ArmHost host(fpga, wl);
  host.configure_network(4, 4, noc::Topology::kMesh);
  host.run(1500);
  const auto& lat = host.latency(traffic::PacketClass::kGuaranteedThroughput);
  EXPECT_GE(lat.count(), 3u);
  // 129 flits, 2 hops, empty network, creation == intended injection:
  // latency close to pure serialization.
  EXPECT_GE(lat.min(), 129.0);
  EXPECT_LT(lat.max(), 250.0);
  // Access delays observed by the monitor are small on an empty network.
  EXPECT_LT(host.access_delay().max(), 32.0);
}

TEST(ArmHost, FpgaAndSoftwareRngSimulateIdenticalTraffic) {
  // §8's RNG-offload ablation compares *speed*, not behaviour: both modes
  // must deliver the exact same packets.
  auto run = [](bool on_fpga) {
    FpgaDesign fpga{FpgaBuildConfig{}};
    ArmHost::Workload wl;
    wl.be_load = 0.10;
    wl.rng_on_fpga = on_fpga;
    ArmHost host(fpga, wl);
    host.configure_network(3, 3, noc::Topology::kMesh);
    host.run(800);
    return std::tuple(host.packets_delivered(),
                      host.latency(traffic::PacketClass::kBestEffort).sum(),
                      host.counts().randoms_drawn,
                      host.counts().generate_bus_reads);
  };
  const auto [pkts_hw, lat_hw, rnd_hw, busr_hw] = run(true);
  const auto [pkts_sw, lat_sw, rnd_sw, busr_sw] = run(false);
  EXPECT_EQ(pkts_hw, pkts_sw);
  EXPECT_EQ(lat_hw, lat_sw);
  EXPECT_EQ(rnd_hw, rnd_sw);
  EXPECT_GT(busr_hw, busr_sw);  // hardware mode reads the RNG register
}

TEST(ArmHost, OverloadDetectedAndStopped) {
  FpgaDesign fpga{FpgaBuildConfig{}};
  ArmHost::Workload wl;
  wl.be_load = 0.9;
  wl.be_vcs = {0, 1, 2, 3};
  wl.overload_periods = 10;
  ArmHost host(fpga, wl);
  host.configure_network(3, 3, noc::Topology::kMesh);
  host.run(60000);
  EXPECT_TRUE(host.overloaded());
  EXPECT_LT(fpga.cycles_simulated(), 60000u);
}

// Forwards to a real design but forces one stimuli port's free-space
// register to read 0 during chosen periods — a congested VC from the
// host's point of view, without faults.
class PortBlockerBus final : public BusInterface {
 public:
  PortBlockerBus(FpgaDesign& inner, Addr blocked_free_addr)
      : inner_(inner), blocked_(blocked_free_addr) {}

  std::uint32_t read32(Addr addr) override {
    ++stats_.reads;
    if (addr == blocked_ && blocked_now()) {
      return 0;
    }
    return inner_.read32(addr);
  }
  void write32(Addr addr, std::uint32_t value) override {
    ++stats_.writes;
    if (addr == kRegCtrl) {
      ++periods_;  // one run command per period
    }
    inner_.write32(addr, value);
  }
  const BusStats& bus_stats() const override { return stats_; }

  /// When true, every period is blocked; otherwise 4-blocked/1-open
  /// bursts, always below a 5-period overload threshold.
  void set_always_blocked(bool v) { always_ = v; }

 private:
  bool blocked_now() const { return always_ || periods_ % 5 != 4; }

  FpgaDesign& inner_;
  Addr blocked_;
  BusStats stats_;
  std::uint64_t periods_ = 0;
  bool always_ = false;
};

TEST(ArmHost, BriefCongestionBurstsDoNotFlagOverload) {
  // Regression for the overload accounting: the stall counter must reset
  // whenever the port accepts *any* pending word, so repeated
  // sub-threshold congestion bursts never accumulate into a false
  // overload stop.
  auto run = [](bool always_blocked) {
    FpgaDesign fpga{FpgaBuildConfig{}};
    PortBlockerBus bus(fpga, stimuli_port(0, 0, kPortFree));
    bus.set_always_blocked(always_blocked);
    ArmHost::Workload wl;
    traffic::GtStream s;  // keeps port (0, 0) backlogged every period
    s.src = 0;
    s.dst = 5;
    s.vc = 0;
    s.period = 40;
    wl.gt_streams.push_back(s);
    wl.overload_periods = 5;
    ArmHost host(bus, fpga.build(), wl);
    host.configure_network(3, 3, noc::Topology::kMesh);
    host.run(always_blocked ? 60000 : 1600);
    return std::tuple(host.overloaded(), host.aborted(),
                      host.cycles_simulated());
  };
  // 4-blocked/1-open bursts stay below the 5-period threshold forever.
  const auto [overloaded, aborted, cycles] = run(false);
  EXPECT_FALSE(overloaded);
  EXPECT_FALSE(aborted);
  EXPECT_EQ(cycles, 1600u);
  // Control: permanently blocked must still trip the overload stop.
  const auto [overloaded2, aborted2, cycles2] = run(true);
  EXPECT_TRUE(overloaded2);
  EXPECT_FALSE(aborted2);
  EXPECT_LT(cycles2, 60000u);
}

TEST(TimingModel, RepresentativeWorkloadLandsInPaperRanges) {
  FpgaDesign fpga{FpgaBuildConfig{}};
  ArmHost::Workload wl;
  wl.be_load = 0.10;
  ArmHost host(fpga, wl);
  host.configure_network(6, 6, noc::Topology::kMesh);
  host.run(4000);
  ASSERT_FALSE(host.overloaded());

  const TimingModel model;
  const PhaseTimes t = model.evaluate(host.counts());
  // Table 4 shapes: generation dominates, simulation is hidden by the
  // Fig. 8 overlap, every share within (loosened) paper ranges.
  EXPECT_GT(t.share_generate(), 0.35);
  EXPECT_LT(t.share_generate(), 0.75);
  EXPECT_GT(t.share_load(), 0.04);
  EXPECT_LT(t.share_load(), 0.30);
  EXPECT_LT(t.share_simulate(), 0.05);
  EXPECT_GT(t.share_retrieve(), 0.02);
  EXPECT_LT(t.share_retrieve(), 0.25);
  EXPECT_LT(t.share_analyze(), 0.45);
  // Table 3 magnitude: tens of kHz.
  EXPECT_GT(t.cycles_per_second, 5e3);
  EXPECT_LT(t.cycles_per_second, 2e5);
  // §6's theoretical ceiling for 6×6.
  EXPECT_NEAR(model.max_simulation_hz(36), 91.6e3, 1e3);
}

TEST(TimingModel, SoftwareRandSlowsGenerationLikeThePaperSays) {
  // §8: offloading random numbers to the FPGA "gave an extra 50%
  // simulation speed" — i.e. software rand() costs roughly half of the
  // total again.
  auto counts = [](bool on_fpga) {
    FpgaDesign fpga{FpgaBuildConfig{}};
    ArmHost::Workload wl;
    wl.be_load = 0.10;
    wl.rng_on_fpga = on_fpga;
    ArmHost host(fpga, wl);
    host.configure_network(6, 6, noc::Topology::kMesh);
    host.run(2000);
    return host.counts();
  };
  const TimingModel model;
  const double cps_hw = model.evaluate(counts(true)).cycles_per_second;
  const double cps_sw = model.evaluate(counts(false)).cycles_per_second;
  EXPECT_GT(cps_hw / cps_sw, 1.2);
  EXPECT_LT(cps_hw / cps_sw, 2.2);
}

TEST(ResourceModel, BramIsTheBindingConstraint) {
  const ResourceModel model;
  const ResourceReport rep = model.simulator_usage(FpgaBuildConfig{});
  EXPECT_LE(rep.total_brams, model.budget().block_rams);
  EXPECT_LE(rep.total_slices, model.budget().slices);
  // Table 2's conclusion: RAM utilization far above logic utilization.
  EXPECT_GT(rep.bram_fraction, 0.6);
  EXPECT_LT(rep.bram_fraction, 1.0);
  EXPECT_LT(rep.slice_fraction, 0.35);
  EXPECT_GT(rep.bram_fraction, 2 * rep.slice_fraction);
  ASSERT_EQ(rep.rows.size(), 5u);
  // Router state memory and stimuli buffers dominate the BRAM budget.
  EXPECT_GT(rep.rows[0].brams, 30u);
  EXPECT_GT(rep.rows[1].brams, 30u);
  EXPECT_EQ(rep.rows[3].brams, 0u);  // RNG
  EXPECT_EQ(rep.rows[4].brams, 0u);  // control
}

TEST(ResourceModel, ParallelInstantiationLimitNearPaper) {
  const ResourceModel model;
  noc::RouterConfig rc;  // 4 VCs, 4-deep queues
  const std::size_t limit = model.max_parallel_routers(rc, 6);
  // §4: "approximately 24 routers in a Virtex-II 8000" with a 6-bit
  // datapath. Model tolerance: same dozens-not-hundreds magnitude.
  EXPECT_GE(limit, 12u);
  EXPECT_LE(limit, 48u);
  // The full 16-bit datapath fits even fewer.
  EXPECT_LT(model.max_parallel_routers(rc, 16), limit);
  // Either way, nowhere near the 256 routers the sequential simulator
  // handles — the point of the paper.
  EXPECT_LT(limit, 64u);
}

TEST(ResourceModel, BramsForGeometry) {
  EXPECT_EQ(ResourceModel::brams_for(512, 36), 1u);
  EXPECT_EQ(ResourceModel::brams_for(512, 37), 2u);
  EXPECT_EQ(ResourceModel::brams_for(256, 1), 1u);
  EXPECT_THROW(ResourceModel::brams_for(1024, 8), Error);
}

}  // namespace
}  // namespace tmsim::fpga

#include "fpga/fpga_design.h"

#include <gtest/gtest.h>

#include "noc/network.h"

namespace tmsim::fpga {
namespace {

using noc::Flit;
using noc::FlitType;
using noc::LinkForward;

std::unique_ptr<FpgaDesign> make_configured(std::size_t w = 3,
                                            std::size_t h = 3,
                                            std::uint32_t topo = 0) {
  auto fpga = std::make_unique<FpgaDesign>(FpgaBuildConfig{});
  fpga->write32(kRegNetWidth, static_cast<std::uint32_t>(w));
  fpga->write32(kRegNetHeight, static_cast<std::uint32_t>(h));
  fpga->write32(kRegTopology, topo);
  fpga->write32(kRegConfigure, 1);
  return fpga;
}

/// Pushes a flit into the stimuli buffer of (router, vc) via the bus.
void push_stimulus(FpgaDesign& fpga, std::size_t r, unsigned vc,
                   SystemCycle ts, const Flit& flit) {
  const LinkForward f{true, static_cast<std::uint8_t>(vc), flit};
  fpga.write32(stimuli_port(r, vc, kPortPushTs),
               static_cast<std::uint32_t>(ts));
  fpga.write32(stimuli_port(r, vc, kPortPushData), encode_forward(f));
}

TEST(FpgaDesign, ConfigurationThroughRegisters) {
  auto fpga_p = make_configured(4, 3, 1);
  FpgaDesign& fpga = *fpga_p;
  EXPECT_TRUE(fpga.configured());
  EXPECT_EQ(fpga.network().width, 4u);
  EXPECT_EQ(fpga.network().height, 3u);
  EXPECT_EQ(fpga.network().topology, noc::Topology::kMesh);
}

TEST(FpgaDesign, RejectsRunBeforeConfigure) {
  FpgaDesign fpga{FpgaBuildConfig{}};
  fpga.write32(kRegSimCycles, 8);
  EXPECT_THROW(fpga.write32(kRegCtrl, 1), Error);
}

TEST(FpgaDesign, RejectsOversizedNetwork) {
  FpgaBuildConfig build;
  build.max_routers = 16;
  FpgaDesign fpga{build};
  fpga.write32(kRegNetWidth, 6);
  fpga.write32(kRegNetHeight, 6);
  EXPECT_THROW(fpga.write32(kRegConfigure, 1), Error);
}

TEST(FpgaDesign, RngRegisterIsTheLfsr) {
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  fpga.write32(kRegRngSeed, 0xabcd1234u);
  Lfsr32 ref(0xabcd1234u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fpga.read32(kRegRandom), ref.next());
  }
}

TEST(FpgaDesign, PeriodBoundedByStimuliDepth) {
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  fpga.write32(kRegSimCycles,
               static_cast<std::uint32_t>(fpga.build().stimuli_buffer_depth + 1));
  EXPECT_THROW(fpga.write32(kRegCtrl, 1), Error);
}

TEST(FpgaDesign, PacketTraversesAndLandsInOutputBuffer) {
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  // Packet 0 → 1 (east, 1 hop) on VC 2, injected from cycle 0.
  push_stimulus(fpga, 0, 2, 0,
                Flit{FlitType::kHead, noc::make_head_payload(1, 0, 2, 7)});
  push_stimulus(fpga, 0, 2, 1, Flit{FlitType::kBody, 0x1234});
  push_stimulus(fpga, 0, 2, 2, Flit{FlitType::kTail, 0x5678});

  fpga.write32(kRegSimCycles, 16);
  fpga.write32(kRegCtrl, 1);
  EXPECT_EQ(fpga.cycles_simulated(), 16u);

  // Nothing at other routers.
  EXPECT_EQ(fpga.read32(output_port(4, kPortFill)), 0u);
  // Three flits at router 1 with consecutive timestamps.
  ASSERT_EQ(fpga.read32(output_port(1, kPortFill)), 3u);
  const auto ts0 = fpga.read32(output_port(1, kPortPopTs));
  const auto d0 = fpga.read32(output_port(1, kPortPopData));
  const LinkForward f0 = noc::decode_forward(d0);
  EXPECT_EQ(f0.flit.type, FlitType::kHead);
  EXPECT_EQ(f0.vc, 2u);
  const auto ts1 = fpga.read32(output_port(1, kPortPopTs));
  (void)fpga.read32(output_port(1, kPortPopData));
  EXPECT_EQ(ts1, ts0 + 1);
  (void)fpga.read32(output_port(1, kPortPopTs));
  const LinkForward f2 =
      noc::decode_forward(fpga.read32(output_port(1, kPortPopData)));
  EXPECT_EQ(f2.flit.type, FlitType::kTail);
  EXPECT_EQ(f2.flit.payload, 0x5678u);
}

TEST(FpgaDesign, MatchesDirectSimulationTimestamps) {
  // The FPGA platform's delivery timestamps must match the golden
  // reference driven with the identical injection schedule.
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  noc::DirectNocSimulation ref(fpga.network());

  const std::vector<Flit> pkt{
      Flit{FlitType::kHead, noc::make_head_payload(2, 2, 0, 3)},
      Flit{FlitType::kBody, 0xaaaa},
      Flit{FlitType::kBody, 0xbbbb},
      Flit{FlitType::kTail, 0xcccc},
  };
  for (std::size_t i = 0; i < pkt.size(); ++i) {
    push_stimulus(fpga, 4, 0, i, pkt[i]);
  }
  fpga.write32(kRegSimCycles, 16);
  fpga.write32(kRegCtrl, 1);

  // Drive the reference identically (credits cannot stall: empty net).
  std::vector<std::pair<SystemCycle, std::uint32_t>> ref_deliveries;
  for (SystemCycle c = 0; c < 16; ++c) {
    if (c < pkt.size()) {
      ref.set_local_input(4, LinkForward{true, 0, pkt[c]});
    }
    ref.step();
    const LinkForward out = ref.local_output(8);
    if (out.valid) {
      ref_deliveries.emplace_back(c, encode_forward(out));
    }
  }
  ASSERT_EQ(fpga.read32(output_port(8, kPortFill)), ref_deliveries.size());
  for (const auto& [ts, data] : ref_deliveries) {
    EXPECT_EQ(fpga.read32(output_port(8, kPortPopTs)), ts);
    EXPECT_EQ(fpga.read32(output_port(8, kPortPopData)), data);
  }
}

TEST(FpgaDesign, DeltaAndClockCountersAdvance) {
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  fpga.write32(kRegSimCycles, 8);
  fpga.write32(kRegCtrl, 1);
  // Idle 3×3 network: exactly 9 delta cycles per system cycle.
  EXPECT_EQ(fpga.delta_cycles(), 8u * 9);
  EXPECT_EQ(fpga.fpga_clock_cycles(), 2u * 8 * 9 + 8);
  EXPECT_EQ(fpga.read32(kRegDeltaLo), 8u * 9);
  EXPECT_EQ(fpga.read32(kRegCycleLo), 8u);
}

TEST(FpgaDesign, AccessDelayMonitorLogsLateInjection) {
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  // Two heads on the same VC back-to-back: the second packet's head must
  // wait for credits while the first drains.
  std::size_t t = 0;
  for (int p = 0; p < 2; ++p) {
    push_stimulus(fpga, 0, 1, t++,
                  Flit{FlitType::kHead, noc::make_head_payload(1, 0, 1,
                                                               (unsigned)p)});
    for (int b = 0; b < 5; ++b) {
      push_stimulus(fpga, 0, 1, t++,
                    Flit{b == 4 ? FlitType::kTail : FlitType::kBody,
                         static_cast<std::uint16_t>(b)});
    }
  }
  fpga.write32(kRegSimCycles, 16);
  fpga.write32(kRegCtrl, 1);
  fpga.write32(kRegCtrl, 1);
  const auto fill = fpga.read32(kAccessMonitorBase + kPortFill);
  EXPECT_EQ(fill, 2u);  // one sample per HEAD
  (void)fpga.read32(kAccessMonitorBase + kPortPopTs);
  const auto delay0 = fpga.read32(kAccessMonitorBase + kPortPopData);
  EXPECT_EQ(delay0, 0u);  // first head injected on time
}

TEST(FpgaDesign, UnmappedAccessThrows) {
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  EXPECT_THROW(fpga.read32(0x30), Error);
  EXPECT_THROW(fpga.write32(0x1ffff, 1), Error);
  EXPECT_THROW(fpga.read32(1u << 17), Error);
}

TEST(FpgaDesign, BusStatsCountTraffic) {
  auto fpga_p = make_configured();
  FpgaDesign& fpga = *fpga_p;
  const auto before = fpga.bus_stats();
  (void)fpga.read32(kRegStatus);
  fpga.write32(kRegSimCycles, 4);
  EXPECT_EQ(fpga.bus_stats().reads, before.reads + 1);
  EXPECT_EQ(fpga.bus_stats().writes, before.writes + 1);
}

}  // namespace
}  // namespace tmsim::fpga

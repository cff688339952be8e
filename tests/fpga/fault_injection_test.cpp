// Integration tests for the fault-injection bus layer and the hardened
// host (ctest label: faults). The headline property from DESIGN.md,
// "Robustness": with bounded per-access fault rates, a run either
// completes with statistics bit-identical to a fault-free run, or aborts
// with a structured diagnostic — it never silently diverges or hangs.
#include "fpga/faulty_bus.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fpga/arm_host.h"
#include "fpga/fpga_design.h"

namespace tmsim::fpga {
namespace {

struct RunResult {
  bool aborted = false;
  bool overloaded = false;
  std::uint64_t packets = 0;
  double lat_sum = 0, lat_min = 0, lat_max = 0;
  std::uint64_t lat_count = 0;
  double access_sum = 0;
  std::uint64_t access_count = 0;
  std::uint64_t cycles = 0;
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t hw_rejected = 0;
  std::string abort_reason;
};

RunResult run_with_rates(
    const FaultRates& rates, std::uint64_t seed, std::size_t cycles = 2000,
    core::SchedulerKind scheduler = core::SchedulerKind::kRoundRobin) {
  FpgaBuildConfig build;
  build.engine.scheduler = scheduler;
  FpgaDesign fpga{build};
  FaultyBus bus(fpga, rates, seed);
  ArmHost::Workload wl;
  wl.be_load = 0.10;
  ArmHost host(bus, fpga.build(), wl);
  RunResult r;
  try {
    host.configure_network(4, 4, noc::Topology::kMesh);
    host.run(cycles);
  } catch (const Error& e) {
    // A bus so broken that even verified configuration never converges
    // surfaces as a structured error before run() starts.
    r.aborted = true;
    r.abort_reason = e.what();
  }
  const auto& lat = host.latency(traffic::PacketClass::kBestEffort);
  r.aborted = r.aborted || host.aborted();
  r.overloaded = host.overloaded();
  r.packets = host.packets_delivered();
  r.lat_sum = lat.sum();
  r.lat_count = lat.count();
  if (lat.count() > 0) {
    r.lat_min = lat.min();
    r.lat_max = lat.max();
  }
  r.access_sum = host.access_delay().sum();
  r.access_count = host.access_delay().count();
  r.cycles = host.cycles_simulated();
  r.injected = bus.injected().total();
  r.recovered = host.fault_report().total_recovered();
  r.hw_rejected = host.fault_report().hw_rejected_words;
  if (!host.fault_report().abort_reason.empty()) {
    r.abort_reason = host.fault_report().abort_reason;
  }
  return r;
}

TEST(FaultInjection, StatisticsBitIdenticalUnderBoundedFaultRates) {
  // The ISSUE acceptance bar: fault rates up to 1e-3 per access must
  // yield the exact statistics of a fault-free run — every fault
  // detected and recovered, none absorbed into the results.
  const RunResult clean = run_with_rates(FaultRates{}, 1);
  ASSERT_FALSE(clean.aborted);
  ASSERT_GT(clean.packets, 20u);

  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const RunResult faulty = run_with_rates(FaultRates::uniform(1e-3), seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_FALSE(faulty.aborted) << faulty.abort_reason;
    EXPECT_GT(faulty.injected, 0u);     // the layer really fired
    EXPECT_GT(faulty.recovered, 0u);    // and the host really worked
    // Bit-identical statistics (double compares are exact here).
    EXPECT_EQ(faulty.packets, clean.packets);
    EXPECT_EQ(faulty.lat_sum, clean.lat_sum);
    EXPECT_EQ(faulty.lat_count, clean.lat_count);
    EXPECT_EQ(faulty.lat_min, clean.lat_min);
    EXPECT_EQ(faulty.lat_max, clean.lat_max);
    EXPECT_EQ(faulty.access_sum, clean.access_sum);
    EXPECT_EQ(faulty.access_count, clean.access_count);
    EXPECT_EQ(faulty.cycles, clean.cycles);
  }
}

TEST(FaultInjection, CompiledEngineBitIdenticalUnderFaults) {
  // The gated compiled schedule composed with the fault-injection layer:
  // a fault-free round-robin run is the golden reference; compiled runs —
  // clean and faulty — must reproduce its statistics bit for bit.
  const RunResult clean = run_with_rates(FaultRates{}, 1);
  ASSERT_FALSE(clean.aborted);
  ASSERT_GT(clean.packets, 20u);

  for (const auto& [rates, seed] :
       {std::pair{FaultRates{}, std::uint64_t{1}},
        std::pair{FaultRates::uniform(1e-3), std::uint64_t{404}}}) {
    const RunResult r =
        run_with_rates(rates, seed, 2000, core::SchedulerKind::kCompiled);
    ASSERT_FALSE(r.aborted) << r.abort_reason;
    EXPECT_EQ(r.packets, clean.packets);
    EXPECT_EQ(r.lat_sum, clean.lat_sum);
    EXPECT_EQ(r.lat_count, clean.lat_count);
    EXPECT_EQ(r.lat_min, clean.lat_min);
    EXPECT_EQ(r.lat_max, clean.lat_max);
    EXPECT_EQ(r.access_sum, clean.access_sum);
    EXPECT_EQ(r.access_count, clean.access_count);
    EXPECT_EQ(r.cycles, clean.cycles);
  }
}

TEST(FaultInjection, WatchdogAbortsInsteadOfHanging) {
  FaultRates rates;
  rates.stuck_busy = 1.0;  // every status poll reads busy, forever
  rates.stuck_busy_reads = 1u << 20;
  const RunResult r = run_with_rates(rates, 7);
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("watchdog"), std::string::npos)
      << r.abort_reason;
  EXPECT_EQ(r.cycles, 0u);  // no period ever verified as completed
}

TEST(FaultInjection, InjectionIsDeterministicPerSeed) {
  const RunResult a = run_with_rates(FaultRates::uniform(1e-3), 42);
  const RunResult b = run_with_rates(FaultRates::uniform(1e-3), 42);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.hw_rejected, b.hw_rejected);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.lat_sum, b.lat_sum);
}

TEST(FaultInjection, GuardedPushRejectsCorruptedWordsWithoutCommitting) {
  FpgaDesign fpga{FpgaBuildConfig{}};
  fpga.write32(kRegNetWidth, 2);
  fpga.write32(kRegNetHeight, 2);
  fpga.write32(kRegTopology, 1);
  fpga.write32(kRegConfigure, 1);
  fpga.write32(kRegGuard, 1);

  const Addr ts_addr = stimuli_port(0, 0, kPortPushTs);
  const Addr data_addr = stimuli_port(0, 0, kPortPushData);
  const Addr commits_addr = stimuli_port(0, 0, kPortCommits);
  const std::uint32_t payload = 0x1abcdu;

  // A well-formed guarded word commits.
  fpga.write32(ts_addr, 5);
  fpga.write32(data_addr, guard_stimulus(payload, 5, 0));
  EXPECT_EQ(fpga.read32(commits_addr), 1u);
  EXPECT_EQ(fpga.read32(kRegFaults), 0u);

  // Wrong checksum (stale timestamp): rejected, not committed, sticky
  // load-fault flagged.
  fpga.write32(ts_addr, 9);
  fpga.write32(data_addr, guard_stimulus(payload, 8, 1));
  EXPECT_EQ(fpga.read32(commits_addr), 1u);
  EXPECT_EQ(fpga.read32(kRegFaults), 1u);
  EXPECT_TRUE(fpga.read32(kRegStatus) & kStatusLoadFault);

  // Wrong sequence number: rejected too.
  fpga.write32(ts_addr, 9);
  fpga.write32(data_addr, guard_stimulus(payload, 9, 7));
  EXPECT_EQ(fpga.read32(commits_addr), 1u);
  EXPECT_EQ(fpga.read32(kRegFaults), 2u);

  // Missing timestamp write: rejected (the previous staged value was
  // consumed, so the checksum cannot match a stale one silently).
  fpga.write32(data_addr, guard_stimulus(payload, 9, 1));
  EXPECT_EQ(fpga.read32(commits_addr), 1u);
  EXPECT_EQ(fpga.read32(kRegFaults), 3u);

  // W1C clears the sticky flag; the next valid word still commits with
  // the unchanged sequence number.
  fpga.write32(kRegStatus, kStatusLoadFault);
  EXPECT_FALSE(fpga.read32(kRegStatus) & kStatusLoadFault);
  fpga.write32(ts_addr, 9);
  fpga.write32(data_addr, guard_stimulus(payload, 9, 1));
  EXPECT_EQ(fpga.read32(commits_addr), 2u);
  EXPECT_EQ(fpga.read32(kRegFaults), 3u);
}

TEST(FaultInjection, RecoveredOverrunDoesNotPoisonLaterPeriods) {
  // Satellite (f): kRegStatus overrun is sticky until cleared by a W1C
  // write, and once cleared a drained design keeps running clean.
  FpgaBuildConfig build;
  build.stimuli_buffer_depth = 4;
  build.output_buffer_depth = 4;
  FpgaDesign fpga(build);
  fpga.write32(kRegNetWidth, 2);
  fpga.write32(kRegNetHeight, 2);
  fpga.write32(kRegTopology, 0);
  fpga.write32(kRegConfigure, 1);
  fpga.write32(kRegSimCycles, 4);

  // A 3-flit packet from router 0 to router 1 (one torus hop).
  auto push_packet = [&](std::size_t when) {
    const unsigned vc = 0;
    const noc::Flit head{noc::FlitType::kHead,
                         noc::make_head_payload(1, 0, vc, 0)};
    const noc::Flit body{noc::FlitType::kBody, 0x11};
    const noc::Flit tail{noc::FlitType::kTail, 0x22};
    std::size_t ts = when;
    for (const noc::Flit& f : {head, body, tail}) {
      fpga.write32(stimuli_port(0, vc, kPortPushTs),
                   static_cast<std::uint32_t>(ts++));
      fpga.write32(stimuli_port(0, vc, kPortPushData),
                   encode_forward(noc::LinkForward{true, 0, f}));
    }
  };
  auto run_period = [&] { fpga.write32(kRegCtrl, 1); };
  auto drain_outputs = [&](std::size_t router) {
    std::uint32_t fill = fpga.read32(output_port(router, kPortFill));
    std::uint32_t drained = 0;
    while (fill-- > 0) {
      (void)fpga.read32(output_port(router, kPortPopTs));
      (void)fpga.read32(output_port(router, kPortPopData));
      ++drained;
    }
    return drained;
  };

  // Two packets (6 output words) never drained: the 4-deep output buffer
  // of router 1 must overrun.
  push_packet(0);
  run_period();
  push_packet(4);
  for (int i = 0; i < 4; ++i) {
    run_period();
  }
  ASSERT_TRUE(fpga.read32(kRegStatus) & kStatusOverrun);
  EXPECT_TRUE(fpga.output_overrun());

  // Recover: drain what fit, clear the sticky bit (W1C).
  EXPECT_EQ(drain_outputs(1), 4u);
  fpga.write32(kRegStatus, kStatusOverrun);
  EXPECT_FALSE(fpga.read32(kRegStatus) & kStatusOverrun);

  // Later periods with prompt draining run clean: the recovered overrun
  // left no residue.
  const std::uint32_t cycle = fpga.read32(kRegCycleLo);
  push_packet(cycle);
  std::uint32_t delivered = 0;
  for (int i = 0; i < 4; ++i) {
    run_period();
    delivered += drain_outputs(1);
    ASSERT_FALSE(fpga.read32(kRegStatus) & kStatusOverrun);
  }
  EXPECT_EQ(delivered, 3u);  // the whole third packet, nothing stale
}

TEST(FaultInjection, AbortReportsAreStructuredNotSilent) {
  // Saturating drop rates must end in a graceful abort with a reason —
  // never a hang, never silently wrong results.
  FaultRates rates;
  rates.dropped_write = 1.0;  // nothing the host writes ever lands
  const RunResult r = run_with_rates(rates, 3, 200);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.abort_reason.empty());
  EXPECT_EQ(r.packets, 0u);
}

}  // namespace
}  // namespace tmsim::fpga

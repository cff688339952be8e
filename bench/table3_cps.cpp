// Table 3: "Simulated clock cycles per second" for a 6×6 NoC.
//
// Paper (2007, Pentium 4 host / Virtex-II + ARM9 platform):
//   VHDL          10–17 Hz
//   SystemC       215 Hz
//   FPGA average  22 kHz
//   FPGA fastest  61.6 kHz
//   → FPGA / SystemC speedup 80–300×, SystemC / VHDL ≈ 13–21×
//
// Reproduction on this host:
//   - the three software rows are *measured* wall-clock rates of our
//     engines (signal-level rtlsim = the VHDL stand-in, coarse sysc =
//     the SystemC stand-in, plus the sequential method run directly on
//     the host — §7 notes the method works on any sequential processor);
//   - the FPGA rows are *modeled*: the same simulation's counted delta
//     cycles, bus transfers and software operations evaluated at the
//     paper's clock rates (6.6 MHz logic / 86 MHz ARM) — the documented
//     substitution for hardware we do not have.
//
// Absolute numbers shift with the host (a 2026 machine is ~100× a 2007
// Pentium 4); the claims under test are the orderings and the modeled
// FPGA-vs-SystemC-class gap.
#include <cstdio>
#include <memory>

#include "analysis/table.h"
#include "bench/bench_util.h"
#include "core/noc_block.h"
#include "fpga/arm_host.h"
#include "noc/network.h"
#include "rtlsim/rtl_noc.h"
#include "sysc/sysc_noc.h"
#include "traffic/harness.h"
#include "traffic/workloads.h"

namespace {

using namespace tmsim;

// The paper's FPGA rows (Table 3).
constexpr double kPaperFpgaAvgHz = 22e3;
constexpr double kPaperFpgaFastHz = 61.6e3;

double measure_cps(noc::NocSimulation& sim, std::size_t cycles) {
  traffic::TrafficHarness::Options opts;
  opts.seed = 7;
  traffic::TrafficHarness h(sim, opts);
  h.set_be_load(0.10);
  const double secs = bench::time_run([&] { h.run(cycles); });
  return static_cast<double>(cycles) / secs;
}

/// Modeled FPGA rate for a given workload intensity.
double modeled_fpga_cps(double be_load, double analysis_complexity,
                        std::size_t cycles) {
  fpga::FpgaDesign design{fpga::FpgaBuildConfig{}};
  fpga::ArmHost::Workload wl;
  wl.be_load = be_load;
  fpga::ArmHost host(design, wl);
  host.configure_network(6, 6, noc::Topology::kMesh);
  host.run(cycles);
  fpga::TimingModel model;
  model.costs().analysis_complexity = analysis_complexity;
  return model.evaluate(host.counts()).cycles_per_second;
}

}  // namespace

int main() {
  bench::print_header("Table 3", "simulated clock cycles per second (6x6)");
  const std::size_t scale = bench::quick_mode() ? 5 : 1;
  const noc::NetworkConfig net = bench::paper_network(/*queue_depth=*/4);

  double vhdl_cps, sysc_cps, seq_cps, direct_cps;
  {
    rtlsim::RtlNocSimulation sim(net);
    vhdl_cps = measure_cps(sim, 600 / scale);
  }
  {
    sysc::SyscNocSimulation sim(net);
    sysc_cps = measure_cps(sim, 2000 / scale);
  }
  {
    core::SeqNocSimulation sim(net);
    seq_cps = measure_cps(sim, 6000 / scale);
  }
  {
    noc::DirectNocSimulation sim(net);
    direct_cps = measure_cps(sim, 20000 / scale);
  }
  const double fpga_avg =
      modeled_fpga_cps(0.10, /*analysis=*/3.0, 4000 / scale);
  const double fpga_fast =
      modeled_fpga_cps(0.04, /*analysis=*/1.0, 4000 / scale);

  analysis::TablePrinter table({"Block", "paper CPS", "ours CPS", "kind"});
  table.add_row({"VHDL (signal-level, 9-value)", "10-17 Hz",
                 analysis::fmt("%.0f Hz", vhdl_cps), "measured (host)"});
  table.add_row({"SystemC (coarse RT-level)", "215 Hz",
                 analysis::fmt("%.0f Hz", sysc_cps), "measured (host)"});
  table.add_row({"sequential method on host", "-",
                 analysis::fmt("%.0f Hz", seq_cps), "measured (host)"});
  table.add_row({"two-phase struct-state on host", "-",
                 analysis::fmt("%.0f Hz", direct_cps), "measured (host)"});
  table.add_row({"FPGA average", "22 kHz",
                 analysis::fmt("%.1f kHz", fpga_avg / 1e3),
                 "modeled (paper clocks)"});
  table.add_row({"FPGA fastest", "61.6 kHz",
                 analysis::fmt("%.1f kHz", fpga_fast / 1e3),
                 "modeled (paper clocks)"});
  table.print();

  const double max_hz = fpga::TimingModel().max_simulation_hz(36);
  std::printf("\ntheoretical FPGA ceiling for 6x6 (§6): 3.3e6/36 = %.1f kHz "
              "(paper: 91.6 kHz)\n", max_hz / 1e3);
  std::printf("\nclaims:\n");
  std::printf("  granularity ordering VHDL < SystemC < sequential method: "
              "%s\n    (%.0f < %.0f < %.0f Hz)\n",
              (vhdl_cps < sysc_cps && sysc_cps < seq_cps) ? "HOLDS"
                                                          : "VIOLATED",
              vhdl_cps, sysc_cps, seq_cps);
  std::printf("  modeled FPGA / measured SystemC-substitute: %.0fx\n",
              fpga_avg / sysc_cps);
  std::printf("  paper's FPGA/SystemC: 80-300x (22-61.6 kHz vs 215 Hz);\n"
              "  the host ratio differs because the 2026 host is far\n"
              "  faster than a 2007 Pentium 4 while the modeled FPGA rate\n"
              "  is pinned at the paper's 6.6 MHz.\n");
  std::printf("  modeled FPGA rows / paper: average %.2fx (%.1f vs %.1f "
              "kHz), fastest %.2fx (%.1f vs %.1f kHz)\n",
              fpga_avg / kPaperFpgaAvgHz, fpga_avg / 1e3,
              kPaperFpgaAvgHz / 1e3, fpga_fast / kPaperFpgaFastHz,
              fpga_fast / 1e3, kPaperFpgaFastHz / 1e3);

  bench::emit_bench_json(
      "table3_cps",
      {{"network", "6x6, queue depth 4"},
       {"quick", bench::quick_mode() ? "1" : "0"}},
      {{"vhdl_cps", vhdl_cps, "cycles/s"},
       {"systemc_cps", sysc_cps, "cycles/s"},
       {"sequential_cps", seq_cps, "cycles/s"},
       {"direct_cps", direct_cps, "cycles/s"},
       {"fpga_avg_cps", fpga_avg, "cycles/s"},
       {"fpga_fastest_cps", fpga_fast, "cycles/s"},
       {"fpga_ceiling_cps", max_hz, "cycles/s"}});
  return 0;
}

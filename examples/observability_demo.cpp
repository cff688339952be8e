// Observability demo (DESIGN.md §10): one run, three artefacts.
//
//   $ ./examples/observability_demo
//
// writes into the current directory:
//   obs_metrics.json   — the full metric registry: host.* phase profile
//                        (Table 4), fpga.* monitor ledgers, engine.*
//                        delta-cycle counters
//   obs_trace.vcd      — GTKWave-viewable waveform of the r0.* router
//                        links plus the sim.delta_cycles bookkeeping
//   obs_timeline.json  — chrome://tracing timeline of the ARM host's
//                        five-phase loop
#include <cstdio>
#include <fstream>

#include "core/noc_block.h"
#include "fpga/arm_host.h"
#include "obs/chrome_trace.h"
#include "obs/engine_sinks.h"
#include "obs/metrics.h"
#include "traffic/harness.h"
#include "traffic/workloads.h"

int main() {
  using namespace tmsim;

  obs::MetricsRegistry registry;
  obs::ChromeTrace timeline;

  // --- Part 1: the §5 ARM/FPGA platform, instrumented ----------------------
  // attach_metrics() wires the monitor buffers and cycle ledgers;
  // set_timeline() records every phase of the host loop as a span.
  fpga::FpgaBuildConfig build;
  fpga::FpgaDesign design(build);
  design.attach_metrics(&registry);

  fpga::ArmHost::Workload wl;
  wl.be_load = 0.08;
  traffic::GtStream stream;
  stream.src = 0;
  stream.dst = 14;
  stream.vc = 0;
  stream.period = 700;
  wl.gt_streams.push_back(stream);

  fpga::ArmHost host(design, wl);
  host.set_timeline(&timeline);
  host.configure_network(4, 4, noc::Topology::kMesh);
  std::printf("running 3000 system cycles through the ARM/FPGA loop...\n");
  host.run(3000);

  const fpga::TimingModel model;
  host.export_metrics(registry, model);

  // --- Part 2: the engine, traced ------------------------------------------
  // A 3x3 mesh; the VCD tracer streams router 0's links, the metrics
  // sink counts delta cycles.
  noc::NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = noc::Topology::kMesh;
  net.router.queue_depth = 2;
  core::SeqNocSimulation sim(net);

  obs::EngineMetricsSink engine_metrics(registry);
  std::ofstream vcd_os("obs_trace.vcd");
  obs::VcdTracerOptions vopts;
  vopts.link_glob = "r0.*";
  obs::VcdTracer tracer(sim.engine().model(), vcd_os, vopts);
  obs::MultiObserver fan;
  fan.add(&engine_metrics);
  fan.add(&tracer);
  sim.set_observer(&fan);

  traffic::TrafficHarness::Options topts;
  topts.seed = 7;
  traffic::TrafficHarness harness(sim, topts);
  harness.set_be_load(0.12);
  std::printf("running 256 cycles with VCD tracing on r0.*...\n");
  harness.run(256);
  vcd_os.close();

  // --- Artefacts -------------------------------------------------------------
  {
    std::ofstream os("obs_metrics.json");
    registry.write_json(os, {{"example", "observability_demo"}});
  }
  {
    std::ofstream os("obs_timeline.json");
    timeline.write_json(os);
  }

  std::printf("\nwrote obs_metrics.json (%zu metrics), obs_trace.vcd "
              "(%zu signals), obs_timeline.json (%zu events)\n",
              registry.size(), tracer.num_signals(), timeline.size());
  std::printf("\nTable 4 profile from the registry:\n");
  for (const char* phase :
       {"generate", "load", "simulate", "retrieve", "analyze"}) {
    std::printf("  %-9s %5.1f%%\n", phase,
                100.0 * registry.gauge_value(std::string("host.share.") +
                                             phase));
  }
  std::printf("\nopen obs_trace.vcd in GTKWave; load obs_timeline.json at "
              "chrome://tracing or ui.perfetto.dev\n");
  return 0;
}

#include "fpga/timing_model.h"

#include <algorithm>

namespace tmsim::fpga {

PhaseTimes TimingModel::evaluate(const PhaseCounts& c) const {
  const double arm_s = 1.0 / clocks_.arm_hz;
  PhaseTimes t;

  // Generate: per-flit and per-packet software work plus randomness. With
  // the FPGA RNG the randoms cost one bus read each (already counted in
  // generate_bus_reads); with software rand() they cost ARM cycles.
  double gen_cycles =
      static_cast<double>(c.flits_generated) * costs_.per_generated_flit +
      static_cast<double>(c.packets_generated) * costs_.per_generated_packet +
      static_cast<double>(c.generate_bus_reads) * costs_.bus_cycles_per_read;
  if (!c.rng_on_fpga) {
    gen_cycles +=
        static_cast<double>(c.randoms_drawn) * costs_.per_random_software;
  }
  t.generate = gen_cycles * arm_s;

  t.load = (static_cast<double>(c.load_bus_writes) *
                costs_.bus_cycles_per_write +
            static_cast<double>(c.load_bus_reads) *
                costs_.bus_cycles_per_read) *
           arm_s;

  t.retrieve = static_cast<double>(c.retrieve_bus_reads) *
               costs_.bus_cycles_per_read * arm_s;

  t.analyze = (static_cast<double>(c.flits_analyzed) *
                   costs_.per_analyzed_flit +
               static_cast<double>(c.packets_analyzed) *
                   costs_.per_analyzed_packet) *
              costs_.analysis_complexity * arm_s;

  // Hardening overhead: every verify/sync bus access costs the same
  // external-memory-interface cycles as any other access; it rides on the
  // ARM alongside the paper's phases but is reported separately.
  t.verify = (static_cast<double>(c.verify_bus_reads + c.sync_bus_reads) *
                  costs_.bus_cycles_per_read +
              static_cast<double>(c.verify_bus_writes + c.sync_bus_writes) *
                  costs_.bus_cycles_per_write) *
             arm_s;

  t.simulate_raw =
      static_cast<double>(c.fpga_clock_cycles) / clocks_.fpga_logic_hz;

  const double overhead =
      static_cast<double>(c.periods) * costs_.per_period_overhead * arm_s;
  t.arm_total =
      t.generate + t.load + t.retrieve + t.analyze + t.verify + overhead;

  // Fig. 8 overlap: FPGA work hides behind ARM work (or vice versa).
  t.wall = std::max(t.arm_total, t.simulate_raw) +
           0.0;  // pipeline fill is inside per_period_overhead
  t.simulate_visible = std::max(0.0, t.simulate_raw - t.arm_total);
  t.cycles_per_second =
      t.wall > 0 ? static_cast<double>(c.system_cycles) / t.wall : 0.0;
  return t;
}

}  // namespace tmsim::fpga

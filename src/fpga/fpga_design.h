// FpgaDesign: functional model of the Figure-7 FPGA design.
//
// The design couples the sequential NoC simulator (core engine with one
// router block per simulated router, dynamic HBR schedule) with:
//   - per-(router, VC) stimuli cyclic buffers (ARM writes, HW consumes),
//   - per-router output cyclic buffers (HW writes, ARM reads),
//   - a link-probe monitor buffer and an access-delay monitor buffer —
//     "These two buffers cannot influence the traffic in the NoC" (§5.2),
//     so they drop samples when full instead of stalling,
//   - the 32-bit hardware LFSR random number generator,
//   - global control/status registers,
// all reachable through read32/write32 on the 17-bit/32-bit memory
// interface (§5.1). Network size and topology are runtime-configurable
// through registers ("The software on the ARM can change the network size
// from 1-by-2 to any 2 dimensional size with a maximum number of 256
// routers", §7.1); queue depth and VC count are synthesis parameters.
//
// Timing accounting: a delta cycle costs 2 FPGA clock cycles (read,
// evaluate+write — §5.2), plus one cycle per system cycle for the HBR
// reset / scheduler turnaround. The counters feed the TimingModel.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/noc_block.h"
#include "fpga/address_map.h"
#include "fpga/bus_interface.h"
#include "fpga/cyclic_buffer.h"

namespace tmsim::obs {
class MetricsRegistry;
class Counter;
}  // namespace tmsim::obs

namespace tmsim::fpga {

/// Synthesis-time parameters of the FPGA design.
struct FpgaBuildConfig {
  /// Router microarchitecture baked into the bitstream.
  noc::RouterConfig router;
  /// Entries per (router, VC) stimuli buffer; the simulation period is
  /// tied to this size to prevent underrun (§5.3). The default is sized
  /// so a 256-router provisioning fits the XC2V8000's BlockRAM budget at
  /// the paper's ~82 % utilization (Table 2).
  std::size_t stimuli_buffer_depth = 16;
  /// Entries per router output buffer (must cover one period; outputs are
  /// at most one flit per router per cycle).
  std::size_t output_buffer_depth = 32;
  /// Entries in each monitor buffer.
  std::size_t monitor_buffer_depth = 64;
  /// Largest network the BRAM budget was provisioned for.
  std::size_t max_routers = 256;
  /// Options of the sequential engine behind the router blocks (every
  /// scheduler gives bit-identical results).
  core::EngineOptions engine;
};

class FpgaDesign : public BusInterface {
 public:
  explicit FpgaDesign(const FpgaBuildConfig& build);
  ~FpgaDesign() override;

  /// Memory-mapped interface (the only way the ARM talks to the design).
  std::uint32_t read32(Addr addr) override;
  void write32(Addr addr, std::uint32_t value) override;

  const BusStats& bus_stats() const override { return bus_; }

  /// Convenience accessors used by tests and the timing model (these do
  /// not count as bus traffic).
  const FpgaBuildConfig& build() const { return build_; }
  bool configured() const { return sim_ != nullptr; }
  const noc::NetworkConfig& network() const;
  SystemCycle cycles_simulated() const { return cycles_simulated_; }
  DeltaCycle delta_cycles() const { return delta_cycles_; }
  std::uint64_t fpga_clock_cycles() const { return fpga_clock_cycles_; }
  std::uint64_t monitor_drops() const { return monitor_drops_; }
  bool output_overrun() const { return output_overrun_; }
  const core::SeqNocSimulation& simulation() const { return *sim_; }

  std::uint64_t stimuli_rejects() const { return stimuli_rejects_; }

  /// Observability (DESIGN.md §10). attach_metrics() registers the
  /// `fpga.*` counters (monitor-buffer samples/drops, stimuli rejects,
  /// cycle totals) and keeps them updated from step_one_cycle();
  /// nullptr detaches and restores the zero-overhead path.
  /// set_engine_observer() forwards a SimObserver to the underlying
  /// engine — effective immediately if configured, and re-applied on
  /// every (re)configure since kRegConfigure rebuilds the engine.
  void attach_metrics(obs::MetricsRegistry* registry);
  void set_engine_observer(core::SimObserver* observer);

 private:
  void configure();
  void run_period(std::size_t cycles);
  void step_one_cycle();
  std::uint32_t consumer_read(CyclicBuffer& buf, std::uint32_t& pops,
                              Addr sub);
  void consumer_ack(CyclicBuffer& buf, std::uint32_t& pops,
                    std::uint32_t value);

  FpgaBuildConfig build_;
  // Configuration registers (staged until kRegConfigure).
  std::uint32_t reg_width_ = 6;
  std::uint32_t reg_height_ = 6;
  std::uint32_t reg_topology_ = 0;
  std::uint32_t reg_sim_cycles_ = 0;
  std::uint32_t reg_link_probe_ = 0;
  std::uint32_t reg_guard_ = 0;
  std::uint32_t config_generation_ = 0;

  noc::NetworkConfig net_;
  std::unique_ptr<core::SeqNocSimulation> sim_;
  Lfsr32 rng_;
  BusStats bus_;

  // Buffers (sized at configure()).
  std::vector<CyclicBuffer> stimuli_;   // [router * num_vcs + vc]
  std::vector<CyclicBuffer> output_;    // [router]
  std::unique_ptr<CyclicBuffer> link_monitor_;
  std::unique_ptr<CyclicBuffer> access_monitor_;
  // Stimuli-interface state (counted in Table 1's 180 bits/router):
  std::vector<std::uint8_t> inject_credits_;  // [router * num_vcs + vc]
  std::vector<std::uint8_t> inject_rr_;       // [router]

  SystemCycle cycles_simulated_ = 0;
  DeltaCycle delta_cycles_ = 0;
  std::uint64_t fpga_clock_cycles_ = 0;
  std::uint64_t monitor_drops_ = 0;
  bool output_overrun_ = false;   // sticky; cleared by a W1C status write
  bool load_fault_ = false;       // sticky; set on a rejected guarded push
  std::uint64_t stimuli_rejects_ = 0;

  // Staged push: PUSH_TS latches, PUSH_DATA commits.
  std::vector<SystemCycle> staged_ts_;       // per stimuli port
  std::vector<std::uint8_t> staged_valid_;   // TS written since last DATA
  std::vector<std::uint32_t> stimuli_commits_;  // accepted words, cumulative

  // Consumer-side pop counters drive the TAG sequence numbers.
  std::vector<std::uint32_t> output_pops_;   // per router
  std::uint32_t link_monitor_pops_ = 0;
  std::uint32_t access_monitor_pops_ = 0;

  // Observability (null = detached; the hot path pays one branch).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_link_samples_ = nullptr;
  obs::Counter* m_link_drops_ = nullptr;
  obs::Counter* m_access_samples_ = nullptr;
  obs::Counter* m_access_drops_ = nullptr;
  obs::Counter* m_rejects_ = nullptr;
  obs::Counter* m_cycles_ = nullptr;
  obs::Counter* m_deltas_ = nullptr;
  obs::Counter* m_clk_ = nullptr;
  core::SimObserver* engine_observer_ = nullptr;
};

}  // namespace tmsim::fpga

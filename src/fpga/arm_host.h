// ArmHost: the software side of the simulator (§5.3) — the five-phase
// loop the ARM9 runs, talking to the FPGA design exclusively through the
// memory-mapped interface:
//
//   1. generate traffic into a stimuli table (timestamps = intended
//      injection cycles; randomness from the FPGA RNG or C rand()),
//   2. load the stimuli into the per-VC cyclic buffers ("All input
//      buffers are maximally filled unless no data is available"),
//   3. run one simulation period (fixed to the stimuli buffer size, to
//      prevent underrun),
//   4. retrieve the output buffers (and the monitor buffers),
//   5. analyze: reassemble packets, match them to the sent table,
//      accumulate latency statistics.
//
// Unconsumed stimuli stay pending and are re-offered next period ("all
// unconsumed data will eventually be written into the FPGA"); if the
// network refuses a VC's traffic for many consecutive periods the run is
// flagged overloaded and stopped (§5.3).
//
// The host is hardened against transport faults on the bus (see
// DESIGN.md, "Robustness"): it talks through the BusInterface
// abstraction, verifies configuration writes by read-back, tags stimuli
// pushes and checks output words against hardware-computed tags,
// checkpoints the pending-stimuli queues so a corrupted load burst can
// be replayed from the accepted prefix, bounds every busy poll with a
// watchdog, and heals corrupted RNG reads from its software mirror. A
// bounded fault rate therefore yields statistics bit-identical to a
// fault-free run; unrecoverable states end in a graceful abort with a
// FaultReport instead of a crash or a hang.
//
// Every bus access and software operation is counted per phase; the
// TimingModel turns the counts into Table 3/Table 4 numbers.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/stats.h"
#include "common/rng.h"
#include "core/engine.h"
#include "fpga/fault_report.h"
#include "fpga/fpga_design.h"
#include "fpga/timing_model.h"
#include "traffic/harness.h"

namespace tmsim::obs {
class ChromeTrace;
class MetricsRegistry;
}  // namespace tmsim::obs

namespace tmsim::fpga {

class ArmHost {
 public:
  struct Workload {
    double be_load = 0.0;
    std::vector<unsigned> be_vcs = {2, 3};
    std::size_t be_bytes = traffic::kBePacketBytes;
    std::vector<traffic::GtStream> gt_streams;
    /// §5.3 / §8: drawing randoms from the FPGA register vs C rand().
    bool rng_on_fpga = true;
    std::uint32_t rng_seed = 0x2bad5eedu;
    /// Consecutive periods a VC may refuse all traffic before the run is
    /// declared overloaded.
    std::size_t overload_periods = 50;
    /// Busy status polls tolerated per period before the watchdog trips.
    std::size_t watchdog_polls = 256;
    /// Bounded budget for every retry/replay loop in the host.
    std::size_t max_attempts = 8;
  };

  /// Hardened constructor: any bus stack (e.g. FaultyBus over
  /// FpgaDesign). The build configuration mirrors the synthesis
  /// parameters of the design at the bottom of the stack.
  ArmHost(BusInterface& bus, const FpgaBuildConfig& build, Workload workload);
  /// Convenience: drive a bare design directly.
  ArmHost(FpgaDesign& fpga, Workload workload);

  /// Writes the network geometry registers and commits the configuration,
  /// verifying every register by read-back. Throws on a bus that never
  /// converges within the retry budget.
  void configure_network(std::size_t width, std::size_t height,
                         noc::Topology topology);

  /// Runs simulation periods until at least `total_cycles` system cycles
  /// are simulated (or the network is overloaded, or the run aborts on an
  /// unrecoverable fault — see aborted()). Equivalent to
  /// run_incremental() followed by sync_hw_counters().
  void run(std::size_t total_cycles);

  /// run() without the trailing hardware-counter sync. Incremental
  /// drivers (the farm slicing a budget across preemptions) use this so
  /// the bus access sequence — and therefore any fault-injection stream
  /// keyed to it — is bit-identical however the budget is sliced; call
  /// sync_hw_counters() once when the whole budget is done.
  void run_incremental(std::size_t total_cycles);

  /// Reads back the hardware clock and fault counters (a handful of bus
  /// accesses). Part of every run(); incremental drivers call it once at
  /// end of job.
  void sync_hw_counters();

  /// Cooperative cancellation (DESIGN.md §13): when set, run() /
  /// run_incremental() consult the predicate before every simulation
  /// period and stop early when it returns true. The stop always lands
  /// on a period boundary — the same cut the farm's slicing-invariance
  /// contract already proves consistent — so a cancelled host can later
  /// be resumed (or finalized) without corrupting its mirrors. Pass an
  /// empty function to detach.
  void set_cancel_check(std::function<bool()> check) {
    cancel_check_ = std::move(check);
  }

  const PhaseCounts& counts() const { return counts_; }
  bool overloaded() const { return overloaded_; }

  /// True when run() stopped on an unrecoverable fault; the reason is in
  /// fault_report().abort_reason.
  bool aborted() const { return fault_report_.aborted; }
  const FaultReport& fault_report() const { return fault_report_; }
  /// Populated when the abort was a core convergence failure.
  const std::optional<core::ConvergenceReport>& convergence_report() const {
    return convergence_report_;
  }

  /// System cycles completed from the host's (verified) point of view.
  SystemCycle cycles_simulated() const { return cycles_; }

  /// Total latency (creation → tail delivery) per class.
  const analysis::StatAccumulator& latency(traffic::PacketClass cls) const {
    return latency_[static_cast<std::size_t>(cls)];
  }
  /// Access delay samples from the FPGA's monitor buffer (§5.2).
  const analysis::StatAccumulator& access_delay() const {
    return access_delay_;
  }
  std::uint64_t packets_delivered() const {
    return counts_.packets_analyzed;
  }

  /// Observability (DESIGN.md §10). set_timeline() attaches a
  /// Chrome-trace sink: run() then emits host.generate / host.load /
  /// host.simulate / host.retrieve wall-clock spans per period on tid 0,
  /// a synthetic host.analyze span (analysis runs inline during the
  /// drain; its time is accumulated and re-binned after retrieve), and
  /// instant events for fault episodes (load replays, ctrl retries,
  /// watchdog trips, spurious overruns). nullptr detaches.
  void set_timeline(obs::ChromeTrace* timeline) { timeline_ = timeline; }

  /// Publishes this run's PhaseCounts and FaultReport as `host.*`
  /// counters plus, via `timing`, the Table 3/4 phase seconds and
  /// shares as `host.phase.*_seconds` / `host.share.*` gauges — the
  /// registry-backed source bench/table4_profile reads.
  void export_metrics(obs::MetricsRegistry& registry,
                      const TimingModel& timing) const;

 private:
  struct SentRecord {
    traffic::PacketClass cls;
    SystemCycle created = 0;
    std::size_t flits = 0;
  };
  struct VcStream {  // per (router, vc)
    std::deque<TimedWord> pending;  // generated, not yet loaded
    std::size_t stalled_periods = 0;
    std::uint32_t commits = 0;  // mirror of the port's commit counter
    // Reassembly state on the receive side.
    bool receiving = false;
    std::uint32_t key = 0;
    std::size_t flits_seen = 0;
  };
  /// Which PhaseCounts bucket a bus access bills to. kVerify and kSync
  /// are the hardening overhead, kept out of the paper's phase buckets so
  /// Table 3/4 reproduction stays comparable to the seed.
  enum class Bucket { kGenerate, kLoad, kRetrieve, kVerify, kSync };

  std::uint32_t rd(Addr addr, Bucket b);
  void wr(Addr addr, std::uint32_t value, Bucket b);
  /// Reads until two consecutive reads agree (transient flips cannot
  /// produce the same wrong value twice in a row, in practice).
  std::uint32_t rd_agreed(Addr addr, Bucket b);
  /// Write + agreed read-back, retried within the attempt budget.
  void verified_write(Addr addr, std::uint32_t value, std::uint32_t expect);
  void abort_run(const std::string& reason);

  std::uint32_t next_random();
  double next_uniform();
  void generate_up_to(SystemCycle horizon);
  void emit_packet(traffic::PacketClass cls, std::size_t src, std::size_t dst,
                   unsigned vc, std::size_t payload_flits, SystemCycle when);
  void load_phase();
  bool load_port(std::size_t r, std::size_t vc);
  void simulate_phase(std::size_t period);
  void retrieve_phase();
  bool drain_port(Addr base, std::uint32_t& pops,
                  const std::function<void(std::uint32_t, std::uint32_t)>&
                      deliver);
  void deliver_output(std::size_t router, std::uint32_t ts,
                      std::uint32_t data);
  std::uint32_t flight_key(std::size_t dst, unsigned vc, unsigned seq) const;

  BusInterface& bus_;
  FpgaBuildConfig build_;
  Workload wl_;
  Lfsr32 sw_rng_;  ///< mirror of the FPGA LFSR (same seed ⇒ same traffic)
  noc::NetworkConfig net_;  ///< host-side mirror of the committed config
  bool configured_ = false;
  PhaseCounts counts_;
  std::vector<VcStream> streams_;           // [router * num_vcs + vc]
  std::vector<SystemCycle> be_next_;        // next BE packet time per node
  std::unordered_map<std::uint32_t, SentRecord> sent_;
  std::vector<std::uint16_t> next_seq_;     // per (dst * num_vcs + vc)
  std::vector<std::uint32_t> output_pops_;  // consumer-seq mirror per router
  std::uint32_t access_monitor_pops_ = 0;
  SystemCycle generated_horizon_ = 0;
  SystemCycle cycles_ = 0;                  // verified cycle-count mirror
  /// Period-size register mirror: 0 = not yet written. The register is
  /// written once per configuration, not once per run() call, so the bus
  /// access sequence is identical whether a budget is simulated in one
  /// run() or sliced into many (farm preemption relies on this).
  std::uint32_t sim_cycles_reg_ = 0;
  bool overloaded_ = false;
  FaultReport fault_report_;
  std::optional<core::ConvergenceReport> convergence_report_;
  analysis::StatAccumulator latency_[2];
  analysis::StatAccumulator access_delay_;

  // Observability (null = detached, zero overhead).
  obs::ChromeTrace* timeline_ = nullptr;
  double analyze_us_accum_ = 0.0;  ///< inline analyze time this period

  /// Cooperative cancellation predicate (empty = never cancelled).
  std::function<bool()> cancel_check_;
};

}  // namespace tmsim::fpga

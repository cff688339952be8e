// SimObserver implementations that connect the core engines to the
// three observability pillars (DESIGN.md §10):
//
//   EngineMetricsSink — harvests StepStats into a MetricsRegistry
//                       (counters + per-cycle histograms);
//   VcdTracer         — samples selected links / block state at every
//                       bank-swap commit point into a VCD waveform,
//                       either streaming or as a last-N-cycles ring
//                       that is flushed automatically on a
//                       ConvergenceReport abort;
//   MultiObserver     — fan-out, since Engine holds one observer slot.
//
// All of these are passive: attach with Engine::set_observer() (or
// SeqNocSimulation::set_observer / FpgaDesign::set_engine_observer) and
// detach by attaching nullptr. With nothing attached the engines skip
// every hook behind a null check — tests/obs/obs_off_test.cpp pins the
// resulting bit-identical behaviour.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/vcd.h"

namespace tmsim::obs {

/// Registry rows written (names under `engine.`):
///   counters   engine.cycles, engine.delta_cycles,
///              engine.re_evaluations, engine.link_changes,
///              engine.convergence_failures,
///              engine.sched.delta_evals, engine.sched.skipped_blocks
///   histogram  engine.deltas_per_cycle
class EngineMetricsSink : public core::SimObserver {
 public:
  explicit EngineMetricsSink(MetricsRegistry& registry);

  void on_cycle_commit(const core::Engine& eng,
                       const core::StepStats& stats) override;
  void on_convergence_failure(const core::Engine& eng,
                              const core::ConvergenceReport& report) override;

 private:
  Counter& cycles_;
  Counter& delta_cycles_;
  Counter& re_evaluations_;
  Counter& link_changes_;
  Counter& convergence_failures_;
  Counter& sched_delta_evals_;
  Counter& sched_skipped_blocks_;
  HistogramMetric& deltas_per_cycle_;
};

struct VcdTracerOptions {
  /// Links whose names match are dumped (glob per obs::glob_match).
  std::string link_glob = "*";
  /// Blocks whose names match get a `<name>.state` signal with the full
  /// serialized state word. Empty = no block-state signals.
  std::string block_glob = "";
  /// 0 streams every cycle to the output as it happens. N > 0 buffers
  /// the last N cycles in memory instead and writes them only on
  /// flush() — or automatically when the engine reports a convergence
  /// failure, so the window leading into an oscillation is captured
  /// with zero steady-state output.
  std::size_t ring_cycles = 0;
};

class VcdTracer : public core::SimObserver {
 public:
  /// Signal selection happens here, against `model`; the engine
  /// attached later must run this same model. `os` must outlive the
  /// tracer. In streaming mode the header is written immediately.
  VcdTracer(const core::SystemModel& model, std::ostream& os,
            VcdTracerOptions options = {});

  void on_cycle_commit(const core::Engine& eng,
                       const core::StepStats& stats) override;
  void on_convergence_failure(const core::Engine& eng,
                              const core::ConvergenceReport& report) override;

  /// Ring mode: writes header + buffered window now (idempotent; the
  /// convergence-failure path calls this). Streaming mode: no-op.
  void flush();

  std::size_t num_signals() const { return num_signals_; }
  std::size_t ring_size() const { return ring_.size(); }

 private:
  struct Sample {
    std::uint64_t cycle;
    std::vector<BitVector> values;  // aligned with selection order
    std::uint64_t delta_cycles;
  };

  void sample(const core::Engine& eng, const core::StepStats& stats,
              std::uint64_t cycle);
  void write_sample_stream(const Sample& s);
  void declare_signals();

  const core::SystemModel& model_;
  std::ostream& os_;
  VcdTracerOptions options_;
  std::vector<core::LinkId> links_;    // selected links
  std::vector<core::BlockId> blocks_;  // selected blocks (state_width > 0)
  std::size_t num_signals_ = 0;
  std::unique_ptr<VcdWriter> writer_;
  std::vector<VcdWriter::SignalId> signal_ids_;
  VcdWriter::SignalId delta_sig_ = 0;
  std::deque<Sample> ring_;
  bool flushed_ = false;
};

/// Fans one Engine observer slot out to several sinks, in order.
class MultiObserver : public core::SimObserver {
 public:
  void add(core::SimObserver* obs);

  void on_cycle_commit(const core::Engine& eng,
                       const core::StepStats& stats) override;
  void on_convergence_failure(const core::Engine& eng,
                              const core::ConvergenceReport& report) override;

 private:
  std::vector<core::SimObserver*> sinks_;
};

}  // namespace tmsim::obs

#include "obs/engine_sinks.h"

#include <algorithm>

namespace tmsim::obs {

// ---------------------------------------------------------------------------
// EngineMetricsSink
// ---------------------------------------------------------------------------

EngineMetricsSink::EngineMetricsSink(MetricsRegistry& registry)
    : cycles_(registry.counter("engine.cycles")),
      delta_cycles_(registry.counter("engine.delta_cycles")),
      re_evaluations_(registry.counter("engine.re_evaluations")),
      link_changes_(registry.counter("engine.link_changes")),
      convergence_failures_(registry.counter("engine.convergence_failures")),
      // Scheduler rows (DESIGN.md §17). delta_evals mirrors
      // engine.delta_cycles under a scheduler-specific name so sched
      // dashboards read evals vs skips side by side.
      sched_delta_evals_(registry.counter("engine.sched.delta_evals")),
      sched_skipped_blocks_(registry.counter("engine.sched.skipped_blocks")),
      // Per-cycle delta cycles: bins of 1, up to 256 per cycle before
      // the overflow bin — generous for §6-scale workloads.
      deltas_per_cycle_(
          registry.histogram("engine.deltas_per_cycle", 1.0, 256)) {}

void EngineMetricsSink::on_cycle_commit(const core::Engine& eng,
                                        const core::StepStats& stats) {
  (void)eng;
  cycles_.add(1);
  delta_cycles_.add(stats.delta_cycles);
  re_evaluations_.add(stats.re_evaluations);
  link_changes_.add(stats.link_changes);
  sched_delta_evals_.add(stats.delta_cycles);
  sched_skipped_blocks_.add(stats.skipped_blocks);
  deltas_per_cycle_.observe(static_cast<double>(stats.delta_cycles));
}

void EngineMetricsSink::on_convergence_failure(
    const core::Engine& eng, const core::ConvergenceReport& report) {
  (void)eng;
  (void)report;
  convergence_failures_.add(1);
}

// ---------------------------------------------------------------------------
// VcdTracer
// ---------------------------------------------------------------------------

VcdTracer::VcdTracer(const core::SystemModel& model, std::ostream& os,
                     VcdTracerOptions options)
    : model_(model), os_(os), options_(std::move(options)) {
  for (core::LinkId l = 0; l < model.num_links(); ++l) {
    const core::LinkInfo& info = model.link(l);
    if (info.width >= 1 && glob_match(options_.link_glob, info.name)) {
      links_.push_back(l);
    }
  }
  if (!options_.block_glob.empty()) {
    for (core::BlockId b = 0; b < model.num_blocks(); ++b) {
      const core::BlockInstance& blk = model.block(b);
      if (blk.logic->state_width() >= 1 &&
          glob_match(options_.block_glob, blk.name)) {
        blocks_.push_back(b);
      }
    }
  }
  num_signals_ = links_.size() + blocks_.size();
  if (options_.ring_cycles == 0) {
    declare_signals();  // streaming: header up front
  }
}

void VcdTracer::declare_signals() {
  writer_ = std::make_unique<VcdWriter>(os_);
  signal_ids_.clear();
  signal_ids_.reserve(num_signals_);
  for (const core::LinkId l : links_) {
    signal_ids_.push_back(
        writer_->add_signal(model_.link(l).name, model_.link(l).width));
  }
  for (const core::BlockId b : blocks_) {
    signal_ids_.push_back(writer_->add_signal(
        model_.block(b).name + ".state", model_.block(b).logic->state_width()));
  }
  // Sub-timescale bookkeeping: how much settling work the cycle took.
  delta_sig_ = writer_->add_signal("sim.delta_cycles", 32);
  writer_->write_header();
}

void VcdTracer::write_sample_stream(const Sample& s) {
  writer_->begin_time(s.cycle);
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    writer_->change(signal_ids_[i], s.values[i]);
  }
  writer_->change_u64(delta_sig_,
                      std::min<std::uint64_t>(s.delta_cycles, 0xffffffffull));
}

void VcdTracer::sample(const core::Engine& eng, const core::StepStats& stats,
                       std::uint64_t cycle) {
  Sample s;
  s.cycle = cycle;
  s.delta_cycles = stats.delta_cycles;
  s.values.reserve(num_signals_);
  for (const core::LinkId l : links_) {
    s.values.push_back(eng.link_value(l));
  }
  for (const core::BlockId b : blocks_) {
    s.values.push_back(eng.block_state(b));
  }
  if (options_.ring_cycles == 0) {
    write_sample_stream(s);
    return;
  }
  ring_.push_back(std::move(s));
  while (ring_.size() > options_.ring_cycles) {
    ring_.pop_front();
  }
}

void VcdTracer::on_cycle_commit(const core::Engine& eng,
                                const core::StepStats& stats) {
  // cycle() has already advanced past the committed cycle; timestamp
  // the sample with the cycle that just finished.
  sample(eng, stats, eng.cycle() == 0 ? 0 : eng.cycle() - 1);
}

void VcdTracer::on_convergence_failure(const core::Engine& eng,
                                       const core::ConvergenceReport& report) {
  if (options_.ring_cycles == 0) {
    return;  // streaming dump already holds the history
  }
  // Capture the unsettled in-flight values as one final sample past the
  // ring — the oscillating links are visibly toggling right up to the
  // abort point.
  core::StepStats stats;
  stats.delta_cycles = report.delta_cycles;
  sample(eng, stats, report.cycle);
  flush();
}

void VcdTracer::flush() {
  if (options_.ring_cycles == 0 || flushed_) {
    return;
  }
  flushed_ = true;
  declare_signals();
  for (const Sample& s : ring_) {
    write_sample_stream(s);
  }
  os_.flush();
}

// ---------------------------------------------------------------------------
// MultiObserver
// ---------------------------------------------------------------------------

void MultiObserver::add(core::SimObserver* obs) {
  if (obs) {
    sinks_.push_back(obs);
  }
}

void MultiObserver::on_cycle_commit(const core::Engine& eng,
                                    const core::StepStats& stats) {
  for (core::SimObserver* s : sinks_) {
    s->on_cycle_commit(eng, stats);
  }
}

void MultiObserver::on_convergence_failure(
    const core::Engine& eng, const core::ConvergenceReport& report) {
  for (core::SimObserver* s : sinks_) {
    s->on_convergence_failure(eng, report);
  }
}

}  // namespace tmsim::obs

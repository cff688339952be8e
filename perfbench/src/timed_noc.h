// Bench-side timing decorators for the traced run. Nothing here reaches
// into src/: the engine is timed from outside, through its public
// interfaces.
//
//  - TimedBlock wraps a SimBlock and times every evaluate() call (the
//    `core` layer's evaluation share); it also keeps a deterministic
//    sample of real router evaluations for the `noc` replay.
//  - TimedNocSimulation is a NocSimulation over a rewired copy of
//    build_noc_model()'s netlist in which every RouterBlock is wrapped in
//    a TimedBlock, driven by the same SequentialSimulator the
//    SeqNocSimulation facade uses.
//  - StepTap wraps any NocSimulation, times step() and accumulates the
//    engine's StepStats (the `traffic` / scheduler split).
//  - replay_samples() re-runs the sampled evaluations through the router
//    logic and state codec one stage at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "core/engine.h"
#include "core/noc_block.h"
#include "core/sequential_simulator.h"
#include "noc/network.h"

namespace perfbench {

/// One captured router evaluation: inputs and the state word it produced.
struct EvalSample {
  const tmsim::core::RouterBlock* router = nullptr;
  tmsim::BitVector old_state;
  std::vector<tmsim::BitVector> inputs;
  tmsim::BitVector new_state;
};

/// Evaluation clock shared by every TimedBlock of one engine.
struct EvalLog {
  std::uint64_t evals = 0;
  std::uint64_t ns = 0;
  /// Capture every `sample_every`-th evaluation (0 = never), up to
  /// `max_samples` captures.
  std::uint64_t sample_every = 0;
  std::size_t max_samples = 0;
  std::vector<EvalSample> samples;
};

class TimedBlock : public tmsim::core::SimBlock {
 public:
  TimedBlock(std::shared_ptr<const tmsim::core::SimBlock> inner, EvalLog* log);

  std::size_t state_width() const override { return inner_->state_width(); }
  std::size_t num_inputs() const override { return inner_->num_inputs(); }
  std::size_t input_width(std::size_t p) const override {
    return inner_->input_width(p);
  }
  std::size_t num_outputs() const override { return inner_->num_outputs(); }
  std::size_t output_width(std::size_t p) const override {
    return inner_->output_width(p);
  }
  tmsim::BitVector reset_state() const override { return inner_->reset_state(); }
  void evaluate(const tmsim::BitVector& old_state,
                std::span<const tmsim::BitVector> inputs,
                tmsim::BitVector& new_state,
                std::span<tmsim::BitVector> outputs) const override;
  std::string type_name() const override { return inner_->type_name(); }
  bool output_depends_on_input(std::size_t out, std::size_t in) const override {
    return inner_->output_depends_on_input(out, in);
  }

 private:
  std::shared_ptr<const tmsim::core::SimBlock> inner_;
  const tmsim::core::RouterBlock* router_;  // inner_ as a router, or null
  EvalLog* log_;
};

/// SeqNocSimulation's behaviour over a timed copy of the NoC netlist.
class TimedNocSimulation : public tmsim::noc::NocSimulation {
 public:
  TimedNocSimulation(const tmsim::noc::NetworkConfig& net,
                     tmsim::core::SchedulerKind scheduler, EvalLog* log);
  TimedNocSimulation(const TimedNocSimulation&) = delete;
  TimedNocSimulation& operator=(const TimedNocSimulation&) = delete;

  const tmsim::noc::NetworkConfig& config() const override { return net_; }
  void set_local_input(std::size_t r, const tmsim::noc::LinkForward& f) override;
  void step() override;
  tmsim::noc::LinkForward local_output(std::size_t r) const override;
  tmsim::noc::CreditWires local_input_credits(std::size_t r) const override;
  tmsim::BitVector router_state_word(std::size_t r) const override;
  tmsim::SystemCycle cycle() const override { return sim_->cycle(); }

  const tmsim::core::Engine& engine() const { return *sim_; }
  const tmsim::core::StepStats& last_step_stats() const { return last_stats_; }
  void reset();

 private:
  tmsim::noc::NetworkConfig net_;
  tmsim::core::NocModel noc_;      // original netlist: link ids, routers
  tmsim::core::SystemModel timed_;  // the rewired copy the engine runs
  std::unique_ptr<tmsim::core::SequentialSimulator> sim_;
  tmsim::core::StepStats last_stats_;
  std::vector<std::size_t> dirty_inputs_;
};

/// Totals a StepTap accumulates.
struct StepTotals {
  std::uint64_t steps = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t delta_cycles = 0;
  std::uint64_t re_evaluations = 0;
  std::uint64_t skipped_blocks = 0;
  std::uint64_t idle_cycles = 0;  ///< cycles that skipped every block
  std::uint64_t settle_rounds = 0;
  std::uint64_t cut_publishes = 0;
};

/// Forwarding NocSimulation that times step() and sums StepStats.
class StepTap : public tmsim::noc::NocSimulation {
 public:
  using StatsFn = std::function<const tmsim::core::StepStats&()>;
  StepTap(tmsim::noc::NocSimulation& inner, StatsFn stats,
          std::size_t num_blocks);

  const tmsim::noc::NetworkConfig& config() const override {
    return inner_.config();
  }
  void set_local_input(std::size_t r, const tmsim::noc::LinkForward& f) override {
    inner_.set_local_input(r, f);
  }
  void step() override;
  tmsim::noc::LinkForward local_output(std::size_t r) const override {
    return inner_.local_output(r);
  }
  tmsim::noc::CreditWires local_input_credits(std::size_t r) const override {
    return inner_.local_input_credits(r);
  }
  tmsim::BitVector router_state_word(std::size_t r) const override {
    return inner_.router_state_word(r);
  }
  tmsim::SystemCycle cycle() const override { return inner_.cycle(); }

  StepTotals totals;

 private:
  tmsim::noc::NocSimulation& inner_;
  StatsFn stats_;
  std::size_t num_blocks_;
};

/// Per-stage replay cost of the sampled evaluations (ns per evaluation).
struct ReplayResult {
  double decode_ns = 0.0;
  double g_ns = 0.0;
  double f_ns = 0.0;
  double encode_ns = 0.0;
  std::size_t samples = 0;
  std::size_t mismatches = 0;  ///< replayed state word != real output
};

/// Replays every sample through deserialize_into → compute_grants +
/// compute_outputs → compute_next_state_into → serialize_into on one
/// scratch state (as RouterBlock::evaluate does), once; each stage's
/// figure is its mean per sample, net of the clock's own cost.
ReplayResult replay_samples(const std::vector<EvalSample>& samples,
                            const tmsim::noc::RouterConfig& cfg);

}  // namespace perfbench

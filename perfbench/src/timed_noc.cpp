#include "timed_noc.h"

#include <algorithm>

#include "noc/router_logic.h"
#include "report.h"

namespace perfbench {

using tmsim::BitVector;
namespace core = tmsim::core;
namespace noc = tmsim::noc;

// --- TimedBlock -------------------------------------------------------------

TimedBlock::TimedBlock(std::shared_ptr<const core::SimBlock> inner,
                       EvalLog* log)
    : inner_(std::move(inner)),
      router_(dynamic_cast<const core::RouterBlock*>(inner_.get())),
      log_(log) {}

void TimedBlock::evaluate(const BitVector& old_state,
                          std::span<const BitVector> inputs,
                          BitVector& new_state,
                          std::span<BitVector> outputs) const {
  const std::uint64_t t0 = now_ns();
  inner_->evaluate(old_state, inputs, new_state, outputs);
  log_->ns += now_ns() - t0;
  ++log_->evals;
  // Capture after the clock stopped, so a sample costs the engine's step
  // time (a few hundred ns once per sample_every evals), not eval time.
  if (router_ != nullptr && log_->sample_every != 0 &&
      log_->evals % log_->sample_every == 0 &&
      log_->samples.size() < log_->max_samples) {
    log_->samples.push_back(EvalSample{
        router_, old_state,
        std::vector<BitVector>(inputs.begin(), inputs.end()), new_state});
  }
}

// --- TimedNocSimulation -----------------------------------------------------

namespace {

// Same blocks, links and bindings as `src` (so link ids carry over), with
// every block wrapped in a TimedBlock.
void rewire(const core::SystemModel& src, EvalLog* log, core::SystemModel& dst) {
  for (core::BlockId b = 0; b < src.num_blocks(); ++b) {
    dst.add_block(std::make_shared<TimedBlock>(src.block(b).logic, log),
                  src.block(b).name);
  }
  for (core::LinkId l = 0; l < src.num_links(); ++l) {
    const core::LinkInfo& info = src.link(l);
    dst.add_link(info.name, info.width, info.kind);
  }
  for (core::LinkId l = 0; l < src.num_links(); ++l) {
    const core::LinkInfo& info = src.link(l);
    if (info.writer) {
      dst.bind_output(info.writer->block, info.writer->port, l);
    }
    for (const core::Endpoint& r : info.readers) {
      dst.bind_input(r.block, r.port, l);
    }
  }
  dst.finalize();
}

}  // namespace

TimedNocSimulation::TimedNocSimulation(const noc::NetworkConfig& net,
                                       core::SchedulerKind scheduler,
                                       EvalLog* log)
    : net_(net), noc_(core::build_noc_model(net_)) {
  rewire(noc_.model, log, timed_);
  sim_ = std::make_unique<core::SequentialSimulator>(
      timed_, core::SchedulePolicy::kDynamic, /*max_evals_per_block=*/64,
      /*schedule_seed=*/1, scheduler);
}

void TimedNocSimulation::set_local_input(std::size_t r,
                                         const noc::LinkForward& f) {
  BitVector v(noc::kForwardBits);
  v.set_field(0, noc::kForwardBits, noc::encode_forward(f));
  sim_->set_external_input(noc_.local_fwd_in.at(r), v);
  dirty_inputs_.push_back(r);
}

void TimedNocSimulation::step() {
  last_stats_ = sim_->step();
  const BitVector idle(noc::kForwardBits);
  for (std::size_t r : dirty_inputs_) {
    sim_->set_external_input(noc_.local_fwd_in[r], idle);
  }
  dirty_inputs_.clear();
}

noc::LinkForward TimedNocSimulation::local_output(std::size_t r) const {
  return noc::decode_forward(static_cast<std::uint32_t>(
      sim_->link_value(noc_.local_fwd_out.at(r))
          .get_field(0, noc::kForwardBits)));
}

noc::CreditWires TimedNocSimulation::local_input_credits(std::size_t r) const {
  return noc::decode_credit(
      static_cast<std::uint32_t>(
          sim_->link_value(noc_.local_credit_out.at(r))
              .get_field(0, net_.router.num_vcs)),
      net_.router.num_vcs);
}

BitVector TimedNocSimulation::router_state_word(std::size_t r) const {
  return sim_->block_state(r);
}

void TimedNocSimulation::reset() {
  core::reset_engine(*sim_);
  const BitVector idle(noc::kForwardBits);
  for (const core::LinkId l : noc_.local_fwd_in) {
    sim_->set_external_input(l, idle);
  }
  dirty_inputs_.clear();
}

// --- StepTap ----------------------------------------------------------------

StepTap::StepTap(noc::NocSimulation& inner, StatsFn stats,
                 std::size_t num_blocks)
    : inner_(inner), stats_(std::move(stats)), num_blocks_(num_blocks) {}

void StepTap::step() {
  const std::uint64_t t0 = now_ns();
  inner_.step();
  totals.step_ns += now_ns() - t0;
  const core::StepStats& s = stats_();
  ++totals.steps;
  totals.delta_cycles += s.delta_cycles;
  totals.re_evaluations += s.re_evaluations;
  totals.skipped_blocks += s.skipped_blocks;
  totals.idle_cycles += s.skipped_blocks == num_blocks_ ? 1 : 0;
  totals.settle_rounds += s.settle_rounds;
  totals.cut_publishes += s.cut_publishes;
}

// --- replay -----------------------------------------------------------------

namespace {

// RouterBlock::evaluate's link decode: forward groups and the four grid
// credit groups (the local echo credit depends on G and is added later).
noc::RouterInputs decode_inputs(const std::vector<BitVector>& inputs,
                                std::size_t num_vcs) {
  noc::RouterInputs in;
  for (std::size_t p = 0; p < noc::kPorts; ++p) {
    in.fwd_in[p] = noc::decode_forward(
        static_cast<std::uint32_t>(inputs[p].get_field(0, noc::kForwardBits)));
  }
  for (std::size_t o = 1; o < noc::kPorts; ++o) {
    in.credit_in[o] = noc::decode_credit(
        static_cast<std::uint32_t>(
            inputs[noc::kPorts + o - 1].get_field(0, num_vcs)),
        num_vcs);
  }
  return in;
}

// Cost of one now_ns() call, subtracted from every timed stage.
double clock_cost_ns() {
  constexpr int kReads = 20000;
  const std::uint64_t t0 = now_ns();
  std::uint64_t sink = 0;
  for (int i = 0; i < kReads; ++i) {
    sink += now_ns();
  }
  const std::uint64_t t1 = now_ns();
  return sink == 0 ? 0.0 : static_cast<double>(t1 - t0) / kReads;
}

}  // namespace

ReplayResult replay_samples(const std::vector<EvalSample>& samples,
                            const noc::RouterConfig& cfg) {
  ReplayResult out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  const noc::RouterStateCodec codec(cfg);
  noc::RouterState state(cfg);
  noc::RouterState next(cfg);
  BitVector word(codec.state_bits());
  std::vector<noc::RouterInputs> inputs;
  inputs.reserve(samples.size());
  for (const EvalSample& s : samples) {
    inputs.push_back(decode_inputs(s.inputs, cfg.num_vcs));
  }
  const double clock = clock_cost_ns();
  std::uint64_t t_dec = 0, t_g = 0, t_f = 0, t_enc = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const EvalSample& s = samples[i];
    const noc::RouterEnv& env = s.router->env();
    const std::uint64_t t0 = now_ns();
    codec.deserialize_into(s.old_state, state);
    const std::uint64_t t1 = now_ns();
    const noc::Grants grants = noc::compute_grants(state, env);
    const noc::RouterOutputs outs = noc::compute_outputs(state, grants, env);
    const std::uint64_t t2 = now_ns();
    noc::RouterInputs in = inputs[i];
    const noc::LinkForward& delivered =
        outs.fwd_out[static_cast<std::size_t>(noc::Port::kLocal)];
    if (delivered.valid) {
      in.credit_in[static_cast<std::size_t>(noc::Port::kLocal)].set(
          delivered.vc);
    }
    const std::uint64_t t3 = now_ns();
    noc::compute_next_state_into(state, grants, in, env, next);
    const std::uint64_t t4 = now_ns();
    codec.serialize_into(next, word);
    const std::uint64_t t5 = now_ns();
    t_dec += t1 - t0;
    t_g += t2 - t1;
    t_f += t4 - t3;
    t_enc += t5 - t4;
    if (word != s.new_state) {
      ++out.mismatches;
    }
  }
  const auto n = static_cast<double>(samples.size());
  auto per_sample = [&](std::uint64_t total) {
    return std::max(0.0, static_cast<double>(total) / n - clock);
  };
  out.decode_ns = per_sample(t_dec);
  out.g_ns = per_sample(t_g);
  out.f_ns = per_sample(t_f);
  out.encode_ns = per_sample(t_enc);
  return out;
}

}  // namespace perfbench

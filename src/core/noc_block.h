// RouterBlock: the case-study router packaged as a SimBlock, and
// SeqNocSimulation: the whole NoC wired into a SystemModel and executed by
// the core engine, the paper's sequential method — i.e. the paper's FPGA
// simulator architecture expressed over the engine.
//
// Port convention of RouterBlock:
//   inputs  0..4 — forward link arriving at input port p (21 bits)
//   inputs  5..8 — credit wires arriving for output ports NORTH..WEST
//                  (num_vcs bits each)
//   outputs 0..4 — forward link driven from output port p (21 bits)
//   outputs 5..8 — credit wires returned upstream for input ports
//                  NORTH..WEST (num_vcs bits each)
//   output  9    — credit wires for the local input queues (to the NI)
//
// The local *output* port's credit return is not a link: the network
// interface consumes delivered flits unconditionally (the FPGA's output
// cyclic buffer always accepts, §5.2), so the echo credit is computed
// inside evaluate() — the stimuli interface is evaluated in the same delta
// cycle as its router, exactly as in the FPGA where both live in one
// state-memory word (Table 1 counts stimuli-interface registers in the
// router's 2112 bits).
//
// All inter-router links are combinational (§4.2). The engine keeps each
// router's registers resident as a native noc::RouterState (make_state),
// and step() runs the shared router logic on it directly — G and F
// together, one delta cycle — with no state word in between. The word is
// the FPGA's state-memory format (§5.2): RouterStateCodec builds it at the
// architectural boundary (digests, checkpoints, Table 1), and evaluate()
// is that boundary's word view: decode → step → encode.
#pragma once

#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/sim_block.h"
#include "core/system_model.h"
#include "noc/network.h"
#include "noc/router_logic.h"

namespace tmsim::core {

class RouterBlock : public SimBlock {
 public:
  /// `codec` is shared across all routers of a homogeneous network (one
  /// logic implementation, many state words — the paper's F'_{i,j}).
  RouterBlock(std::shared_ptr<const noc::RouterStateCodec> codec,
              noc::RouterEnv env);

  std::size_t state_width() const override;
  std::size_t num_inputs() const override { return 9; }
  std::size_t input_width(std::size_t port) const override;
  std::size_t num_outputs() const override { return 10; }
  std::size_t output_width(std::size_t port) const override;
  BitVector reset_state() const override;
  void evaluate(const BitVector& old_state,
                std::span<const BitVector> inputs, BitVector& new_state,
                std::span<BitVector> outputs) const override;
  std::unique_ptr<BlockState> make_state() const override;
  void step(const BlockState& old, std::span<const std::uint64_t> in,
            BlockState& next, std::span<std::uint64_t> out) const override;
  void drive(const BlockState& old, std::span<const std::uint64_t> in,
             std::span<std::uint64_t> out) const override;
  std::string type_name() const override { return "noc_router"; }

  /// §4.2 Fig. 4: every router output — forwarded flits, credit returns,
  /// local delivery, the NI echo credit — is G(state): computed from the
  /// registered state word alone (compute_grants / compute_outputs take
  /// only the decoded state). Inputs feed F (next state) exclusively, so
  /// the static schedule may cut every in→out edge; this is what makes
  /// the NoC's combinational link graph acyclic at build time.
  bool output_depends_on_input(std::size_t, std::size_t) const override {
    return false;
  }

  const noc::RouterEnv& env() const { return env_; }

  /// step() on plain router states: the typed delta cycle the engine
  /// runs, exposed for tests and benches.
  void step_state(const noc::RouterState& old,
                  std::span<const std::uint64_t> in, noc::RouterState& next,
                  std::span<std::uint64_t> out) const;

 private:
  /// F, the output words (none for an empty `out`) and the NI echo,
  /// given G of `s`.
  void step_with_g(const noc::RouterState& s, const noc::Grants& grants,
                   const noc::RouterOutputs& outs,
                   std::span<const std::uint64_t> in, noc::RouterState& next,
                   std::span<std::uint64_t> out) const;

  std::shared_ptr<const noc::RouterStateCodec> codec_;
  noc::RouterEnv env_;
};

/// The SystemModel of a whole NoC plus its external link handles.
struct NocModel {
  SystemModel model;
  // Per router index:
  std::vector<LinkId> local_fwd_in;      ///< testbench → router (21 bits)
  std::vector<LinkId> local_fwd_out;     ///< router → testbench (21 bits)
  std::vector<LinkId> local_credit_out;  ///< router → testbench: credits
                                         ///< for the local input queues
};

/// Builds one RouterBlock per router and wires every inter-router forward
/// and credit group as a combinational link; local-port links are external.
/// `net` must outlive the returned model (RouterBlocks keep a pointer).
NocModel build_noc_model(const noc::NetworkConfig& net);

/// NocSimulation facade over the core engine, the paper's method on the
/// calling thread. Every EngineOptions::scheduler gives bit-identical
/// results to DirectNocSimulation, enforced by
/// tests/integration/seq_equivalence_test.cpp.
class SeqNocSimulation : public noc::NocSimulation {
 public:
  explicit SeqNocSimulation(const noc::NetworkConfig& net,
                            const EngineOptions& opts = {});

  const noc::NetworkConfig& config() const override { return net_; }
  void set_local_input(std::size_t r, const noc::LinkForward& f) override;
  void step() override;
  /// Forwards to Engine::advance_idle; skips nothing while a local input
  /// is driven (step() would reset it to idle).
  std::uint64_t advance_idle(std::uint64_t max) override;
  noc::LinkForward local_output(std::size_t r) const override;
  noc::CreditWires local_input_credits(std::size_t r) const override;
  BitVector router_state_word(std::size_t r) const override;
  SystemCycle cycle() const override { return sim_.cycle(); }

  /// Engine access for delta-cycle statistics (§6) and white-box tests.
  const Engine& engine() const { return sim_; }
  const StepStats& last_step_stats() const { return last_stats_; }
  /// Cumulative delta cycles since power-on/restore — sampled before and
  /// after a run slice this yields the slice's convergence cost, which
  /// the farm attaches to its `farm.slice` trace spans (DESIGN.md §15).
  DeltaCycle total_delta_cycles() const { return sim_.total_delta_cycles(); }

  /// Observability (DESIGN.md §10): attaches a SimObserver to the
  /// underlying engine. nullptr detaches; only call between step()s.
  void set_observer(SimObserver* obs) { sim_.set_observer(obs); }

  /// Session checkpointing (DESIGN.md §11). checkpoint() snapshots the
  /// committed router states between steps; restore() loads a snapshot —
  /// possibly taken from a *different* SeqNocSimulation over an equal
  /// NetworkConfig, even one with another schedule —
  /// verifies its digest, rebases the cycle counters, and idles every
  /// local input so no stale stimulus from the previous tenant leaks into
  /// the first resumed cycle. reset() returns the simulation to power-on
  /// state for reuse by the next job.
  EngineCheckpoint checkpoint() const { return save_checkpoint(sim_); }
  void restore(const EngineCheckpoint& ck);
  void reset();

 private:
  void idle_all_inputs();
  noc::NetworkConfig net_;
  NocModel noc_;
  Engine sim_;
  StepStats last_stats_;
  std::vector<std::size_t> dirty_inputs_;
};

}  // namespace tmsim::core

// RouterBlock: the case-study router packaged as a SimBlock, and
// SeqNocSimulation: the whole NoC wired into a SystemModel and executed by
// the core engine (one shard by default: the paper's sequential method) —
// i.e. the paper's FPGA simulator architecture expressed over the engine.
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
// All inter-router links are combinational (§4.2). Block state is the
// serialized RouterState word; evaluation deserializes the old word, runs
// the shared router logic (G and F together, one delta cycle), and
// serializes the new word — the exact data path of the FPGA's router block
// between its state-memory read and write (§5.2).
#pragma once

#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/sim_block.h"
#include "core/system_model.h"
#include "noc/network.h"

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

 private:
  std::shared_ptr<const noc::RouterStateCodec> codec_;
  noc::RouterEnv env_;
  // Scratch state reused across evaluations (the FPGA works on one wide
  // word in place; mallocing per delta cycle would misstate the method's
  // host-side cost). evaluate() stays pure — these hold no information
  // across calls — but it is not re-entrant: engines are single-threaded.
  mutable noc::RouterState scratch_old_;
  mutable noc::RouterState scratch_new_;
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

/// NocSimulation facade over the core engine. EngineOptions::num_shards
/// == 1 (the default) is the sequential engine, the paper's method on the
/// calling thread; > 1 splits the same model over worker threads —
/// bit-identical results, enforced by
/// tests/integration/sharded_equivalence_test.cpp.
class SeqNocSimulation : public noc::NocSimulation {
 public:
  explicit SeqNocSimulation(const noc::NetworkConfig& net,
                            SchedulePolicy policy = SchedulePolicy::kDynamic);
  SeqNocSimulation(const noc::NetworkConfig& net, const EngineOptions& opts);

  const noc::NetworkConfig& config() const override { return net_; }
  void set_local_input(std::size_t r, const noc::LinkForward& f) override;
  void step() override;
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
  /// NetworkConfig, even one with another shard count or schedule —
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

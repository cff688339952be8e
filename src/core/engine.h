// Engine: the simulation engine — the paper's §4 method: evaluate the
// partitions (blocks) of a parallel synchronous system one at a time on
// one sequential processor, inline on the calling thread. Everything
// above the engine — the NoC facade, the FPGA design model, the
// differential test harness — runs this one class (SequentialSimulator
// only adds the paper's schedule names), and DirectNocSimulation is the
// independent reference it is proved against, so the schedule can never
// change what a workload observes, only how fast it runs.
//
// Shared vocabulary (§4): a *system cycle* is one clock cycle of the
// simulated parallel design; a *delta cycle* is one block evaluation and
// does not advance simulated time.
//
// EngineOptions::scheduler picks one of two schedules:
//
//  - kCompiled: an op program (analysis/static_schedule.h) over the
//    whole model, replayed every system cycle — the SCC-condensed
//    topological order of the blocks — with each op gated by a
//    quiescence test, so a block with no new input and a fixed-point
//    state costs one flag test. A kEval whose kDrive already made every
//    output final computes the next state only, writing no link. For a
//    registered-only model it is every block once in ascending ids, the
//    paper's §4.1 static schedule (Fig. 3), which is how
//    SequentialSimulator runs SchedulePolicy::kStatic (registered links
//    are never gated);
//  - kRoundRobin: the §4.2 pickup — every block unstable at cycle start,
//    non-stable blocks picked by the round-robin cursor, a changed link
//    write destabilizing its reader. A combinational link has one reader
//    (SystemModel::finalize), so the paper's HBR bits say no more than
//    the per-block unstable bitmap, which is all the engine keeps. A
//    re-evaluation of a block whose outputs depend on its state alone
//    computes the next state only: its first evaluation this cycle
//    already wrote those outputs.
//
// Both schedules run over one set of flat port tables built at
// construction. The engine holds one double-banked StateMemory (one bank
// pointer per block, flipped only for the blocks evaluated) and one
// LinkMemory (one word per link). A system cycle
// runs the schedule until every block is stable, then commits the
// evaluated blocks and flips the registered link banks. The final link
// fixed point — and therefore every register bit — does not depend on
// the schedule; tests/integration/sched_equivalence_test.cpp and
// seq_equivalence_test.cpp enforce this differentially against the
// round-robin reference and the struct-state DirectNocSimulation. Only
// StepStats may differ.
//
// Idle-cycle skip (DESIGN.md §17): a cycle in which the gated op program
// evaluated no block is the identity on both banks and every link, and
// so is every following cycle until something between steps changes an
// input, a block state, a link value or the scheduler flags. The engine
// then remembers it is *settled*, and advance_idle(k) moves the cycle
// counter k cycles in O(1) — notifying an attached observer once per
// skipped cycle, so metrics, VCD and the stats stream are exactly what k
// step() calls would have produced.
// The round-robin reference never settles.
//
// Divergence (an oscillating combinational loop) is bounded by a
// per-cycle evaluation budget: step() throws a ConvergenceError carrying
// a ConvergenceReport instead of looping forever.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static_schedule.h"
#include "common/bit_vector.h"
#include "common/error.h"
#include "common/types.h"
#include "core/link_memory.h"
#include "core/state_memory.h"
#include "core/system_model.h"

namespace tmsim::core {

/// The engine's one schedule setting: how the next block to evaluate is
/// found. The paper's §4.1 / §4.2 vocabulary (SchedulePolicy) lives only
/// in the SequentialSimulator adapter.
///
///  - kRoundRobin: the paper's Fig. 5 scheduler — a dense sweep over the
///    unstable bitmap. O(num_blocks) scan work per delta sweep even when
///    almost every block is stable. This is the reference semantics.
///  - kCompiled: static. A build-time analysis pass
///    (src/analysis/static_schedule.h) condenses the combinational link
///    graph's strongly-connected components, topologically orders the
///    condensation, and emits an op program replayed in order every
///    system cycle — no unstable bitmap for acyclic regions; true
///    combinational cycles settle in a scoped round-robin confined to
///    their SCC under the usual convergence budget. Each kEval/kDrive is gated by a quiescence predicate
///    (GSIM's "evaluate a node only when an input changed"): a block
///    with no pending input whose last evaluation was a state fixed
///    point would reproduce its outputs and state bit for bit, so it is
///    skipped, not evaluated. Results are bit-identical to kRoundRobin
///    by the engine contract (tests/integration/sched_equivalence_test.cpp
///    and `ctest -L compiled` prove it differentially); only StepStats
///    may differ.
enum class SchedulerKind : std::uint8_t {
  kRoundRobin = 0,
  kCompiled = 2,
  /// Legacy spelling: the event-driven worklist it named is gone, and
  /// the gated op program runs in its place. Kept only because the
  /// benchmark harness names it; the benchmark change that retires its
  /// worklist lane removes this line.
  kWorklist = kCompiled,
};

const char* scheduler_kind_name(SchedulerKind k);

/// Everything that configures an Engine, spelled once: the NoC facade,
/// the FPGA design model and the farm's JobSpec all carry this struct.
struct EngineOptions {
  /// Accepted and never read; the benchmark change that retires the
  /// benchmark's sharded4 lane (ROADMAP items 4/7) removes this line.
  std::size_t num_shards = 1;
  /// Rotates the starting round-robin cursor (dynamic schedule) to
  /// schedule_rr_offset(seed, num_blocks). Seed 1 is canonical (cursor
  /// 0). Results are schedule-independent, so this can only change
  /// StepStats.
  std::uint64_t seed = 1;
  /// The schedule: kRoundRobin is the dense §4.2 sweep, kCompiled the
  /// gated build-time op program. Bit-identical results in every case;
  /// only StepStats may differ.
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;
  /// Per-cycle evaluation budget per block; exceeding it means a
  /// non-settling combinational loop, reported as a ConvergenceError
  /// rather than an infinite loop.
  std::size_t max_evals_per_block = 64;

  friend bool operator==(const EngineOptions&, const EngineOptions&) = default;
};

/// Diagnostic snapshot taken when a schedule gives up on a system cycle:
/// which blocks were still unstable, which links changed most recently,
/// and how far past the budget the settling ran. A host can turn this
/// into a graceful run-abort with a useful report instead of an opaque
/// crash deep inside a multi-hour simulation.
struct ConvergenceReport {
  SystemCycle cycle = 0;          ///< system cycle that failed to settle
  DeltaCycle delta_cycles = 0;    ///< delta cycles spent in that cycle
  DeltaCycle limit = 0;           ///< the configured budget that was hit
  std::size_t num_blocks = 0;
  std::size_t link_changes = 0;   ///< changed link writes in that cycle
  /// Blocks still marked unstable when the budget ran out — the
  /// oscillating set (or its downstream cone).
  std::vector<BlockId> oscillating_blocks;
  /// Most recently changed links, newest first (bounded history).
  std::vector<LinkId> last_changed_links;

  std::string summary() const;
};

/// Thrown by the dynamic schedule instead of a bare Error; carries the
/// ConvergenceReport for the host to query.
class ConvergenceError : public ContextualError {
 public:
  explicit ConvergenceError(ConvergenceReport report);

  const ConvergenceReport& report() const { return report_; }

 private:
  ConvergenceReport report_;
};

/// Per-system-cycle accounting (the data behind §6's delta-cycle numbers).
struct StepStats {
  /// Block evaluations performed (== delta cycles).
  DeltaCycle delta_cycles = 0;
  /// delta_cycles minus the blocks evaluated at least once this cycle:
  /// the §4.2 re-evaluation overhead. For the round-robin scheduler the
  /// subtrahend is num_blocks; the op program's quiescence skip can
  /// evaluate fewer (see skipped_blocks).
  DeltaCycle re_evaluations = 0;
  /// Blocks the gated op program did not evaluate at all this cycle (0
  /// under round-robin).
  std::uint64_t skipped_blocks = 0;
  /// Combinational link writes whose value differed from memory.
  std::size_t link_changes = 0;
  /// Always 1 and always 0: the benchmark reads both, and the benchmark
  /// change of ROADMAP items 4/7 removes them.
  std::uint64_t settle_rounds = 1;
  std::uint64_t cut_publishes = 0;

  /// Whole-struct equality: what the checkpoint/restore stats-stream
  /// tests diff.
  friend bool operator==(const StepStats&, const StepStats&) = default;
};

class Engine;

/// Engine-side observability hooks (DESIGN.md §10). The default
/// implementation of every callback is a no-op, and the engine guards
/// each notification behind a null pointer check, so an unobserved run does
/// no extra work and is bit-identical to one on a build without the obs
/// subsystem (tests/obs/obs_off_test.cpp). Every callback arrives on the
/// thread that called Engine::step().
class SimObserver {
 public:
  virtual ~SimObserver();

  /// A system cycle committed (bank swap done); `eng.link_value()` /
  /// `eng.block_state()` see the newly committed values.
  virtual void on_cycle_commit(const Engine& eng, const StepStats& stats) {
    (void)eng;
    (void)stats;
  }

  /// Never called; the benchmark overrides it, and the benchmark change
  /// of ROADMAP items 4/7 removes it.
  virtual void on_superstep(std::size_t shard, std::uint64_t superstep,
                            std::uint64_t settle_ns,
                            std::uint64_t barrier_ns) {
    (void)shard;
    (void)superstep;
    (void)settle_ns;
    (void)barrier_ns;
  }

  /// The dynamic schedule is about to abandon the run; fires before the
  /// engine throws ConvergenceError, while link/state memories still
  /// hold the unsettled values (so a waveform ring can be flushed).
  virtual void on_convergence_failure(const Engine& eng,
                                      const ConvergenceReport& report) {
    (void)eng;
    (void)report;
  }
};

/// Scheduler-canonical bookkeeping carried alongside the architectural
/// state (DESIGN.md §17). None of it can affect results — that is the
/// engine contract — but it does affect *StepStats*: the round-robin
/// cursor persists across cycles, and the op program's quiescence flags
/// decide which blocks get skipped. A farm job
/// preempted on one worker and resumed on another must replay the same
/// scheduling stats stream it would have produced uninterrupted, so
/// checkpoints carry this too. Deliberately excluded from the checkpoint
/// digest: it is not architectural state.
///
/// The round-robin pickup saves its cursor, the op program (which moves
/// no cursor) its quiescence flags in block order. A restore into an
/// engine whose shape does not match — or from a default-constructed
/// (empty) snapshot — canonicalizes instead: the cursor back to its
/// seeded initial offset, flags cleared, so the first resumed cycle
/// evaluates every block.
struct SchedulerCheckpoint {
  std::optional<std::size_t> rr_cursor;  ///< round-robin pickup only
  std::vector<char> state_fixed;         ///< quiescence flags, block order
  std::vector<char> pending_input;       ///< quiescence flags, block order

  bool empty() const {
    return !rr_cursor && state_fixed.empty() && pending_input.empty();
  }
};

/// Point-in-time snapshot of an engine's committed architectural state
/// (DESIGN.md §11). Because every inter-block value of a combinational
/// model is recomputed from committed block state each cycle, the block
/// states plus the cycle counters are the *complete* resume state: an
/// engine restored from a checkpoint — any engine instance over the same
/// model, even one that just ran a different workload — continues
/// bit-identically. `digest` (FNV-1a over the serialized states) lets
/// the restore side verify integrity the same way the hardened host
/// verifies its commit-counter mirrors (§8).
struct EngineCheckpoint {
  SystemCycle cycle = 0;
  DeltaCycle total_delta_cycles = 0;
  std::vector<BitVector> block_states;  ///< one per block, model order
  std::uint64_t digest = 0;             ///< FNV-1a over the states
  SchedulerCheckpoint sched;            ///< stats-stream resume state
  /// Values of every combinational link a block writes or reads —
  /// internal links, primary outputs and external inputs (ids
  /// ascending, values parallel). The driven ones are derived state,
  /// recomputable from block states by one settle, but all are carried
  /// so the quiescence flags in `sched` stay sound after a restore: a
  /// skipped block does not rewrite its outputs, so the restored engine
  /// must already hold them, and its flags were proven against the
  /// external-input values it read. Guarded by its own digest;
  /// excluded from `digest`, which stays the pure architectural-state
  /// witness the differential harnesses compare.
  std::vector<LinkId> link_ids;
  std::vector<BitVector> link_values;
  std::uint64_t link_digest = 0;

  bool empty() const { return block_states.empty(); }
};

/// The engine over a finalized SystemModel. Every configuration must
/// agree bit-for-bit on block state and link values after every step();
/// only StepStats (how much work the schedule did) may differ.
class Engine {
 public:
  Engine(const SystemModel& model, const EngineOptions& opts);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Drives an external-input link (takes effect for the next step()).
  /// Throws ContextualError when the link is block-driven or when no
  /// block reads it (a silently ignored stimulus is always a test bug).
  /// The word form carries the link's bits low-first; bits above its
  /// width are rejected.
  void set_external_input(LinkId link, const BitVector& value);
  void set_external_input(LinkId link, std::uint64_t value);

  /// Current reader-visible value of any link. For combinational links
  /// this is the value driven during the last step(); for registered
  /// links, the value committed at its clock edge.
  BitVector link_value(LinkId link) const;
  /// The same value as one word (links are at most 64 bits).
  std::uint64_t link_word(LinkId link) const;

  /// Old-bank (committed) state word of a block, built from the block's
  /// resident state (the architectural boundary, DESIGN.md §7).
  BitVector block_state(BlockId block) const;

  /// Overwrites a block's committed state (reset preloading, testing).
  void load_block_state(BlockId block, const BitVector& value);

  /// Overwrites the reader-visible value of a combinational link
  /// (checkpoint restore), so the quiescence skip — which reuses link
  /// values across cycles — sees a self-consistent snapshot. Raises no
  /// change event.
  void load_link_value(LinkId link, const BitVector& value);

  /// Returns every link value to power-on zero (reset_engine). Only
  /// call between steps.
  void clear_links();

  /// Simulates one system cycle.
  StepStats step();

  /// Skips up to `max` provably idle cycles and returns how many it
  /// skipped: `max` when the last step() of the op program evaluated
  /// no block and nothing changed since (the engine is settled), else 0.
  /// A skipped cycle is bit-identical to a step(): the counters move as
  /// step() would move them (total_delta_cycles stays, an idle cycle
  /// has no delta cycles) and an attached observer sees one
  /// on_cycle_commit per skipped cycle with that idle cycle's stats.
  /// A changed set_external_input, load_block_state, load_link_value,
  /// clear_links, restore_scheduler_state or a failed cycle unsettles
  /// the engine. Only call between steps.
  std::uint64_t advance_idle(std::uint64_t max);

  /// Cycles advance_idle skipped so far (cumulative, never reset): how a
  /// test sees that a skip happened.
  std::uint64_t skipped_cycles() const { return skipped_cycles_; }

  SystemCycle cycle() const { return cycle_; }
  DeltaCycle total_delta_cycles() const { return total_delta_cycles_; }
  const SystemModel& model() const { return model_; }

  /// Overwrites the cycle/delta accounting — the resume half of the
  /// checkpoint machinery (restore_checkpoint below). Only call between
  /// steps. Does not touch state or link memory.
  void rebase(SystemCycle cycle, DeltaCycle total_deltas);

  /// Snapshot of the scheduler-canonical bookkeeping (cursor, quiescence
  /// flags).
  SchedulerCheckpoint scheduler_checkpoint() const;

  /// Restores (or canonicalizes, for an empty/mismatched snapshot) the
  /// scheduler bookkeeping. Only call between steps. Never affects
  /// results — only the StepStats stream.
  void restore_scheduler_state(const SchedulerCheckpoint& sched);

  /// Attaches an observer (nullptr detaches). Not owned; must outlive
  /// the engine or be detached first. The engine only touches it between
  /// steps, so attaching between step() calls is always safe.
  void set_observer(SimObserver* obs) { observer_ = obs; }

 protected:
  /// The op program replayed every system cycle, or null under the
  /// round-robin pickup.
  const analysis::CompiledSchedule* program() const {
    return program_ ? &*program_ : nullptr;
  }

  /// Called once per delta cycle with (system cycle, delta index within
  /// the cycle, evaluated block) — SequentialSimulator::set_trace_hook.
  std::function<void(SystemCycle, DeltaCycle, BlockId)> trace_;

 private:
  friend class SequentialSimulatorTestPeer;

  /// Settle context threaded through op-program evaluations while a
  /// CompiledScc settles.
  struct CompiledSettleCtx {
    const analysis::CompiledScc* scc = nullptr;
    std::uint32_t scc_id = 0;  ///< scc index + 1 (scc_of_link encoding)
    std::vector<char>* unstable = nullptr;  ///< per SCC member
    std::size_t* remaining = nullptr;
  };

  /// What one op-program evaluation computes.
  enum class OpEval : std::uint8_t {
    kStep,   ///< F and G: next state and every output (kEval, kSettle)
    kDrive,  ///< G only: every output, no next state (kDrive)
    kNext,   ///< F only: next state, outputs already final (marked kEval)
  };

  /// One block's row of the port tables.
  struct BlockPorts {
    const SimBlock* logic = nullptr;
    std::uint32_t in_begin = 0;   ///< first entry in in_links_
    std::uint32_t num_in = 0;
    std::uint32_t out_begin = 0;  ///< first entry in out_ports_
    std::uint32_t num_out = 0;
  };
  /// An output port: its link and the block a changed write of it
  /// destabilizes (round-robin) or wakes (op program) — the link's one
  /// combinational reader, or the spare slot num_blocks, which nothing
  /// consults, for a registered or unread link.
  struct OutPort {
    LinkId link = 0;
    BlockId wake = 0;
  };

  /// Runs the schedule to the cycle's link fixed point; false when the
  /// evaluation budget ran out (the cycle failed).
  bool settle_round_robin();
  bool run_program();
  bool settle_scc(std::uint32_t scc_index);
  /// One §4.2 pickup evaluation over the port tables: step() the block
  /// and destabilize the readers of changed outputs.
  void evaluate_block(BlockId b);
  /// One op-program evaluation over the port tables. `ctx` is non-null
  /// inside a kSettle op.
  template <OpEval kWhat>
  void evaluate_op(BlockId b, const CompiledSettleCtx* ctx);
  /// The delta-cycle accounting every evaluation ends with.
  void count_evaluation(BlockId b);
  /// Builds the failed cycle's report, notifies the observer and throws.
  [[noreturn]] void fail_cycle();

  /// Evaluating block b now would rewrite its outputs with the values
  /// they hold and reproduce its old state, so it may be skipped.
  bool quiescent(BlockId b) const {
    return skippable_[b] && state_fixed_[b] && !pending_input_[b];
  }

  const SystemModel& model_;
  EngineOptions opts_;
  /// The op program (kCompiled only), built once over the whole model;
  /// it alone keeps quiescence flags.
  std::optional<analysis::CompiledSchedule> program_;
  // The flat port tables both schedules run over, built once: per block
  // its logic and port ranges, then every input link id and every output
  // port, block after block.
  std::vector<BlockPorts> blocks_;
  std::vector<LinkId> in_links_;
  std::vector<OutPort> out_ports_;
  /// Round-robin only: no output depends on an input, so the outputs
  /// are G(old state), fixed all cycle.
  std::vector<char> outputs_state_only_;

  StateMemory state_;
  LinkMemory links_;

  // Unstable-block bookkeeping of the §4.2 pickup. The spare slot past
  // the blocks is set every cycle, so a change it takes counts nothing.
  std::vector<char> unstable_;
  std::size_t unstable_count_ = 0;
  std::size_t rr_next_ = 0;
  std::size_t rr_init_ = 0;  ///< seeded cursor; canonical restore target

  // First-evaluation accounting (per cycle): re_evaluations =
  // delta_cycles - first_evals, identically under every schedule, so a
  // cycle abandoned mid-settle cannot underflow.
  std::vector<char> evaluated_;
  std::size_t first_evals_ = 0;

  std::vector<char> scc_unstable_;  ///< kCompiled scratch, per settling SCC
  /// The SCC whose settle ran out of budget (its members are the
  /// report's oscillating blocks); null otherwise.
  const analysis::CompiledScc* tripped_scc_ = nullptr;

  // Quiescence flags of the gated op program (empty under round-robin).
  std::vector<char> skippable_;      ///< static: may ever be skipped
  std::vector<char> state_fixed_;    ///< last committing eval: old == new
  /// Input changed since that eval; one spare slot past the blocks
  /// takes the marks of outputs nobody reads and is never consulted.
  std::vector<char> pending_input_;

  StepStats stats_;  ///< the cycle in flight
  // Port words of the evaluation in flight, sized to the widest block.
  std::vector<std::uint64_t> in_words_;
  std::vector<std::uint64_t> out_words_;
  static constexpr std::size_t kChangedLinkHistory = 8;
  /// The op program stores every output write's link at the next free
  /// slot and advances only on a change, so the ring is twice the
  /// reported history: that store never overwrites a reported link.
  static constexpr std::size_t kChangedLinkRing = 2 * kChangedLinkHistory;
  std::array<LinkId, kChangedLinkRing> recent_changed_links_{};
  std::size_t recent_changed_count_ = 0;

  SimObserver* observer_ = nullptr;
  SystemCycle cycle_ = 0;
  DeltaCycle total_delta_cycles_ = 0;
  /// The last step() of the op program evaluated no block and nothing
  /// has changed since: every further cycle repeats it (advance_idle).
  bool settled_ = false;
  StepStats idle_stats_;  ///< that idle cycle's stats
  std::uint64_t skipped_cycles_ = 0;
};

/// FNV-1a digest over every block's committed state — the cheap
/// bit-identity witness the farm's differential tests and checkpoint
/// verification both use.
std::uint64_t engine_state_digest(const Engine& eng);

/// Captures the committed state of `eng` between steps. Requires every
/// *internal* link of the model to be combinational (true of all NoC
/// models): registered internal links carry state this snapshot does not
/// include, so checkpointing such a model throws instead of silently
/// resuming wrong.
EngineCheckpoint save_checkpoint(const Engine& eng);

/// Loads `ck` into `eng` (same model shape required) and rebases the
/// cycle counters. Verifies the digest after the load, and that a link
/// snapshot names exactly the links save_checkpoint emits for this model
/// (connected combinational links, ascending), throwing ContextualError
/// on any mismatch. `eng` may be a different instance — with a different
/// schedule — than the one that produced `ck`. External
/// inputs come back holding the values last driven before the snapshot;
/// drive them for the next cycle as usual.
void restore_checkpoint(Engine& eng, const EngineCheckpoint& ck);

/// Returns `eng` to its power-on state: every block reloaded with its
/// reset state, every link value zeroed, scheduling state
/// canonical, counters rebased
/// to zero — indistinguishable from a fresh engine, StepStats included.
/// This is what makes engine instances reusable across farm jobs.
void reset_engine(Engine& eng);

/// Initial round-robin cursor of a dynamic schedule for `schedule_seed`.
/// Seed 1 is canonical and maps to cursor 0 (the behaviour of every
/// paper figure); any other seed scatters the cursor via SplitMix so a
/// job-level seed perturbs the evaluation order — never the results.
std::size_t schedule_rr_offset(std::uint64_t schedule_seed,
                               std::size_t num_blocks);

}  // namespace tmsim::core

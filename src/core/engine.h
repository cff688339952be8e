// Engine: the simulation engine — the paper's §4 method (evaluate the
// partitions of a parallel synchronous system one at a time) over N
// shards, in Manticore's static bulk-synchronous style with the partition
// chosen by src/core/partition.h. The shard count is just a parameter:
// one shard is the sequential engine of the paper, inline on the calling
// thread with no worker threads and no cut links (SequentialSimulator is
// that case). Everything above the engine — the NoC facade, the FPGA
// design model, the differential test harness — runs this one class, and
// DirectNocSimulation is the independent reference it is proved against,
// so the shard count and the schedule can never change what a workload
// observes, only how fast it runs.
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
//    state costs one flag test. For a registered-only model it is every
//    block once in ascending ids, the paper's §4.1 static schedule
//    (Fig. 3), which is how SequentialSimulator runs
//    SchedulePolicy::kStatic (registered links are never gated);
//  - kRoundRobin: the §4.2 pickup — all HBR bits cleared at cycle start,
//    non-stable blocks picked by the round-robin cursor, a changed link
//    write destabilizing its readers.
//
// kCompiled runs on one shard only; more shards means the round-robin
// pickup, and the constructor rejects anything else.
//
// Every shard owns a shard-local double-banked StateMemory (one bank
// pointer per block, flipped only for the blocks evaluated) and a
// shard-local LinkMemory materializing exactly the links its blocks
// touch; one worker thread runs each shard beyond the first (the
// constructing thread runs shard 0). Cut links are *mirrored*: the
// writer's shard keeps the authoritative copy (for change detection),
// the reader's shard keeps a replica (for evaluation and its HBR bit),
// and the two are reconciled through a versioned single-writer mailbox
// slot at every superstep barrier.
//
// One system cycle is a sequence of *supersteps*:
//
//   phase A  every shard runs its schedule until locally stable,
//            publishing changed cut-link values;
//   barrier  (also agrees "did anyone diverge?");
//   phase B  every shard polls its incoming slots; a changed value is
//            written to the replica, the replica's HBR bit is cleared
//            and the reading block destabilized — exactly the §4.2 rule,
//            one superstep late;
//   barrier  (agrees "how many blocks are unstable anywhere?"),
//
// repeated until the global count is zero; one shard always needs
// exactly one. The final link fixed point — and therefore every register
// bit — does not depend on the shard count or the schedule;
// tests/integration/sharded_equivalence_test.cpp enforces this
// differentially against the one-shard engine and the struct-state
// DirectNocSimulation. Only StepStats may differ.
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
// Divergence (an oscillating combinational loop) is detected
// cooperatively: per-shard evaluation budgets and a superstep bound are
// reduced through the barrier so every worker abandons the cycle at the
// same point, and step() throws a ConvergenceError with the shards'
// reports merged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/static_schedule.h"
#include "common/bit_vector.h"
#include "common/error.h"
#include "common/types.h"
#include "core/link_memory.h"
#include "core/partition.h"
#include "core/shard_mailbox.h"
#include "core/state_memory.h"
#include "core/system_model.h"

namespace tmsim::core {

/// The engine's one schedule setting: how the next block to evaluate is
/// found. The paper's §4.1 / §4.2 vocabulary (SchedulePolicy) lives only
/// in the one-shard SequentialSimulator adapter. kCompiled needs a
/// one-shard engine.
///
///  - kRoundRobin: the paper's Fig. 5 scheduler — a dense sweep over the
///    unstable bitmap. O(num_blocks) scan work per delta sweep even when
///    almost every block is stable. This is the reference semantics.
///  - kCompiled: static. A build-time analysis pass
///    (src/analysis/static_schedule.h) condenses the combinational link
///    graph's strongly-connected components, topologically orders the
///    condensation, and emits an op program replayed in order every
///    system cycle — no HBR bookkeeping and no unstable bitmap for
///    acyclic regions; true combinational cycles settle in a scoped
///    round-robin confined to their SCC under the usual convergence
///    budget. Each kEval/kDrive is gated by a quiescence predicate
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
  /// Shard (worker) count; clamped to the model's block count. 1 is the
  /// sequential engine, run on the calling thread; more shards are
  /// min-cut regions (core/partition.h) run by the round-robin pickup.
  std::size_t num_shards = 1;
  /// Rotates each shard's starting round-robin cursor (dynamic
  /// schedule). Seed 1 is canonical (cursor 0 everywhere); shard 0 starts
  /// at schedule_rr_offset(seed, size), the other shards at
  /// domain-separated offsets. Results are schedule-independent, so this
  /// can only change StepStats.
  std::uint64_t seed = 1;
  /// The schedule: kRoundRobin is the dense §4.2 sweep, kCompiled the
  /// gated build-time op program, which needs num_shards == 1 (after the
  /// clamp); the constructor throws a ContextualError otherwise.
  /// Bit-identical results in every case; only StepStats may differ.
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;
  /// Per-cycle evaluation budget per block and superstep bound;
  /// exceeding either means a non-settling combinational loop, reported
  /// as a ConvergenceError rather than an infinite loop.
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
  /// Settle/exchange rounds the cycle took: 1 for the sequential
  /// schedules (one fixed-point search), the superstep count for the
  /// sharded engine.
  std::uint64_t settle_rounds = 1;
  /// Cut-link mailbox publishes (sharded engine only).
  std::uint64_t cut_publishes = 0;
  /// Barrier spin-loop iterations summed over shards (sharded only) —
  /// the wait-skew signal Manticore-style instrumentation watches.
  std::uint64_t barrier_spins = 0;

  /// Whole-struct equality: what the checkpoint/restore stats-stream
  /// tests diff (barrier_spins is wall-clock noise on the sharded
  /// engine, so those tests compare the deterministic fields).
  friend bool operator==(const StepStats&, const StepStats&) = default;
};

class Engine;

/// Engine-side observability hooks (DESIGN.md §10). The default
/// implementation of every callback is a no-op, and the engine guards
/// each notification behind a null pointer check, so an unobserved run does
/// no extra work and is bit-identical to one on a build without the obs
/// subsystem (tests/obs/obs_off_test.cpp).
///
/// Threading: on_cycle_commit / on_convergence_failure arrive on the
/// thread that called Engine::step(); on_superstep arrives on sharded
/// worker threads *concurrently* — implementations must synchronize.
class SimObserver {
 public:
  virtual ~SimObserver();

  /// A system cycle committed (bank swap done); `eng.link_value()` /
  /// `eng.block_state()` see the newly committed values.
  virtual void on_cycle_commit(const Engine& eng, const StepStats& stats) {
    (void)eng;
    (void)stats;
  }

  /// One sharded superstep (settle + exchange) finished on `shard`.
  /// `settle_ns` / `barrier_ns` split the superstep's wall time into
  /// useful evaluation and barrier wait.
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
/// The encoding is shard-count-agnostic: one cursor per shard (the
/// sequential engine has one; an op program moves none and saves none)
/// and the quiescence flags in model block order. A restore into an
/// engine whose shape does not match — or from a default-constructed
/// (empty) snapshot — canonicalizes instead: cursors back to their
/// seeded initial offsets, flags cleared, so the first resumed cycle
/// evaluates every block.
struct SchedulerCheckpoint {
  std::vector<std::size_t> rr_cursors;  ///< one per shard (pickup only)
  std::vector<char> state_fixed;        ///< quiescence flags, model order
  std::vector<char> pending_input;      ///< quiescence flags, model order

  bool empty() const {
    return rr_cursors.empty() && state_fixed.empty() && pending_input.empty();
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
  /// Throws ContextualError (context `shards`, `scheduler`) when more
  /// than one shard, after the clamp, comes with kCompiled.
  Engine(const SystemModel& model, const EngineOptions& opts);
  ~Engine();

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

  /// Returns every link value, HBR bit, cut-link replica and mailbox slot
  /// to power-on zero (reset_engine). Only call between steps.
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

  /// Snapshot of the scheduler-canonical bookkeeping (cursors, quiescence
  /// flags) in the shard-count-agnostic SchedulerCheckpoint encoding.
  SchedulerCheckpoint scheduler_checkpoint() const;

  /// Restores (or canonicalizes, for an empty/mismatched snapshot) the
  /// scheduler bookkeeping. Only call between steps. Never affects
  /// results — only the StepStats stream.
  void restore_scheduler_state(const SchedulerCheckpoint& sched);

  /// Attaches an observer (nullptr detaches). Not owned; must outlive
  /// the engine or be detached first. The engine only touches it between
  /// steps, so attaching between step() calls is always safe.
  void set_observer(SimObserver* obs) { observer_ = obs; }

  /// Cut links (== mailbox slots) under the active partition.
  std::size_t num_boundary_links() const { return boundary_links_; }
  /// Barrier-separated supersteps executed so far (at least one per
  /// system cycle; each superstep is a settle + exchange round).
  std::uint64_t total_supersteps() const { return total_supersteps_; }

 protected:
  /// The op program replayed every system cycle, or null under the
  /// round-robin pickup.
  const analysis::CompiledSchedule* program() const {
    return program_ ? &*program_ : nullptr;
  }

  /// Called once per delta cycle with (system cycle, delta index within
  /// the cycle, evaluated block), on the evaluating thread — set only on
  /// one-shard engines (SequentialSimulator::set_trace_hook).
  std::function<void(SystemCycle, DeltaCycle, BlockId)> trace_;

 private:
  friend class SequentialSimulatorTestPeer;

  struct InSlot {
    LinkId link = 0;
    std::size_t slot = 0;
    std::uint64_t last_seen = 0;
    LinkKind kind = LinkKind::kCombinational;
  };

  struct Shard {
    std::size_t index = 0;
    std::vector<BlockId> blocks;      // global ids
    std::vector<const BlockInstance*> inst;  // model entry per local block
    StateMemory state;                // indexed by local block index
    LinkMemory links;                 // global LinkIds, subset-materialized
    std::vector<InSlot> incoming;     // cut links read by this shard

    // Unstable-block bookkeeping (local block indices): the §4.2 pickup's
    // work set; under an op program, the report mirror of a settling SCC.
    std::vector<char> unstable;
    std::size_t unstable_count = 0;
    std::size_t rr_next = 0;
    std::size_t rr_init = 0;  // seeded cursor; canonical restore target

    // First-evaluation accounting (per cycle): the coordinator computes
    // re_evaluations = Σ delta_cycles - Σ first_evals, identically under
    // every schedule, so a cycle abandoned mid-settle cannot underflow.
    std::vector<char> evaluated;
    std::size_t first_evals = 0;

    std::vector<char> scc_unstable;  // kCompiled scratch, per settling SCC

    // Quiescence flags of the gated op program (one shard, so local
    // indices are block ids; empty under round-robin).
    std::vector<char> skippable;      // static: may ever be skipped
    std::vector<char> state_fixed;    // last committing eval: old == new
    std::vector<char> pending_input;  // input changed since that eval

    /// Evaluating block i now would rewrite its outputs with the values
    /// they hold and reproduce its old state, so it may be skipped.
    bool quiescent(std::size_t i) const {
      return skippable[i] && state_fixed[i] && !pending_input[i];
    }

    // Per-cycle outcome, read by the coordinator after the final barrier.
    StepStats stats;
    bool diverged = false;
    bool cycle_failed = false;
    std::size_t supersteps = 0;
    std::exception_ptr error;
    ConvergenceReport report;
    // Wall-clock mark for observer superstep timing (worker-local).
    std::uint64_t mark_ns = 0;

    // Port words of the evaluation in flight, sized to the widest block.
    std::vector<std::uint64_t> in_words;
    std::vector<std::uint64_t> out_words;
    static constexpr std::size_t kChangedLinkHistory = 8;
    std::array<LinkId, kChangedLinkHistory> recent_changed_links{};
    std::size_t recent_changed_count = 0;

    Shard(std::size_t idx, std::vector<BlockId> blks,
          const std::vector<const SimBlock*>& logic, const SystemModel& model,
          const std::vector<char>& materialize)
        : index(idx),
          blocks(std::move(blks)),
          state(logic),
          links(model, materialize) {}
  };

  /// Settle context threaded through op-program evaluations while a
  /// CompiledScc settles.
  struct CompiledSettleCtx {
    const analysis::CompiledScc* scc = nullptr;
    std::uint32_t scc_id = 0;  ///< scc index + 1 (scc_of_link encoding)
    std::vector<char>* unstable = nullptr;  ///< per SCC member
    std::size_t* remaining = nullptr;
  };

  void worker_main(std::size_t s);
  void run_cycle(std::size_t s);
  /// One evaluation: step() the block, or under a kDrive op (`drive`)
  /// run its G only. `ctx` is non-null inside a kSettle op.
  void evaluate_block(Shard& sh, std::size_t local,
                      const CompiledSettleCtx* ctx, bool drive = false);
  void run_program(Shard& sh);
  void settle_scc_local(Shard& sh, std::uint32_t scc_index);
  void settle_local(Shard& sh);
  void apply_incoming(Shard& sh);
  void destabilize_local(Shard& sh, BlockId global);
  bool inputs_all_read(const Shard& sh, BlockId global) const;
  void fill_report(Shard& sh);
  template <typename F>
  void guarded(Shard& sh, F&& f);
  /// Two aligned barrier syncs shared by every schedule: agree on
  /// failure after the evaluation phase, then exchange and agree on
  /// global instability. Returns false when the cycle must be abandoned.
  bool exchange_round(Shard& sh);

  const SystemModel& model_;
  EngineOptions opts_;
  /// The op program (kCompiled only), built once over the whole model;
  /// it alone keeps quiescence flags.
  std::optional<analysis::CompiledSchedule> program_;
  Partition part_;
  std::size_t boundary_links_ = 0;
  std::vector<std::size_t> local_of_;       // global block -> local index
  std::vector<std::size_t> link_home_;      // link -> authoritative shard
  std::vector<std::size_t> slot_of_link_;   // link -> mailbox slot (or npos)
  std::vector<char> link_comb_;             // link -> is combinational
  /// link -> its one reader block when combinational, ~0 otherwise.
  std::vector<BlockId> comb_reader_;

  std::unique_ptr<ShardMailbox> mailbox_;
  std::unique_ptr<ShardBarrier> barrier_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  bool stop_ = false;

  SimObserver* observer_ = nullptr;
  SystemCycle cycle_ = 0;
  DeltaCycle total_delta_cycles_ = 0;
  std::uint64_t total_supersteps_ = 0;
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
/// shard count or schedule — than the one that produced `ck`. External
/// inputs come back holding the values last driven before the snapshot;
/// drive them for the next cycle as usual.
void restore_checkpoint(Engine& eng, const EngineCheckpoint& ck);

/// Returns `eng` to its power-on state: every block reloaded with its
/// reset state, every link value and HBR bit (and, sharded, every replica
/// and mailbox slot) zeroed, scheduling state canonical, counters rebased
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

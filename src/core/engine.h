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
// Every shard owns a shard-local double-banked StateMemory and a
// shard-local LinkMemory materializing exactly the links its blocks
// touch; one worker thread runs each shard beyond the first (the
// constructing thread runs shard 0). Cut links are *mirrored*: the
// writer's shard keeps the authoritative copy (for change detection),
// the reader's shard keeps a replica (for evaluation and its HBR bit),
// and the two are reconciled through a versioned single-writer mailbox
// slot at every superstep barrier.
//
// The (SchedulePolicy, SchedulerKind) pair resolves once, at
// construction, to one of two per-shard schedules:
//
//  - an op program (analysis/static_schedule.h), replayed in full every
//    superstep: kStatic is the compiled program of a registered-only
//    model (every block once, ascending ids — Fig. 3), kTwoPhaseOracle
//    drives every block and then evaluates every block, and kDynamic ×
//    kCompiled is the SCC-condensed topological program;
//  - the §4.2 pickup (kDynamic × kRoundRobin / kWorklist): all HBR bits
//    cleared at cycle start, non-stable blocks picked by the round-robin
//    cursor or the event worklist, a changed link write destabilizing
//    its readers.
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

/// Which delta-cycle schedule the engine runs. Together with
/// SchedulerKind it resolves once, at engine construction, either to an
/// op program (analysis/static_schedule.h) the engine replays every
/// system cycle, or to the §4.2 round-robin/worklist pickup.
///
///  - kStatic (§4.1, Fig. 3): only for models whose internal boundaries
///    are all registered (checked at construction). The compiled program
///    of such a model evaluates every block once in ascending ids.
///  - kDynamic (§4.2, Fig. 5): the paper's method for combinational
///    boundaries; SchedulerKind picks how non-stable blocks are found.
///  - kTwoPhaseOracle: an ablation, not in the paper — the op program
///    "drive every block, then evaluate every block" (2 × num_blocks delta
///    cycles). Correct only for designs whose outputs depend on
///    registered state alone, such as the case-study router.
///
/// kStatic and kTwoPhaseOracle ignore SchedulerKind.
enum class SchedulePolicy : std::uint8_t {
  kStatic = 0,
  kDynamic = 1,
  kTwoPhaseOracle = 2,
};

/// How the dynamic (§4.2) schedule picks the next non-stable block.
///
///  - kRoundRobin: the paper's Fig. 5 scheduler — a dense sweep over the
///    unstable bitmap. O(num_blocks) scan work per delta sweep even when
///    almost every block is stable. This is the reference semantics.
///  - kWorklist: event-driven. Clearing a link's HBR bit pushes exactly
///    that link's readers onto a dedup'd FIFO worklist (the reader index
///    is the link topology itself), so pickup is O(1) per event. A
///    per-system-cycle quiescence fast path additionally skips blocks
///    with no pending input activity whose last evaluation was a state
///    fixed point: re-evaluating such a block would reproduce last
///    cycle's outputs and state bit-for-bit, so not evaluating it at all
///    is invisible. Results are bit-identical to kRoundRobin by the
///    engine contract (tests/integration/sched_equivalence_test.cpp
///    proves it differentially); only StepStats may differ.
///  - kCompiled: static. A build-time analysis pass
///    (src/analysis/static_schedule.h) condenses the combinational link
///    graph's strongly-connected components, topologically orders the
///    condensation, and emits an op program executed verbatim every
///    system cycle by the same interpreter that runs kStatic and
///    kTwoPhaseOracle — no HBR bookkeeping, no unstable bitmap, no
///    worklist for acyclic regions; true combinational cycles settle in
///    a scoped worklist confined to their SCC under the usual
///    convergence budget. Bit-identical to the dynamic schedulers by
///    the same differential proof (plus the 3-way `ctest -L compiled`
///    suite); only StepStats may differ.
enum class SchedulerKind : std::uint8_t {
  kRoundRobin = 0,
  kWorklist = 1,
  kCompiled = 2,
};

const char* scheduler_kind_name(SchedulerKind k);

/// Everything that configures an Engine, spelled once: the NoC facade,
/// the FPGA design model and the farm's JobSpec all carry this struct.
struct EngineOptions {
  SchedulePolicy policy = SchedulePolicy::kDynamic;
  /// Shard (worker) count; clamped to the model's block count. 1 is the
  /// sequential engine, run on the calling thread.
  std::size_t num_shards = 1;
  /// Block-to-shard assignment policy when num_shards > 1.
  PartitionPolicy partition = PartitionPolicy::kMinCutGreedy;
  /// Rotates each shard's starting round-robin cursor (dynamic
  /// schedule). Seed 1 is canonical (cursor 0 everywhere); shard 0 starts
  /// at schedule_rr_offset(seed, size), the other shards at
  /// domain-separated offsets. Results are schedule-independent, so this
  /// can only change StepStats.
  std::uint64_t seed = 1;
  /// Non-stable-block pickup of the dynamic schedule: kRoundRobin is the
  /// dense §4.2 sweep, kWorklist the event-driven scheduler with the
  /// quiescence fast path, kCompiled a per-shard build-time op program
  /// (cut links are treated as registered edges: each superstep re-runs
  /// the full shard program against the latest replica values until the
  /// exchange reports quiescence). Bit-identical results in every case;
  /// only StepStats may differ.
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
  /// subtrahend is num_blocks; the worklist scheduler's quiescence fast
  /// path can evaluate fewer (see skipped_blocks).
  DeltaCycle re_evaluations = 0;
  /// Blocks the worklist scheduler's quiescence fast path did not
  /// evaluate at all this cycle (0 under round-robin).
  std::uint64_t skipped_blocks = 0;
  /// Deepest worklist occupancy seen this cycle (0 under round-robin).
  std::uint64_t worklist_high_water = 0;
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
/// cursor persists across cycles, and the worklist's quiescence flags
/// decide which blocks get skipped. A farm job preempted on one worker
/// and resumed on another must replay the same scheduling stats stream
/// it would have produced uninterrupted, so checkpoints carry this too.
/// Deliberately excluded from the checkpoint digest: it is not
/// architectural state.
///
/// The encoding is shard-count-agnostic: one cursor per shard (the
/// sequential engine has one) and the quiescence flags in model block
/// order. A restore into an engine whose shape does not match — or from
/// a default-constructed (empty) snapshot — canonicalizes instead:
/// cursors back to their seeded initial offsets, flags cleared. An op
/// program (static, two-phase, compiled) has no entry here at all: it
/// carries zero dynamic scheduling state, which is what makes its
/// preemption trivially invisible.
struct SchedulerCheckpoint {
  std::vector<std::size_t> rr_cursors;  ///< one per shard
  std::vector<char> state_fixed;        ///< worklist flags, model order
  std::vector<char> pending_input;      ///< worklist flags, model order

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
  /// Committed values of the internal combinational links (ids ascending,
  /// values parallel). Derived state — recomputable from block states by
  /// one settle — but carried so the worklist quiescence flags in `sched`
  /// stay sound after a restore: a skipped block does not rewrite its
  /// outputs, so the restored engine must already hold them. Guarded by
  /// its own digest; excluded from `digest`, which stays the pure
  /// architectural-state witness the differential harnesses compare.
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
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Drives an external-input link (takes effect for the next step()).
  /// Throws ContextualError when the link is block-driven or when no
  /// block reads it (a silently ignored stimulus is always a test bug).
  void set_external_input(LinkId link, const BitVector& value);

  /// Current reader-visible value of any link. For combinational links
  /// this is the value driven during the last step(); for registered
  /// links, the value committed at its clock edge.
  const BitVector& link_value(LinkId link) const;

  /// Old-bank (committed) state of a block.
  const BitVector& block_state(BlockId block) const;

  /// Overwrites a block's committed state (reset preloading, testing).
  void load_block_state(BlockId block, const BitVector& value);

  /// Overwrites the reader-visible value of an internal combinational
  /// link (checkpoint restore), so the worklist quiescence skip — which
  /// reuses link values across cycles — sees a self-consistent snapshot.
  void load_link_value(LinkId link, const BitVector& value);

  /// Simulates one system cycle.
  StepStats step();

  SystemCycle cycle() const { return cycle_; }
  DeltaCycle total_delta_cycles() const { return total_delta_cycles_; }
  const SystemModel& model() const { return model_; }

  /// Overwrites the cycle/delta accounting — the resume half of the
  /// checkpoint machinery (restore_checkpoint below). Only call between
  /// steps. Does not touch state or link memory.
  void rebase(SystemCycle cycle, DeltaCycle total_deltas);

  /// Snapshot of the scheduler-canonical bookkeeping (cursors, quiescence
  /// flags) in the shard-count-agnostic SchedulerCheckpoint encoding;
  /// empty under an op program.
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
  /// The op program shard `s` replays each superstep, or null under the
  /// round-robin/worklist pickup.
  const analysis::CompiledSchedule* program(std::size_t s) const {
    return shards_[s]->program ? &*shards_[s]->program : nullptr;
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
    StateMemory state;                // indexed by local block index
    LinkMemory links;                 // global LinkIds, subset-materialized
    std::vector<InSlot> incoming;     // cut links read by this shard

    // Unstable-block bookkeeping (local block indices): the §4.2 pickup's
    // work set, the worklist's dedup flag, and under an op program the
    // exchange's "received a changed cut value" vote.
    std::vector<char> unstable;
    std::size_t unstable_count = 0;
    std::size_t rr_next = 0;
    std::size_t rr_init = 0;  // seeded cursor; canonical restore target

    // First-evaluation accounting (per cycle): the coordinator computes
    // re_evaluations = Σ delta_cycles - Σ first_evals, identically under
    // every schedule, so a cycle abandoned mid-settle cannot underflow.
    std::vector<char> evaluated;
    std::size_t first_evals = 0;

    // Per-shard op program (static, two-phase, compiled): the model's
    // link graph restricted to this shard's blocks. Cut links fall out of
    // the tracked set (one endpoint is elsewhere), so the program treats
    // them exactly like registered edges — pre-final for the superstep.
    std::optional<analysis::CompiledSchedule> program;
    std::vector<char> scc_unstable;  // scratch, sized per settling SCC

    // Worklist-scheduler bookkeeping (local indices; empty otherwise).
    // The FIFO persists across the cycle's supersteps: phase B pushes
    // cross-shard events onto it for the next phase A.
    std::vector<std::size_t> worklist;  // consumed prefix [0, wl_head)
    std::size_t wl_head = 0;
    std::vector<char> skippable;        // static: all links combinational
    std::vector<char> state_fixed;      // last committed eval: old == new
    std::vector<char> pending_input;    // input changed since last eval

    // Per-cycle outcome, read by the coordinator after the final barrier.
    StepStats stats;
    bool diverged = false;
    bool cycle_failed = false;
    std::size_t supersteps = 0;
    std::exception_ptr error;
    ConvergenceReport report;
    // Wall-clock mark for observer superstep timing (worker-local).
    std::uint64_t mark_ns = 0;

    // Scratch reused across evaluations (hot path).
    std::vector<BitVector> in_scratch;
    std::vector<BitVector> out_scratch;
    BitVector state_scratch{0};
    BitVector poll_scratch{0};
    static constexpr std::size_t kChangedLinkHistory = 8;
    std::array<LinkId, kChangedLinkHistory> recent_changed_links{};
    std::size_t recent_changed_count = 0;

    Shard(std::size_t idx, std::vector<BlockId> blks,
          std::vector<std::size_t> widths, const SystemModel& model,
          const std::vector<char>& materialize)
        : index(idx),
          blocks(std::move(blks)),
          state(widths),
          links(model, materialize) {}
  };

  /// Settle context threaded through op-program evaluations while a
  /// CompiledScc runs its scoped worklist.
  struct CompiledSettleCtx {
    const analysis::CompiledScc* scc = nullptr;
    std::uint32_t scc_id = 0;  ///< scc index + 1 (scc_of_link encoding)
    std::vector<char>* unstable = nullptr;  ///< per SCC member
    std::size_t* remaining = nullptr;
  };

  void worker_main(std::size_t s);
  void run_cycle(std::size_t s);
  /// One evaluation. `ctx` is non-null inside a kSettle op.
  void evaluate_block(Shard& sh, std::size_t local,
                      const CompiledSettleCtx* ctx);
  void run_program(Shard& sh);
  void settle_scc_local(Shard& sh, std::uint32_t scc_index);
  void settle_local(Shard& sh);
  void seed_worklist_cycle(Shard& sh);
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
  /// The dynamic pickup is the worklist (resolved from opts_ once; false
  /// under an op program and under the round-robin sweep).
  bool worklist_ = false;
  Partition part_;
  std::size_t boundary_links_ = 0;
  std::vector<std::size_t> local_of_;       // global block -> local index
  std::vector<std::size_t> link_home_;      // link -> authoritative shard
  std::vector<std::size_t> slot_of_link_;   // link -> mailbox slot (or npos)

  std::unique_ptr<ShardMailbox> mailbox_;
  std::unique_ptr<ShardBarrier> barrier_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  bool stop_ = false;

  SimObserver* observer_ = nullptr;
  SystemCycle cycle_ = 0;
  DeltaCycle total_delta_cycles_ = 0;
  std::uint64_t total_supersteps_ = 0;
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
/// (internal combinational links, ascending), throwing ContextualError on
/// any mismatch. `eng` may be a different instance — with a different
/// shard count or schedule — than the one that produced `ck`; external
/// inputs are NOT restored (drive them for the next cycle as usual).
void restore_checkpoint(Engine& eng, const EngineCheckpoint& ck);

/// Returns `eng` to its power-on state: every block reloaded with its
/// reset state, counters rebased to zero. This is what makes engine
/// instances reusable across farm jobs.
void reset_engine(Engine& eng);

/// Initial round-robin cursor of a dynamic schedule for `schedule_seed`.
/// Seed 1 is canonical and maps to cursor 0 (the behaviour of every
/// paper figure); any other seed scatters the cursor via SplitMix so a
/// job-level seed perturbs the evaluation order — never the results.
std::size_t schedule_rr_offset(std::uint64_t schedule_seed,
                               std::size_t num_blocks);

}  // namespace tmsim::core

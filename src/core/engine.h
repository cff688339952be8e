// Engine: the contract every host-side simulation engine fulfils.
//
// The paper's engine is the sequential time-multiplexed simulator of §4.
// It is implemented once, as ShardedSimulator: N shards evaluated in
// bulk-synchronous supersteps, of which one shard on the calling thread
// (SequentialSimulator) is the paper's method. Everything above the
// engine — the NoC facade, the FPGA design model, the differential test
// harness — talks to this interface, and DirectNocSimulation is the
// independent reference it is proved against, so the shard count and
// the schedule can never change what a workload observes, only how fast
// it runs.
//
// Shared vocabulary (§4): a *system cycle* is one clock cycle of the
// simulated parallel design; a *delta cycle* is one block evaluation and
// does not advance simulated time.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/error.h"
#include "common/types.h"
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
/// implementation of every callback is a no-op, and engines guard each
/// notification behind a null pointer check, so an unobserved run does
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

/// Point-in-time snapshot of an engine's committed architectural state
/// (DESIGN.md §11). Because every inter-block value of a combinational
/// model is recomputed from committed block state each cycle, the block
/// states plus the cycle counters are the *complete* resume state: an
/// engine restored from a checkpoint — any engine instance over the same
/// model, even one that just ran a different workload — continues
/// bit-identically. `digest` (FNV-1a over the serialized states) lets
/// the restore side verify integrity the same way the hardened host
/// verifies its commit-counter mirrors (§8).
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

/// Abstract engine over a finalized SystemModel. All engines must agree
/// bit-for-bit on block state and link values after every step(); only
/// StepStats (how much work the schedule did) may differ.
class Engine {
 public:
  virtual ~Engine();

  /// Drives an external-input link (takes effect for the next step()).
  /// Throws ContextualError when the link is block-driven or when no
  /// block reads it (a silently ignored stimulus is always a test bug).
  virtual void set_external_input(LinkId link, const BitVector& value) = 0;

  /// Current reader-visible value of any link. For combinational links
  /// this is the value driven during the last step(); for registered
  /// links, the value committed at its clock edge.
  virtual const BitVector& link_value(LinkId link) const = 0;

  /// Old-bank (committed) state of a block.
  virtual const BitVector& block_state(BlockId block) const = 0;

  /// Overwrites a block's committed state (reset preloading, testing).
  virtual void load_block_state(BlockId block, const BitVector& value) = 0;

  /// Overwrites the reader-visible value of an internal combinational
  /// link (checkpoint restore). The default is a no-op, which is correct
  /// for engines that recompute every link from committed state each
  /// cycle; engines with cross-cycle fast paths that *reuse* link values
  /// (the worklist quiescence skip) must override so a restored snapshot
  /// is self-consistent.
  virtual void load_link_value(LinkId link, const BitVector& value) {
    (void)link;
    (void)value;
  }

  /// Simulates one system cycle.
  virtual StepStats step() = 0;

  virtual SystemCycle cycle() const = 0;
  virtual DeltaCycle total_delta_cycles() const = 0;
  virtual SchedulePolicy policy() const = 0;
  virtual const SystemModel& model() const = 0;

  /// Overwrites the cycle/delta accounting — the resume half of the
  /// checkpoint machinery (restore_checkpoint below). Only call between
  /// steps. Does not touch state or link memory.
  virtual void rebase(SystemCycle cycle, DeltaCycle total_deltas) = 0;

  /// Snapshot of the scheduler-canonical bookkeeping (cursor, quiescence
  /// flags) in the engine-agnostic SchedulerCheckpoint encoding. The
  /// default (an empty snapshot) is correct for engines with no dynamic
  /// scheduling state.
  virtual SchedulerCheckpoint scheduler_checkpoint() const { return {}; }

  /// Restores (or canonicalizes, for an empty/mismatched snapshot) the
  /// scheduler bookkeeping. Only call between steps. Never affects
  /// results — only the StepStats stream.
  virtual void restore_scheduler_state(const SchedulerCheckpoint& sched) {
    (void)sched;
  }

  /// Attaches an observer (nullptr detaches). Not owned; must outlive
  /// the engine or be detached first. Engines only touch it between
  /// steps, so attaching between step() calls is always safe.
  void set_observer(SimObserver* obs) { observer_ = obs; }
  SimObserver* observer() const { return observer_; }

 protected:
  SimObserver* observer_ = nullptr;
};

/// Builds the widths vector StateMemory needs from a model.
std::vector<std::size_t> block_state_widths(const SystemModel& model);

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
/// cycle counters. Verifies the digest after the load and throws
/// ContextualError on mismatch. `eng` may be a different instance — or a
/// different Engine subclass — than the one that produced `ck`; external
/// inputs are NOT restored (drive them for the next cycle as usual).
void restore_checkpoint(Engine& eng, const EngineCheckpoint& ck);

/// Returns `eng` to its power-on state: every block reloaded with its
/// reset state, counters rebased to zero. This is what makes engine
/// instances reusable across farm jobs.
void reset_engine(Engine& eng);

/// Shared validation for Engine::set_external_input (the engines must
/// reject exactly the same misuses to stay substitutable).
void check_external_input(const SystemModel& model, LinkId link);

/// Degenerate-topology gate for the worklist scheduler, applied by the
/// engine at construction and re-checked (per shard) after
/// partitioning. Rejects, with a structured error instead of a hang at
/// the delta budget:
///  - combinational self-loop links (a block reading its own
///    combinational output), which the event-driven pickup would chase
///    in a tight requeue loop;
///  - external-input combinational links with an empty reader set: a
///    stimulus on such a link is an event that wakes nobody, so the
///    worklist would silently drop it (check_external_input catches the
///    drive; this catches the model).
/// No-op for kRoundRobin (the dense sweep tolerates both shapes, at
/// delta-budget cost) and for kCompiled (a self-loop becomes a scoped
/// settle region, and a program evaluates every block whether or not a
/// stimulus arrived).
void check_scheduler_topology(const SystemModel& model, SchedulerKind kind);

/// Initial round-robin cursor of a dynamic schedule for `schedule_seed`.
/// Seed 1 is canonical and maps to cursor 0 (the behaviour of every
/// paper figure); any other seed scatters the cursor via SplitMix so a
/// job-level seed perturbs the evaluation order — never the results.
std::size_t schedule_rr_offset(std::uint64_t schedule_seed,
                               std::size_t num_blocks);

}  // namespace tmsim::core

// Static-schedule analysis (DESIGN.md §17): the build-time pass behind
// SchedulerKind::kCompiled — the one op program the engine runs. On a
// registered-only model it is the paper's §4.1 static schedule.
//
// The paper's §4.2 dynamic schedule discovers the evaluation order at
// run time, every system cycle, by chasing an unstable set to a fixed
// point. But the combinational link graph is a *build-time* artifact:
// which link can invalidate which block never changes after
// SystemModel::finalize(). The modern descendants of the paper
// (Manticore's static bulk-synchronous scheduling, GSIM's partitioned
// compiled RTL — PAPERS.md) therefore compile the schedule once:
//
//   1. Build the dependency graph over *tracked* combinational links
//      (internal links: a block writes them and a block reads them). An
//      edge li→lo exists when some block reads li on input port p,
//      writes lo on output port q, and
//      SimBlock::output_depends_on_input(q, p) says the value actually
//      flows through. Router-shaped blocks (outputs = G(state)) cut all
//      such edges, which is what turns the NoC's apparent cycles into
//      an acyclic graph.
//   2. Condense strongly-connected components (iterative Tarjan).
//      Links in a nontrivial SCC — or with a self-edge — are true
//      combinational cycles and become CompiledScc fallback regions.
//   3. Topologically order the condensation and emit a CompiledOp list:
//        kEval   — the block's single committing evaluation; every
//                  tracked input is final when it runs.
//        kDrive  — an early extra evaluation of a block whose
//                  not-yet-final inputs provably do not feed the
//                  outputs being finalized. The engine runs it as
//                  SimBlock::drive — G only, every output written, no
//                  next state — since the later kEval commits the state.
//        kSettle — run the scoped round-robin fallback on one SCC until
//                  its links reach a fixed point (or the convergence
//                  budget trips). Blocks whose inputs are all final
//                  after the settle are committed by it and get no
//                  separate kEval.
//
// The emitted order is a pure function of the model (all tie-breaks are
// lowest-id), so two builds of the same model — on different workers,
// in different processes — produce byte-identical schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/system_model.h"

namespace tmsim::analysis {

enum class CompiledOpKind : std::uint8_t {
  kEval = 0,
  kDrive = 1,
  kSettle = 2,
};

struct CompiledOp {
  CompiledOpKind kind = CompiledOpKind::kEval;
  /// Block to evaluate (kEval/kDrive); unused for kSettle.
  core::BlockId block = 0;
  /// Index into CompiledSchedule::sccs (kSettle only).
  std::uint32_t scc = 0;
};

/// One true combinational cycle: the scoped fallback region.
struct CompiledScc {
  /// Member blocks, ascending. Every reader of an SCC link writes an
  /// SCC link (single-reader links make the cycle pass through each
  /// member), so this is both the writer and the reader set.
  std::vector<core::BlockId> blocks;
  /// The SCC's internal tracked links, ascending.
  std::vector<core::LinkId> links;
  /// Members whose every tracked input is final once the SCC settles;
  /// the settle commits them and the schedule emits no separate kEval.
  std::vector<core::BlockId> committed_blocks;
};

struct CompiledSchedule {
  std::vector<CompiledOp> ops;
  std::vector<CompiledScc> sccs;
  /// Per link: index into sccs + 1, or 0 when the link is not part of a
  /// cyclic SCC. Sized num_links.
  std::vector<std::uint32_t> scc_of_link;
  std::size_t num_blocks = 0;  ///< blocks in the schedule
  std::size_t num_evals = 0;   ///< kEval ops
  std::size_t num_drives = 0;  ///< kDrive ops

  bool acyclic() const { return sccs.empty(); }
};

/// Builds the compiled schedule for `model` (which must be finalized).
/// Deterministic: same model → identical schedule.
CompiledSchedule build_compiled_schedule(const core::SystemModel& model);

}  // namespace tmsim::analysis

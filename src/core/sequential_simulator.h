// SequentialSimulator: the paper's core contribution (§4) — simulate a
// parallel synchronous system by evaluating its partitions one at a time.
// It is Engine (engine.h) under the paper's vocabulary: this class only
// keeps the positional constructor with the paper's schedule names and
// adds the per-delta trace hook.
//
// Terminology (§4): a *system cycle* is one clock cycle of the simulated
// parallel design; a *delta cycle* is one block evaluation in the
// sequential simulator and does not advance simulated time. A system
// cycle consists of at least num_blocks delta cycles.
//
// The paper's two schedules are spelled here, and only here, as
// SchedulePolicy; the engine itself knows only SchedulerKind (engine.h):
//
//  - kStatic (§4.1, Fig. 3): legal only when every internal boundary is
//    registered (checked at construction). One pass over the blocks;
//    readers consume previous-cycle values from the old bank. Exactly
//    num_blocks delta cycles per system cycle. It runs as kCompiled: the
//    compiled op program of a registered-only model is exactly that pass,
//    in ascending ids.
//
//  - kDynamic (§4.2, Fig. 5): the paper's method for combinational
//    boundaries. All HBR bits are cleared at the start of the system
//    cycle (so every block is evaluated at least once); a round-robin
//    scheduler evaluates non-stable blocks; writing a *changed* value to a
//    link clears its HBR bit and destabilizes its reader; the cycle ends
//    when all blocks are stable. The `scheduler` argument picks how the
//    cycle is evaluated: kRoundRobin is that method itself, and kCompiled
//    reaches the same fixed point with less work by replaying the gated
//    op program instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "analysis/static_schedule.h"
#include "core/engine.h"

namespace tmsim::core {

/// The paper's two sequential-simulation methods (see above).
enum class SchedulePolicy : std::uint8_t {
  kStatic = 0,
  kDynamic = 1,
};

class SequentialSimulator : public Engine {
 public:
  /// The arguments are the EngineOptions fields of the engine (see
  /// there): `max_evals_per_block` bounds re-evaluation,
  /// `schedule_seed` rotates the dynamic schedule's starting round-robin
  /// cursor to schedule_rr_offset(schedule_seed, num_blocks), and
  /// `scheduler` selects how the dynamic schedule runs a cycle (kDynamic
  /// only: kStatic always runs the compiled program). Committed results are
  /// schedule-independent by the engine contract, so none of them can
  /// change what a workload observes — only the order (and count) of
  /// delta cycles.
  SequentialSimulator(const SystemModel& model, SchedulePolicy policy,
                      std::size_t max_evals_per_block = 64,
                      std::uint64_t schedule_seed = 1,
                      SchedulerKind scheduler = SchedulerKind::kRoundRobin)
      : Engine(model, EngineOptions{
                          .seed = schedule_seed,
                          .scheduler = policy == SchedulePolicy::kStatic
                                           ? static_scheduler(model)
                                           : scheduler,
                          .max_evals_per_block = max_evals_per_block}) {}

  /// The op program the engine replays every system cycle (kStatic and
  /// kCompiled; null under the round-robin pickup) — exposed for tests
  /// and schedule inspection.
  const analysis::CompiledSchedule* compiled_schedule() const {
    return program();
  }

  /// Called once per delta cycle with (system cycle, delta index within
  /// the cycle, evaluated block) — used by the Fig. 3 / Fig. 5 schedule
  /// trace benches.
  using TraceHook = std::function<void(SystemCycle, DeltaCycle, BlockId)>;
  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

 private:
  /// kStatic's precondition, checked before the engine is built: the
  /// compiled program is the §4.1 one-pass schedule only when no internal
  /// boundary is combinational.
  static SchedulerKind static_scheduler(const SystemModel& model) {
    TMSIM_CHECK_MSG(model.all_boundaries_registered(),
                    "static schedule requires registered boundaries (§4.1); "
                    "use kDynamic for combinational boundaries");
    return SchedulerKind::kCompiled;
  }
};

}  // namespace tmsim::core

// SimSession: one job's resumable execution state. The farm's whole
// preemption story reduces to this class honouring a single contract:
//
//     advance(a); detach(); attach(other_sim); advance(b)
//   ≡ advance(a + b)
//
// bit-for-bit, where `other_sim` may be a different engine instance on a
// different worker thread (over an equal NetworkConfig). The mechanism
// is PR 1's commit-counter style made general (DESIGN.md §11):
//
//   - core-traffic jobs own a TrafficHarness (all software-side state:
//     source queues, credits, packet records, RNG position) and borrow
//     an engine from the worker's cache. detach() snapshots the engine
//     into an EngineCheckpoint (committed block states + cycle counters,
//     digest-verified); attach() restores it into the next engine and
//     rebinds the harness. The restore is sound because every internal
//     link of a NoC model is combinational — the fixed point is a pure
//     function of committed states and external inputs.
//
//   - hosted-FPGA jobs own the whole stack (FpgaDesign, optional
//     FaultyBus, ArmHost) and are naturally resumable: ArmHost::run() is
//     incremental, and its PR-1 commit-counter mirrors persist across
//     calls, so preemption is simply slicing run() into smaller targets.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "farm/job_result.h"
#include "farm/job_spec.h"

namespace tmsim::fpga {
class ArmHost;
class FaultyBus;
class FpgaDesign;
}  // namespace tmsim::fpga

namespace tmsim::farm {

/// The engine options a job actually runs with: the default evaluation
/// budget and the spec's scheduler. When `canonical_seed` is true the
/// schedule seed is 1 — what farm workers use, so cached
/// engines are reusable across jobs regardless of job seeds. When false
/// (standalone runs) the seed derives from the job seed, which perturbs
/// the evaluation order; the differential tests comparing the two paths
/// are therefore also an empirical proof that schedule seeds never leak
/// into results.
core::EngineOptions effective_engine_options(const JobSpec& spec,
                                             bool canonical_seed);

/// Canonical engine-cache identity of a job: two jobs with equal keys can
/// run on the same cached engine instance (equal topology/sizing and
/// scheduler). This is also the farm's *batch compatibility* rule — a
/// worker only runs jobs back-to-back without re-attach when their keys
/// match.
std::string engine_cache_key(const JobSpec& spec);

/// FNV-1a hash of engine_cache_key(), never 0 (0 marks "unbatchable" in
/// the AdmissionQueue) — the BatchKeyFn the farm installs.
std::uint64_t engine_cache_key_hash(const JobSpec& spec);

class SimSession {
 public:
  /// Validates the spec (throws ContextualError on an unsatisfiable
  /// one). Hosted sessions build and configure their stack here; core
  /// sessions stay engine-less until the first attach().
  explicit SimSession(const JobSpec& spec);
  ~SimSession();

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  const JobSpec& spec() const { return spec_; }

  /// Core-traffic jobs borrow an engine-backed simulation; hosted jobs
  /// carry their own stack.
  bool needs_engine() const {
    return spec_.kind == JobKind::kCoreTraffic;
  }

  /// Binds the session to `sim` (core jobs only; `sim` must simulate an
  /// equal NetworkConfig). First attach resets `sim` to power-on state
  /// and builds the harness; later attaches restore the detach-time
  /// checkpoint (digest-verified) and rebind the harness. `paranoid`
  /// adds a belt-and-braces recheck that the restored engine's cycle and
  /// state digest match the checkpoint exactly.
  void attach(core::SeqNocSimulation& sim, bool paranoid = false);

  /// Snapshots the engine state and unbinds (core jobs only). The engine
  /// is the caller's to reuse afterwards.
  void detach();

  bool attached() const { return sim_ != nullptr; }

  /// Runs up to `quantum` more system cycles (never past the spec's
  /// budget; stops early on overload/abort/cancellation). Returns cycles
  /// advanced.
  SystemCycle advance(SystemCycle quantum);

  /// Binds a cancellation token (DESIGN.md §13). Core sessions check it
  /// before each advance(); hosted sessions additionally wire it into
  /// ArmHost so a multi-period quantum stops at the next period
  /// boundary. Cancellation is cooperative and never corrupts state:
  /// every early stop lands on a slice/period boundary, exactly where
  /// preemption already proves the state consistent.
  void bind_cancel(std::shared_ptr<const std::atomic<bool>> token);

  bool done() const;
  SystemCycle cycles_done() const { return cycles_done_; }

  /// Delta cycles burned by the most recent advance() — the engine's
  /// convergence cost for that slice, surfaced so the farm can attach
  /// it to slice trace spans and flight-recorder samples (DESIGN.md
  /// §15). 0 before the first advance and for hosted jobs whose design
  /// is not yet configured.
  DeltaCycle last_slice_deltas() const { return last_slice_deltas_; }

  /// Hosted jobs: true when the hardened host gave up with a structured
  /// FaultReport — the farm escalates this to FailureKind::kFaultAbort.
  /// Core jobs: always false.
  bool aborted() const;
  /// The abort reason when aborted(), else empty.
  std::string abort_reason() const;

  /// Last durable checkpoint (detach-time snapshot). Cycle 0 / digest 0
  /// when the session never checkpointed (fresh jobs, hosted jobs).
  SystemCycle last_checkpoint_cycle() const { return checkpoint_.cycle; }
  std::uint64_t last_checkpoint_digest() const { return checkpoint_.digest; }

  /// Fills the simulation-visible fields of `out` (latency summaries,
  /// fault report, state digest, flit counts). Callable attached or
  /// detached.
  void finalize(JobResult& out) const;

 private:
  void attach_first(core::SeqNocSimulation& sim);

  JobSpec spec_;
  SystemCycle cycles_done_ = 0;
  DeltaCycle last_slice_deltas_ = 0;
  std::shared_ptr<const std::atomic<bool>> cancel_;

  // Core-traffic state.
  core::SeqNocSimulation* sim_ = nullptr;  // borrowed, nullable
  std::unique_ptr<traffic::TrafficHarness> harness_;
  core::EngineCheckpoint checkpoint_;
  bool started_ = false;

  // Hosted-FPGA state (owned).
  std::unique_ptr<fpga::FpgaDesign> design_;
  std::unique_ptr<fpga::FaultyBus> faulty_bus_;
  std::unique_ptr<fpga::ArmHost> host_;
  bool hw_synced_ = false;  ///< end-of-job counter sync done once
};

/// Runs one job start-to-finish on this thread with no farm involved —
/// the reference execution the differential tests compare farm results
/// against. Exceptions become status == kFailed.
JobResult run_job_standalone(const JobSpec& spec);

}  // namespace tmsim::farm

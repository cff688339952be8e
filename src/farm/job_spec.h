// JobSpec: the unit of work the simulation farm accepts — one complete,
// self-describing simulation request: which network to build, which
// workload to offer it, which engine to run it on, for how many system
// cycles, and under which seed. A spec has a *stable serialized form*
// (canonical key=value text) and an FNV-1a fingerprint over that form,
// so job identity survives queues, logs, and re-submission: two specs
// with the same fingerprint request bit-identical simulations.
//
// Determinism contract: everything a job computes is a function of its
// spec alone. All randomness — stimuli, the hosted FPGA's RNG register,
// the fault-injection schedule, the engine's evaluation order — is
// derived from the single `seed` field through domain-separated
// sub-seeds (derive_seed), so one u64 in the spec pins the entire run,
// and no two random consumers ever share a stream by accident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/noc_block.h"
#include "fpga/faulty_bus.h"
#include "noc/config.h"
#include "traffic/harness.h"
#include "traffic/packet.h"

namespace tmsim::farm {

/// What kind of simulation stack the job runs on.
enum class JobKind : std::uint8_t {
  /// TrafficHarness driving a core engine directly (the fast path).
  kCoreTraffic = 0,
  /// The full hosted platform: ArmHost ↔ (optionally faulty) bus ↔
  /// FpgaDesign, i.e. the paper's Figure-7 stack end to end.
  kHostedFpga = 1,
};

/// Admission priority classes, highest first. A queued job never runs
/// before a queued job of a higher class, and a running lower-class job
/// is preempted (checkpointed and requeued) when higher-class work is
/// waiting.
enum class Priority : std::uint8_t {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};
inline constexpr std::size_t kNumPriorities = 3;

const char* job_kind_name(JobKind k);
const char* priority_name(Priority p);

/// Format version of the stable serialized form. Emitted as the leading
/// `v=` token by serialize(); deserialize() accepts exactly this version
/// (a missing token means version 1 — the pre-versioning format) and
/// rejects anything else with a structured error, so a decoder never
/// half-parses a spec written by a future release.
inline constexpr std::uint64_t kSpecFormatVersion = 1;

/// The traffic offered to the network (a declarative superset of what
/// TrafficHarness / ArmHost::Workload configure imperatively).
struct WorkloadSpec {
  double be_load = 0.0;                  ///< BE flits/cycle/node (Fig. 1 x-axis)
  std::vector<unsigned> be_vcs = {2, 3};
  std::size_t be_bytes = traffic::kBePacketBytes;
  /// Use the Fig. 1 GT population (one 2-hop stream per node) with this
  /// period; mutually exclusive with explicit `gt_streams`.
  bool fig1_gt = false;
  SystemCycle gt_period = 600;
  std::vector<traffic::GtStream> gt_streams;
  /// Packets injected before this cycle are excluded from summaries
  /// (core-traffic jobs only; the hosted stack has no warmup support).
  SystemCycle warmup_cycles = 0;
  bool verify_payload = false;           ///< core-traffic jobs only
  bool stop_on_overload = true;
  std::size_t overload_threshold = 1u << 16;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

struct JobSpec {
  /// Job name, for humans and logs. Restricted to [A-Za-z0-9._-] so the
  /// serialized form stays a flat token stream.
  std::string name = "job";
  JobKind kind = JobKind::kCoreTraffic;
  Priority priority = Priority::kNormal;
  noc::NetworkConfig net;
  WorkloadSpec workload;
  /// The engine's schedule. Every job runs on a one-shard engine with
  /// the default evaluation budget; the schedule seed is derived, never
  /// part of the spec (see effective_engine_options). Results do not
  /// depend on the scheduler, only StepStats do.
  core::SchedulerKind scheduler = core::SchedulerKind::kRoundRobin;
  /// The job's one true seed (see derive_seed).
  std::uint64_t seed = 1;
  /// System cycles to simulate.
  SystemCycle cycles = 1000;
  /// Wall-clock deadline in milliseconds, measured from submit. 0 = no
  /// deadline. Checked cooperatively at slice boundaries (and, for
  /// hosted jobs, between simulation periods), so the cancellation
  /// latency is one quantum/period; an expired job resolves to
  /// kCancelled with CancelCause::kDeadline.
  std::uint64_t deadline_ms = 0;
  /// Times a *transient* failure (FailureKind kTransient / kFaultAbort)
  /// is re-executed before the job is quarantined as poison. Retries
  /// re-enter through the normal admission classes (back of class, with
  /// seeded deterministic backoff) so they never starve fresh work.
  /// Deterministic failures (convergence, engine errors) never retry.
  std::uint32_t max_retries = 0;
  /// Bus fault injection (hosted jobs only; all-zero = clean bus).
  fpga::FaultRates faults;

  /// Canonical serialized form: space-separated key=value tokens in a
  /// fixed key order, doubles as shortest round-trip (%.17g), lists
  /// comma-separated. Stable across runs and platforms.
  std::string serialize() const;
  /// Inverse of serialize(). Unknown keys and malformed values throw —
  /// a spec that does not round-trip must never enter the queue.
  static JobSpec deserialize(const std::string& text);

  /// FNV-1a over serialize(): the job's identity.
  std::uint64_t fingerprint() const;

  /// Throws ContextualError on an unsatisfiable spec: invalid network,
  /// zero cycles, bad name charset, GT streams that violate the one-
  /// stream-per-VC rule, packets outside 1..traffic::kMaxPacketBytes,
  /// or hosted-job options the ArmHost stack cannot honour (warmup,
  /// payload verification, faults on a core job).
  void validate() const;

  /// The GT streams this spec resolves to (fig1 population or explicit).
  std::vector<traffic::GtStream> resolved_gt_streams() const;

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// Domain-separated sub-seed: FNV-1a over (base, domain). Every random
/// consumer of a job uses its own domain string — "stimuli", "host-rng",
/// "faults", "schedule" — so streams never collide and adding a consumer
/// never shifts an existing one. Never returns 0 (some sinks treat 0 as
/// "unseeded").
std::uint64_t derive_seed(std::uint64_t base, std::string_view domain);

}  // namespace tmsim::farm

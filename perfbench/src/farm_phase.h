// Service phase: an in-process tmsim-farmd (FarmdServer) fed over
// loopback by one FarmClient connection from this process.
//
//  - Batch jobs (kBatch priority) run as a closed loop with
//    2 × workers jobs outstanding; every spec is distinct (seeded), so the
//    farm's memo would never hit (it is off).
//  - Probe jobs (kInteractive, 2×2 mesh, a few hundred cycles) are sent
//    open-loop at a fixed rate by their own thread; each is timed from its
//    *scheduled* send time, so a stalled sender shows up as latency.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "farm/job_spec.h"
#include "report.h"

namespace perfbench {

struct ServiceWorkload {
  /// The i-th batch spec of a run with this seed.
  std::function<tmsim::farm::JobSpec(std::uint64_t seed, std::size_t i)> batch;
};

struct ServicePhaseResult {
  double setup_s = 0.0;        ///< daemon start + client handshake
  double overhead_frac = 0.0;  ///< traced runs: 1 − traced/plain jobs_per_s
};

/// Untraced: serves for its correctness checks and records the service
/// figures. Traced: emits jobs_per_s, probe_p50_ms and probe_p95_ms (from
/// a tracer-free half) and the farm.*, net.* and trace.<span>.self_ms
/// layer metrics. Spill segments (if any) go under `scratch_dir`, removed
/// afterwards.
ServicePhaseResult run_service_phase(const ServiceWorkload& w,
                                     std::uint64_t seed, double seconds,
                                     bool traced,
                                     const std::string& scratch_dir,
                                     Report& rep);

/// The probe spec sent `k`-th in a run with this seed.
tmsim::farm::JobSpec probe_spec(std::uint64_t seed, std::size_t k);

}  // namespace perfbench

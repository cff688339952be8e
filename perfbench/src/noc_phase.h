// Engine phase: a 6×6 NoC workload driven by TrafficHarness on the
// sequential engine, round-robin and compiled schedulers side by side.
//
// The run is a sequence of identical *episodes* (power-on reset, the same
// seeded traffic, `warmup + chunks × chunk` cycles), so memory stays
// bounded and every timed chunk repeats the same work. Lanes advance
// chunk by chunk in turn, which spreads host noise evenly over them.
#pragma once

#include <cstdint>

#include "noc/config.h"
#include "report.h"

namespace perfbench {

/// Traffic offered to the network (generated by the harness from the seed).
struct TrafficDef {
  double be_load = 0.0;         ///< uniform BE flits/cycle/node
  bool fig1_gt = false;         ///< the Fig. 1 GT stream population
  std::uint64_t gt_period = 600;
};

struct EngineWorkload {
  tmsim::noc::NetworkConfig net;
  TrafficDef traffic;
  std::uint64_t warmup = 0;  ///< untimed cycles opening every episode
  std::uint64_t chunk = 0;   ///< cycles per timed sample
  std::size_t chunks = 0;    ///< timed samples per episode
};

struct NocPhaseResult {
  double setup_s = 0.0;        ///< untraced: model + engines + harness build
  double overhead_frac = 0.0;  ///< traced runs: 1 − traced/plain cps_rr
};

/// Untraced: emits cps_rr and cps_compiled, then checks worklist, sharded
/// and the DirectNocSimulation golden model against round-robin.
/// Traced: emits the noc.*, core.* and traffic.* layer metrics.
NocPhaseResult run_noc_phase(const EngineWorkload& w, std::uint64_t seed,
                             double seconds, bool traced, Report& rep);

/// Short self-test: the timed adapter's digests equal SeqNocSimulation's
/// under round-robin and compiled, and the replay reproduces every
/// sampled state word. Returns true when all checks pass.
bool noc_selftest(Report& rep);

}  // namespace perfbench

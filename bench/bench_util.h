// Shared helpers for the table/figure reproduction binaries.
//
// Every bench prints (a) the paper's reported numbers, (b) ours, and (c)
// the derived comparison the paper's claim rests on — so the output of
// `for b in build/bench/*; do $b; done` is the whole evaluation section.
// Besides the human-readable tables, every bench also drops a
// machine-readable BENCH_<name>.json record (emit_bench_json) so CI can
// track the reproduced numbers over time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "noc/config.h"
#include "obs/metrics.h"

namespace tmsim::bench {

/// The paper's case-study network: a 6×6 grid (Fig. 1 used 2-flit
/// queues). Traffic-carrying benches run the MESH topology: XY routing
/// with packet-fixed VCs is wormhole-deadlock-free on a mesh but not on
/// a torus (wrap-around links close channel-dependency cycles; the
/// Kavaldjiev scheme keeps a packet's VC fixed end-to-end, so dateline VC
/// switching is unavailable). DESIGN.md §7 and the torus-deadlock
/// regression test document this; the paper does not specify which
/// topology produced Fig. 1.
inline noc::NetworkConfig paper_network(std::size_t queue_depth = 2) {
  noc::NetworkConfig net;
  net.width = 6;
  net.height = 6;
  net.topology = noc::Topology::kMesh;
  net.router.queue_depth = queue_depth;
  return net;
}

/// Wall-clock seconds of a callable.
template <typename F>
double time_run(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median and interquartile range of repeated measurements (linear
/// interpolation between order statistics): what a bench records when
/// one timing would be at the mercy of the host's speed swings.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

inline Spread spread_of(std::vector<double> v) {
  if (v.empty()) {
    return {};
  }
  std::sort(v.begin(), v.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return Spread{quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// Benches honour TMSIM_QUICK=1 (shorter runs for smoke testing).
inline bool quick_mode() {
  const char* v = std::getenv("TMSIM_QUICK");
  return v != nullptr && v[0] == '1';
}

inline void print_header(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

/// One measured number in a BENCH_<name>.json record.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;  // "seconds", "cycles/s", "ratio", "count", ...
};

/// Commit the numbers were measured at: TMSIM_GIT_SHA if CI exported it,
/// else `git rev-parse`, else "unknown".
inline std::string git_sha() {
  if (const char* env = std::getenv("TMSIM_GIT_SHA")) {
    return env;
  }
#if !defined(_WIN32)
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, p);
    const int rc = ::pclose(p);
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    if (rc == 0 && !sha.empty()) {
      return sha;
    }
  }
#endif
  return "unknown";
}

/// Writes BENCH_<name>.json in the working directory: {bench, git_sha,
/// config{...}, metrics[{name, value, unit}]}. CI greps these instead of
/// parsing the human tables.
inline void emit_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& config,
    const std::vector<BenchMetric>& metrics) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"bench\": \"" << obs::json_escape(name) << "\",\n";
  os << "  \"git_sha\": \"" << obs::json_escape(git_sha()) << "\",\n";
  os << "  \"config\": {";
  bool first = true;
  for (const auto& [k, v] : config) {
    os << (first ? "\n" : ",\n") << "    \"" << obs::json_escape(k)
       << "\": \"" << obs::json_escape(v) << "\"";
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"metrics\": [";
  first = true;
  char num[40];
  for (const BenchMetric& m : metrics) {
    std::snprintf(num, sizeof num, "%.17g", m.value);
    os << (first ? "\n" : ",\n") << "    {\"name\": \""
       << obs::json_escape(m.name) << "\", \"value\": " << num
       << ", \"unit\": \"" << obs::json_escape(m.unit) << "\"}";
    first = false;
  }
  os << (first ? "]\n}\n" : "\n  ]\n}\n");
  std::printf("[bench] wrote %s (%zu metrics)\n", path.c_str(),
              metrics.size());
}

}  // namespace tmsim::bench

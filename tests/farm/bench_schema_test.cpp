// Sanity checker for the committed BENCH_*.json artifacts (DESIGN.md
// §14). The benches emit machine-readable records that CI and the
// README's numbers stand on; this test pins their schema so a bench
// refactor cannot silently rename a metric or emit malformed JSON, and
// pins the headline scaling claim recorded in BENCH_farm_throughput.json:
// paced w4 throughput ≥ 2× w1.
//
// The checker is a deliberately small string-level scanner (the repo
// has no JSON parser dependency): it verifies the envelope keys, brace
// balance, and extracts {"name": ..., "value": ...} metric pairs.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef TMSIM_SOURCE_DIR
#error "bench_schema_test needs -DTMSIM_SOURCE_DIR=<repo root>"
#endif

namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Extracts every {"name": "<n>", "value": <v>, ...} metric row.
std::map<std::string, double> parse_metrics(const std::string& text) {
  std::map<std::string, double> out;
  const std::string name_key = "\"name\": \"";
  const std::string value_key = "\"value\": ";
  std::size_t pos = 0;
  while ((pos = text.find(name_key, pos)) != std::string::npos) {
    pos += name_key.size();
    const std::size_t name_end = text.find('"', pos);
    if (name_end == std::string::npos) {
      break;
    }
    const std::string name = text.substr(pos, name_end - pos);
    const std::size_t vpos = text.find(value_key, name_end);
    if (vpos == std::string::npos) {
      break;
    }
    out[name] = std::stod(text.substr(vpos + value_key.size()));
    pos = name_end;
  }
  return out;
}

void check_envelope(const std::filesystem::path& path,
                    const std::string& text) {
  SCOPED_TRACE(path.string());
  // Envelope keys every bench record carries.
  EXPECT_NE(text.find("\"bench\": \""), std::string::npos);
  EXPECT_NE(text.find("\"git_sha\": \""), std::string::npos);
  EXPECT_NE(text.find("\"config\": {"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\": ["), std::string::npos);
  // Brace/bracket balance — the cheap well-formedness proxy.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"' && (i == 0 || text[i - 1] != '\\')) {
      in_string = !in_string;
    } else if (!in_string) {
      braces += (c == '{') - (c == '}');
      brackets += (c == '[') - (c == ']');
      EXPECT_GE(braces, 0);
      EXPECT_GE(brackets, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // The bench name in the envelope must match the filename.
  const std::string stem = path.stem().string();  // BENCH_<name>
  ASSERT_EQ(stem.rfind("BENCH_", 0), 0u);
  EXPECT_NE(text.find("\"bench\": \"" + stem.substr(6) + "\""),
            std::string::npos);
  // Every metric row carries a unit.
  const std::size_t rows = parse_metrics(text).size();
  EXPECT_GT(rows, 0u) << "no metrics";
  std::size_t units = 0;
  for (std::size_t p = 0; (p = text.find("\"unit\": \"", p)) !=
                          std::string::npos;
       p += 9) {
    ++units;
  }
  EXPECT_EQ(units, rows);
}

TEST(BenchSchema, EveryCommittedBenchRecordIsWellFormed) {
  const std::filesystem::path root(TMSIM_SOURCE_DIR);
  std::size_t found = 0;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    ++found;
    check_envelope(entry.path(), slurp(entry.path()));
  }
  EXPECT_GE(found, 5u) << "expected the committed bench records under "
                       << root;
}

TEST(BenchSchema, CompiledSpeedupRecordBeatsRoundRobinIdleAndSparse) {
  const std::filesystem::path path =
      std::filesystem::path(TMSIM_SOURCE_DIR) / "BENCH_compiled_speedup.json";
  ASSERT_TRUE(std::filesystem::exists(path))
      << "run build/bench/sched_speedup from the repo root";
  const auto metrics = parse_metrics(slurp(path));
  for (const std::string m :
       {"compiled.table3_cps.round_robin", "compiled.table3_cps.compiled",
        "compiled.speedup.table3_cps", "compiled.evals_per_cycle.round_robin",
        "compiled.evals_per_cycle.compiled"}) {
    ASSERT_TRUE(metrics.count(m)) << m;
  }
  // The DESIGN.md §17 headline: on an acyclic-region-dominated config
  // the build-time schedule beats the round-robin sweep >= 3x in
  // simulated cycles per second, because it does the fixed point in one
  // topological pass instead of chasing the change wavefront.
  EXPECT_GE(metrics.at("compiled.speedup.table3_cps"), 3.0);
  EXPECT_GE(metrics.at("compiled.table3_cps.compiled"),
            3.0 * metrics.at("compiled.table3_cps.round_robin"));
  EXPECT_GT(metrics.at("compiled.evals_per_cycle.round_robin"),
            metrics.at("compiled.evals_per_cycle.compiled"));
  // On the real router workload the gated program must be no slower
  // than the paper's sweep where most routers are quiescent: the idle
  // and sparse rows. The saturated row is recorded, not gated.
  for (const std::string load : {"idle", "sparse", "saturated"}) {
    for (const std::string lane : {"round_robin", "compiled"}) {
      const std::string m = "compiled.noc_cps." + lane + "." + load;
      ASSERT_TRUE(metrics.count(m)) << m;
      EXPECT_GT(metrics.at(m), 0.0) << m;
    }
  }
  for (const std::string load : {"idle", "sparse"}) {
    EXPECT_GE(metrics.at("compiled.noc_cps.compiled." + load),
              metrics.at("compiled.noc_cps.round_robin." + load))
        << load;
  }
}

TEST(BenchSchema, FarmThroughputRecordCarriesTheScalingSweeps) {
  const std::filesystem::path path =
      std::filesystem::path(TMSIM_SOURCE_DIR) / "BENCH_farm_throughput.json";
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto metrics = parse_metrics(slurp(path));
  // Capacity sweep: every (workers, queue) point with latency quantiles,
  // rejects, and the per-stage pipeline breakdown.
  for (const std::string w : {"w1", "w2", "w4"}) {
    for (const std::string q : {"q4", "q64"}) {
      const std::string tag = w + "_" + q;
      for (const std::string prefix :
           {"jobs_per_sec_", "p50_latency_", "p99_latency_", "rejects_",
            "stage_queue_wait_us_", "stage_attach_us_", "stage_run_us_",
            "stage_publish_us_"}) {
        EXPECT_TRUE(metrics.count(prefix + tag)) << prefix + tag;
      }
      EXPECT_GT(metrics.at("jobs_per_sec_" + tag), 0.0) << tag;
    }
  }
  // Paced scaling sweep — the farm-internal concurrency proof. The
  // committed record must show w4 ≥ 2× w1 (the scaling wall; ideal 4).
  for (const std::string m :
       {"paced_jobs_per_sec_w1", "paced_jobs_per_sec_w2",
        "paced_jobs_per_sec_w4", "paced_scaling_w4_over_w1"}) {
    ASSERT_TRUE(metrics.count(m)) << m;
  }
  EXPECT_GE(metrics.at("paced_scaling_w4_over_w1"), 2.0);
  EXPECT_GE(metrics.at("paced_jobs_per_sec_w4"),
            2.0 * metrics.at("paced_jobs_per_sec_w1"));
  // Memoization sweep: duplicate-heavy stream must show a real speedup.
  for (const std::string m : {"memo_off_jobs_per_sec", "memo_on_jobs_per_sec",
                              "memo_speedup", "memo_hits"}) {
    ASSERT_TRUE(metrics.count(m)) << m;
  }
  EXPECT_GT(metrics.at("memo_speedup"), 1.0);
  EXPECT_GT(metrics.at("memo_hits"), 0.0);
}

TEST(BenchSchema, ObsOverheadRecordKeepsSamplingCheap) {
  const std::filesystem::path path =
      std::filesystem::path(TMSIM_SOURCE_DIR) / "BENCH_obs_overhead.json";
  ASSERT_TRUE(std::filesystem::exists(path))
      << "run build/bench/obs_overhead from the repo root";
  const auto metrics = parse_metrics(slurp(path));
  for (const std::string m :
       {"jobs_per_sec_off", "jobs_per_sec_sampled", "jobs_per_sec_full",
        "overhead_sampled_pct", "overhead_full_pct", "traces_sampled",
        "traces_full", "spans_full", "spans_dropped_full"}) {
    ASSERT_TRUE(metrics.count(m)) << m;
  }
  for (const std::string m :
       {"jobs_per_sec_off", "jobs_per_sec_sampled", "jobs_per_sec_full"}) {
    EXPECT_GT(metrics.at(m), 0.0) << m;
  }
  // The §15 headline: 1-in-64 head sampling is cheap enough to leave on.
  EXPECT_LT(metrics.at("overhead_sampled_pct"), 5.0);
  // And the lit runs genuinely traced — the overhead numbers would be
  // meaningless if sampling had quietly recorded nothing.
  EXPECT_GT(metrics.at("traces_sampled"), 0.0);
  EXPECT_GT(metrics.at("traces_full"), metrics.at("traces_sampled"));
  EXPECT_GT(metrics.at("spans_full"), metrics.at("traces_full"));
  EXPECT_EQ(metrics.at("spans_dropped_full"), 0.0);
}

TEST(BenchSchema, FarmNetgenRecordProvesMultiProcessIngest) {
  const std::filesystem::path path =
      std::filesystem::path(TMSIM_SOURCE_DIR) / "BENCH_farm_netgen.json";
  ASSERT_TRUE(std::filesystem::exists(path))
      << "run build/bench/farm_netgen from the repo root";
  const auto metrics = parse_metrics(slurp(path));
  for (const std::string m :
       {"submits_per_sec", "results_per_sec", "p50_e2e", "p99_e2e", "jobs",
        "clients", "spilled", "rejects", "outbox_dropped", "ledger_ok"}) {
    ASSERT_TRUE(metrics.count(m)) << m;
  }
  // The §16 headline: separate client *processes* fed one daemon over
  // TCP, every submit landed (spill absorbed the overflow instead of
  // rejecting), and every result streamed back.
  EXPECT_GE(metrics.at("clients"), 2.0);
  EXPECT_GT(metrics.at("submits_per_sec"), 0.0);
  EXPECT_GT(metrics.at("results_per_sec"), 0.0);
  EXPECT_GT(metrics.at("p99_e2e"), 0.0);
  EXPECT_EQ(metrics.at("rejects"), 0.0);
  EXPECT_EQ(metrics.at("outbox_dropped"), 0.0);
  EXPECT_EQ(metrics.at("ledger_ok"), 1.0);
}

TEST(BenchSchema, FarmLoadgenRecordShowsADeepSustainedBacklog) {
  const std::filesystem::path path =
      std::filesystem::path(TMSIM_SOURCE_DIR) / "BENCH_farm_loadgen.json";
  ASSERT_TRUE(std::filesystem::exists(path))
      << "run build/bench/farm_loadgen from the repo root";
  const auto metrics = parse_metrics(slurp(path));
  for (const std::string m :
       {"jobs_per_sec", "submits_per_sec", "peak_queue_depth",
        "p50_turnaround", "p99_turnaround", "memo_hits", "rejects"}) {
    ASSERT_TRUE(metrics.count(m)) << m;
  }
  // The whole point of the load generator: the admission queue really
  // held a backlog in the thousands while submitters ran.
  EXPECT_GE(metrics.at("peak_queue_depth"), 5000.0);
  EXPECT_GT(metrics.at("jobs_per_sec"), 0.0);
  EXPECT_GT(metrics.at("memo_hits"), 0.0);
  EXPECT_EQ(metrics.at("rejects"), 0.0);
}

}  // namespace

// Pins the engine's per-cycle StepStats stream. Equal final
// state alone does not show that two engines did the same work; this test
// hashes every StepStats field of every cycle of a 4x4 NoC run and
// compares the hash with a constant, so any change in how many blocks a
// schedule evaluates, re-evaluates, skips or settles — in any cycle —
// fails here even when the results stay bit-identical.
//
// A deliberate change of scheduling behaviour must re-record the
// constants (the failure message prints the new value). They were last
// recorded when StepStats lost its barrier spin count: this hash was run
// against the engine just before the sharded engine was deleted, and the
// engine without it reproduces every value unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>

#include "core/noc_block.h"
#include "traffic/harness.h"

namespace tmsim {
namespace {

using core::EngineOptions;
using core::SchedulerKind;

constexpr std::size_t kCycles = 300;

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a over every field of every cycle's StepStats.
std::uint64_t stats_stream_hash(const EngineOptions& opts, double load) {
  noc::NetworkConfig net;
  net.width = 4;
  net.height = 4;
  core::SeqNocSimulation sim(net, opts);
  traffic::TrafficHarness::Options hopts;
  hopts.seed = 0x5717;
  traffic::TrafficHarness h(sim, hopts);
  h.set_be_load(load, {0, 1, 2, 3});
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t c = 0; c < kCycles; ++c) {
    h.run(1);
    const core::StepStats& s = sim.last_step_stats();
    for (const std::uint64_t field :
         {std::uint64_t{s.delta_cycles}, std::uint64_t{s.re_evaluations},
          s.skipped_blocks,
          std::uint64_t{s.link_changes}, s.settle_rounds, s.cut_publishes}) {
      fnv_mix(hash, field);
    }
  }
  EXPECT_EQ(sim.cycle(), kCycles);
  return hash;
}

struct PinnedStream {
  SchedulerKind scheduler;
  double load;
  std::uint64_t seed;
  std::uint64_t hash;
};

constexpr SchedulerKind kRr = SchedulerKind::kRoundRobin;
constexpr SchedulerKind kCp = SchedulerKind::kCompiled;

constexpr PinnedStream kPinned[] = {
    {kRr, 0.02, 1, 5522277434147203558ull},
    {kRr, 0.02, 7, 5522277434147203558ull},
    {kRr, 0.30, 1, 9372191453213849445ull},
    {kRr, 0.30, 7, 9316840049475236485ull},
    {kCp, 0.02, 1, 3363362513028704300ull},
    {kCp, 0.02, 7, 3363362513028704300ull},
    {kCp, 0.30, 1, 4026547547952532987ull},
    {kCp, 0.30, 7, 4026547547952532987ull},
};

TEST(StepStatsPin, OneShardStreamMatchesRecordedHashes) {
  for (const PinnedStream& p : kPinned) {
    SCOPED_TRACE(std::string(core::scheduler_kind_name(p.scheduler)) +
                 " load=" + std::to_string(p.load) +
                 " seed=" + std::to_string(p.seed));
    EngineOptions opts;
    opts.scheduler = p.scheduler;
    opts.seed = p.seed;
    EXPECT_EQ(stats_stream_hash(opts, p.load), p.hash);
  }
}

}  // namespace
}  // namespace tmsim

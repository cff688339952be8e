// Micro-benchmarks (google-benchmark) of the primitives whose costs drive
// every number in Tables 3/4: one router evaluation, the state-word
// codec, the memory banks, and whole-engine steps across network sizes.
// Besides the console table, the run drops BENCH_micro_engines.json with
// one metric per reported row (adjusted real time; the loaded-step lanes
// report the mean, median and spread of their windows) and one per user
// counter (the interleaved lane's per-lane medians and ratios).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "bench/bench_util.h"
#include "core/noc_block.h"
#include "core/sequential_simulator.h"
#include "noc/network.h"
#include "noc/router_logic.h"
#include "noc/router_state.h"
#include "rtlsim/rtl_noc.h"
#include "sysc/sysc_noc.h"
#include "traffic/harness.h"

namespace {

using namespace tmsim;

noc::NetworkConfig net_of(std::size_t w, std::size_t h) {
  noc::NetworkConfig net;
  net.width = w;
  net.height = h;
  return net;
}

void BM_RouterEvaluate(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  noc::RouterEnv env{&net, noc::Coord{2, 2}};
  noc::RouterState s(net.router);
  s.queues[0].fifo.push(
      noc::Flit{noc::FlitType::kHead, noc::make_head_payload(4, 2, 0, 1)});
  noc::RouterState next(net.router);
  noc::RouterInputs in;
  for (auto _ : state) {
    const noc::Grants g = compute_grants(s, env);
    benchmark::DoNotOptimize(compute_outputs(s, g, env));
    compute_next_state_into(s, g, in, env, next);
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_RouterEvaluate);

/// The engine's delta cycle for one router: RouterBlock::step on its
/// resident state — link-word decode, G, F, link-word encode — with no
/// state word. Same registers as BM_RouterEvaluate.
void BM_RouterStep(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  const core::RouterBlock block(
      std::make_shared<const noc::RouterStateCodec>(net.router),
      noc::RouterEnv{&net, noc::Coord{2, 2}});
  noc::RouterState s(net.router);
  s.queues[0].fifo.push(
      noc::Flit{noc::FlitType::kHead, noc::make_head_payload(4, 2, 0, 1)});
  noc::RouterState next(net.router);
  const std::array<std::uint64_t, 9> in{};
  std::array<std::uint64_t, 10> out{};
  for (auto _ : state) {
    block.step_state(s, in, next, out);
    benchmark::DoNotOptimize(next);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RouterStep);

/// The same delta cycle through the word view (RouterBlock::evaluate):
/// state-word decode → step → encode, what every evaluation paid before
/// the engine kept router states resident.
void BM_RouterWordEvaluate(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  const auto codec = std::make_shared<const noc::RouterStateCodec>(net.router);
  const core::RouterBlock block(codec, noc::RouterEnv{&net, noc::Coord{2, 2}});
  noc::RouterState s(net.router);
  s.queues[0].fifo.push(
      noc::Flit{noc::FlitType::kHead, noc::make_head_payload(4, 2, 0, 1)});
  const BitVector old_word = codec->serialize(s);
  BitVector new_word(codec->state_bits());
  std::vector<BitVector> in;
  std::vector<BitVector> out;
  for (std::size_t p = 0; p < block.num_inputs(); ++p) {
    in.emplace_back(block.input_width(p));
  }
  for (std::size_t p = 0; p < block.num_outputs(); ++p) {
    out.emplace_back(block.output_width(p));
  }
  for (auto _ : state) {
    block.evaluate(old_word, in, new_word, out);
    benchmark::DoNotOptimize(new_word);
  }
}
BENCHMARK(BM_RouterWordEvaluate);

/// A saturated router's registers: every queue partly or fully occupied
/// with wrapped pointers, half the routes locked (with a BODY at the head,
/// as the arbiter requires) and the other half holding a HEAD bound for a
/// router of the 6×6 networks below, busy output VCs with varied credits,
/// scattered arbiter pointers. The reset word is all-zero slots and empty
/// queues, which is not what a loaded network decodes.
noc::RouterState loaded_state(const noc::RouterConfig& cfg) {
  noc::RouterState s(cfg);
  for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
    noc::QueueState& qs = s.queues[q];
    for (std::size_t i = 0; i < q % cfg.queue_depth; ++i) {
      qs.fifo.push(noc::Flit{noc::FlitType::kBody, 0});
      qs.fifo.pop();
    }
    const std::size_t fill = 1 + q % cfg.queue_depth;
    qs.locked = q % 2 == 0;
    for (std::size_t i = 0; i < fill; ++i) {
      const auto bits = static_cast<std::uint16_t>(0x9e37 * (q + i));
      if (i == 0 && !qs.locked) {
        const noc::HeadFields h = noc::decode_head(bits);
        qs.fifo.push(noc::Flit{noc::FlitType::kHead,
                               noc::make_head_payload(h.dest_x % 6,
                                                      h.dest_y % 6, h.vc,
                                                      h.seq)});
      } else {
        qs.fifo.push(noc::Flit{noc::FlitType::kBody, bits});
      }
    }
    qs.out_port = static_cast<noc::Port>(q % noc::kPorts);
  }
  for (std::size_t o = 0; o < cfg.num_queues(); ++o) {
    s.out_vcs[o].busy = o % 3 != 0;
    s.out_vcs[o].owner_port = static_cast<std::uint8_t>(o % noc::kPorts);
    s.out_vcs[o].credits =
        static_cast<std::uint8_t>(o % (cfg.queue_depth + 1));
  }
  for (std::size_t p = 0; p < noc::kPorts; ++p) {
    s.rr_ptr[p] = static_cast<std::uint8_t>((7 * p + 3) % cfg.num_queues());
  }
  return s;
}

/// arg 0: reset state, arg 1: loaded_state().
noc::RouterState codec_bench_state(const benchmark::State& state,
                                   const noc::RouterConfig& cfg) {
  return state.range(0) == 0 ? noc::RouterState(cfg) : loaded_state(cfg);
}

/// The five crossbar arbiters alone (compute_grants) on the reset state
/// (arg 0) and on loaded_state() (arg 1), a 6×6 torus router at (2,2).
void BM_RouterGrants(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  const noc::RouterEnv env{&net, noc::Coord{2, 2}};
  const noc::RouterState s = codec_bench_state(state, net.router);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_grants(s, env));
  }
}
BENCHMARK(BM_RouterGrants)->ArgName("loaded")->Arg(0)->Arg(1);

void BM_StateWordSerialize(benchmark::State& state) {
  const noc::RouterConfig cfg;
  const noc::RouterStateCodec codec(cfg);
  const noc::RouterState s = codec_bench_state(state, cfg);
  BitVector word(codec.state_bits());
  for (auto _ : state) {
    codec.serialize_into(s, word);
    benchmark::DoNotOptimize(word);
  }
  state.SetBytesProcessed(state.iterations() * codec.state_bits() / 8);
}
BENCHMARK(BM_StateWordSerialize)->ArgName("loaded")->Arg(0)->Arg(1);

void BM_StateWordDeserialize(benchmark::State& state) {
  const noc::RouterConfig cfg;
  const noc::RouterStateCodec codec(cfg);
  const BitVector word = codec.serialize(codec_bench_state(state, cfg));
  noc::RouterState s(cfg);
  for (auto _ : state) {
    codec.deserialize_into(word, s);
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(state.iterations() * codec.state_bits() / 8);
}
BENCHMARK(BM_StateWordDeserialize)->ArgName("loaded")->Arg(0)->Arg(1);

/// 36 resident router states per bank: the end-of-cycle commit loop of a
/// schedule that evaluated every block (round-robin, or the op program on
/// a busy network) — one pointer flip per block, no register moves. A
/// skipped block costs nothing at all, so this is the commit's ceiling.
void BM_StateMemoryRoundTrip(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  const core::NocModel nm = core::build_noc_model(net);
  std::vector<const core::SimBlock*> blocks;
  for (core::BlockId b = 0; b < nm.model.num_blocks(); ++b) {
    blocks.push_back(nm.model.block(b).logic.get());
  }
  core::StateMemory mem(blocks);
  std::vector<char> evaluated(blocks.size(), 1);
  for (auto _ : state) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (evaluated[b]) {
        mem.commit(b);
      }
    }
    benchmark::DoNotOptimize(&mem.old_state(0));
  }
  state.SetItemsProcessed(state.iterations() * blocks.size());
}
BENCHMARK(BM_StateMemoryRoundTrip);

/// The engine under the gated compiled op program; plain
/// SeqNocSimulation runs the round-robin reference.
class CompiledSeqNocSimulation : public core::SeqNocSimulation {
 public:
  explicit CompiledSeqNocSimulation(const noc::NetworkConfig& net)
      : core::SeqNocSimulation(
            net, core::EngineOptions{
                     .scheduler = core::SchedulerKind::kCompiled}) {}
};

/// One idle system cycle per engine and network size: the floor cost.
template <typename Sim>
void BM_EngineIdleStep(benchmark::State& state) {
  Sim sim(net_of(state.range(0), state.range(0)));
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_EngineIdleStep, noc::DirectNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, core::SeqNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, CompiledSeqNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, sysc::SyscNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, rtlsim::RtlNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6);

/// Loaded step (BE traffic at 10 %): the realistic per-cycle cost, at
/// steady state. Each engine's network is built and warmed once, on the
/// first repetition and before its timer starts; every repetition then
/// times one short window of the same running network, and the lane
/// reports the median window (the `_median` row), so neither the network
/// filling up nor a brief slowdown of the host sets the number.
constexpr SystemCycle kLoadedWarmupCycles = 2000;
constexpr int kLoadedWindowCycles = 64;
constexpr int kLoadedWindows = 63;

template <typename Sim>
struct LoadedNoc {
  LoadedNoc() : sim(net_of(6, 6)), h(sim, {.seed = 3}) {
    h.set_be_load(0.10);
    h.run(kLoadedWarmupCycles);
  }
  Sim sim;
  traffic::TrafficHarness h;
};

template <typename Sim>
void BM_EngineLoadedStep(benchmark::State& state) {
  static LoadedNoc<Sim> noc;
  for (auto _ : state) {
    noc.h.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
// A fixed window: engines timed over different cycle counts would time
// different stretches of the traffic.
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, noc::DirectNocSimulation)
    ->Iterations(kLoadedWindowCycles)
    ->Repetitions(kLoadedWindows)
    ->ReportAggregatesOnly(true);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, core::SeqNocSimulation)
    ->Iterations(kLoadedWindowCycles)
    ->Repetitions(kLoadedWindows)
    ->ReportAggregatesOnly(true);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, CompiledSeqNocSimulation)
    ->Iterations(kLoadedWindowCycles)
    ->Repetitions(kLoadedWindows)
    ->ReportAggregatesOnly(true);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, sysc::SyscNocSimulation)
    ->Iterations(kLoadedWindowCycles)
    ->Repetitions(kLoadedWindows)
    ->ReportAggregatesOnly(true);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, rtlsim::RtlNocSimulation)
    ->Iterations(kLoadedWindowCycles)
    ->Repetitions(kLoadedWindows)
    ->ReportAggregatesOnly(true);

/// The three networks' loaded windows interleaved in one process, so a
/// host slowdown that lasts a whole process slows every lane alike and
/// leaves their ratios readable. Each network (DirectNoc, round-robin,
/// compiled) is warmed once, like BM_EngineLoadedStep's; each iteration
/// then times one window of kLoadedWindowCycles on each, rotating which
/// lane goes first. All three run the same seeded traffic and stay on
/// the same cycle. Counters: each lane's median window in ns per cycle
/// and the compiled/DirectNoc and round-robin/DirectNoc ratios of those
/// medians (ROADMAP item 11's gap).
void BM_EngineLoadedInterleaved(benchmark::State& state) {
  static LoadedNoc<noc::DirectNocSimulation> direct;
  static LoadedNoc<core::SeqNocSimulation> rr;
  static LoadedNoc<CompiledSeqNocSimulation> compiled;
  const std::array<traffic::TrafficHarness*, 3> lanes{&direct.h, &rr.h,
                                                      &compiled.h};
  std::array<std::vector<double>, 3> ns_per_cycle;
  std::size_t first = 0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::size_t lane = (first + k) % lanes.size();
      const auto t0 = std::chrono::steady_clock::now();
      lanes[lane]->run(kLoadedWindowCycles);
      const std::chrono::duration<double, std::nano> dt =
          std::chrono::steady_clock::now() - t0;
      ns_per_cycle[lane].push_back(dt.count() / kLoadedWindowCycles);
    }
    first = (first + 1) % lanes.size();
  }
  std::array<double, 3> median{};
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    std::vector<double>& v = ns_per_cycle[lane];
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    median[lane] = v[v.size() / 2];
  }
  state.counters["direct_ns"] = median[0];
  state.counters["rr_ns"] = median[1];
  state.counters["compiled_ns"] = median[2];
  state.counters["compiled_over_direct"] = median[2] / median[0];
  state.counters["rr_over_direct"] = median[1] / median[0];
}
BENCHMARK(BM_EngineLoadedInterleaved)->Iterations(kLoadedWindows);

/// Console output as usual, plus one BenchMetric per finished run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.aggregate_unit == benchmark::kPercentage) {
        continue;  // the coefficient of variation is not a time
      }
      collected.push_back({r.benchmark_name(), r.GetAdjustedRealTime(), "ns"});
      for (const auto& [name, counter] : r.counters) {
        if (name != "items_per_second") {
          collected.push_back(
              {r.benchmark_name() + "/" + name, counter.value, "counter"});
        }
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<tmsim::bench::BenchMetric> collected;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  tmsim::bench::emit_bench_json("micro_engines", {}, reporter.collected);
  return 0;
}

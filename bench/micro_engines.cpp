// Micro-benchmarks (google-benchmark) of the primitives whose costs drive
// every number in Tables 3/4: one router evaluation, the state-word
// codec, the memory banks, and whole-engine steps across network sizes.
// Besides the console table, the run drops BENCH_micro_engines.json with
// one metric per benchmark (adjusted real time).
#include <benchmark/benchmark.h>

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

/// A saturated router's registers: every queue partly or fully occupied
/// with wrapped pointers, half the routes locked, busy output VCs with
/// varied credits, scattered arbiter pointers. The reset word is all-zero
/// slots and empty queues, which is not what a loaded network decodes.
noc::RouterState loaded_state(const noc::RouterConfig& cfg) {
  noc::RouterState s(cfg);
  for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
    noc::QueueState& qs = s.queues[q];
    for (std::size_t i = 0; i < q % cfg.queue_depth; ++i) {
      qs.fifo.push(noc::Flit{noc::FlitType::kBody, 0});
      qs.fifo.pop();
    }
    const std::size_t fill = 1 + q % cfg.queue_depth;
    for (std::size_t i = 0; i < fill; ++i) {
      qs.fifo.push(noc::Flit{i == 0 ? noc::FlitType::kHead
                                    : noc::FlitType::kBody,
                             static_cast<std::uint16_t>(0x9e37 * (q + i))});
    }
    qs.locked = q % 2 == 0;
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

void BM_StateMemoryRoundTrip(benchmark::State& state) {
  core::StateMemory mem(std::vector<std::size_t>(36, 2000));
  const BitVector word(2000);
  for (auto _ : state) {
    for (std::size_t b = 0; b < 36; ++b) {
      benchmark::DoNotOptimize(mem.read_old(b));
      mem.write_new(b, word);
    }
    mem.swap_banks();
  }
  state.SetItemsProcessed(state.iterations() * 36);
}
BENCHMARK(BM_StateMemoryRoundTrip);

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
BENCHMARK_TEMPLATE(BM_EngineIdleStep, sysc::SyscNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, rtlsim::RtlNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6);

/// Loaded step (BE traffic at 10 %): the realistic per-cycle cost.
template <typename Sim>
void BM_EngineLoadedStep(benchmark::State& state) {
  Sim sim(net_of(6, 6));
  traffic::TrafficHarness::Options opts;
  opts.seed = 3;
  traffic::TrafficHarness h(sim, opts);
  h.set_be_load(0.10);
  for (auto _ : state) {
    h.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, noc::DirectNocSimulation);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, core::SeqNocSimulation);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, sysc::SyscNocSimulation);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, rtlsim::RtlNocSimulation);

/// Console output as usual, plus one BenchMetric per finished run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      collected.push_back({r.benchmark_name(), r.GetAdjustedRealTime(), "ns"});
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

#include "traffic/harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/noc_block.h"
#include "noc/network.h"
#include "traffic/workloads.h"

namespace tmsim::traffic {
namespace {

noc::NetworkConfig net6(std::size_t depth = 4) {
  noc::NetworkConfig net;
  net.width = 6;
  net.height = 6;
  net.topology = noc::Topology::kTorus;
  net.router.queue_depth = depth;
  return net;
}

noc::NetworkConfig net3() {
  // Mesh: XY routing with packet-fixed VCs is deadlock-free on a mesh,
  // so "everything submitted is eventually delivered" is a theorem here
  // (on a torus it is not — see the torus-deadlock regression test).
  noc::NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = noc::Topology::kMesh;
  return net;
}

TrafficHarness::Options verify_opts(std::uint64_t seed = 1) {
  TrafficHarness::Options o;
  o.seed = seed;
  o.verify_payload = true;
  return o;
}

TEST(Harness, SinglePacketDeliveredIntact) {
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness h(sim, verify_opts());
  const std::size_t id =
      h.submit_packet(PacketClass::kBestEffort, 0, 4, 1, 5);
  h.run(100);
  const PacketRecord& rec = h.records().at(id);
  EXPECT_TRUE(rec.delivered);
  EXPECT_EQ(rec.flits, 6u);
  EXPECT_GT(rec.network_latency(), 0u);
  EXPECT_EQ(h.flits_injected(), 6u);
  EXPECT_EQ(h.flits_delivered(), 6u);
}

TEST(Harness, ManyRandomBePacketsAllDelivered) {
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness h(sim, verify_opts(77));
  h.set_be_load(0.05);
  h.run(2000);
  h.set_be_load(0.0);
  h.run(500);  // drain
  std::size_t delivered = 0;
  for (const auto& r : h.records()) {
    if (r.delivered) ++delivered;
  }
  EXPECT_GT(h.records().size(), 20u);
  EXPECT_EQ(delivered, h.records().size()) << "packets lost in the network";
  EXPECT_EQ(h.flits_injected(), h.flits_delivered());
  EXPECT_EQ(h.source_backlog(), 0u);
}

TEST(Harness, GtStreamsDeliverPeriodically) {
  const auto net = net6();
  noc::DirectNocSimulation sim(net);
  TrafficHarness h(sim, verify_opts(3));
  GtStream s;
  s.src = 0;
  s.dst = 2;
  s.vc = 0;
  s.period = 400;
  s.bytes = kGtPacketBytes;
  h.add_gt_stream(s);
  h.run(1700);
  const LatencySummary sum = h.summarize(PacketClass::kGuaranteedThroughput);
  EXPECT_GE(sum.delivered, 4u);
  // 129 flits over 2 hops, unloaded: close to serialization latency.
  EXPECT_GE(sum.network.min(), 129.0);
  EXPECT_LT(sum.network.max(), 200.0);
}

TEST(Harness, AccessDelayGrowsWhenVcIsBusy) {
  const auto net = net6();
  noc::DirectNocSimulation sim(net);
  TrafficHarness h(sim, verify_opts(4));
  // Two packets back to back on the same VC: the second waits in the
  // source queue while the first drains at 1 flit/cycle.
  h.submit_packet(PacketClass::kBestEffort, 0, 1, 0, 64);
  h.submit_packet(PacketClass::kBestEffort, 0, 1, 0, 5);
  h.run(300);
  const auto& r1 = h.records()[1];
  ASSERT_TRUE(r1.delivered);
  EXPECT_GE(r1.access_delay(), 60u);
}

TEST(Harness, WormholeKeepsPacketsContiguousPerVc) {
  // verify_payload checks flit-exact reassembly; two sources hammering
  // the same destination VC exercises the output-VC wormhole lock.
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness h(sim, verify_opts(5));
  for (int i = 0; i < 8; ++i) {
    h.submit_packet(PacketClass::kBestEffort, 0, 4, 2, 5);
    h.submit_packet(PacketClass::kBestEffort, 8, 4, 2, 5);
    h.submit_packet(PacketClass::kBestEffort, 3, 4, 2, 5);
  }
  h.run(800);
  for (const auto& r : h.records()) {
    EXPECT_TRUE(r.delivered);
  }
}

TEST(Harness, CreditsNeverExceedQueueDepth) {
  // Runs with payload verification on, which also asserts the NI credit
  // invariants internally; this is a smoke test at a load near saturation.
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness h(sim, verify_opts(6));
  h.set_be_load(0.3, {0, 1, 2, 3});
  h.run(1500);
  EXPECT_GT(h.flits_delivered(), 500u);
}

TEST(Harness, OverloadFlagTripsUnderExcessLoad) {
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness::Options opts;
  opts.seed = 9;
  opts.overload_threshold = 200;
  TrafficHarness h(sim, opts);
  h.set_be_load(0.95, {0, 1, 2, 3});
  h.run(3000);
  EXPECT_TRUE(h.overloaded());
}

TEST(Harness, StopOnOverloadHaltsEarly) {
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness::Options opts;
  opts.seed = 9;
  opts.overload_threshold = 100;
  opts.stop_on_overload = true;
  TrafficHarness h(sim, opts);
  h.set_be_load(0.95, {0, 1, 2, 3});
  h.run(5000);
  EXPECT_TRUE(h.overloaded());
  EXPECT_LT(sim.cycle(), 5000u);
}

TEST(Harness, WarmupExcludesEarlyPackets) {
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness::Options opts;
  opts.seed = 10;
  opts.warmup_cycles = 1000;
  TrafficHarness h(sim, opts);
  h.submit_packet(PacketClass::kBestEffort, 0, 4, 0, 5);
  h.run(1500);
  EXPECT_EQ(h.summarize(PacketClass::kBestEffort).delivered, 0u);
}

TEST(Harness, RejectsInvalidSubmissions) {
  const auto net = net3();
  noc::DirectNocSimulation sim(net);
  TrafficHarness h(sim);
  EXPECT_THROW(h.submit_packet(PacketClass::kBestEffort, 0, 0, 0, 5),
               tmsim::Error);  // src == dst
  EXPECT_THROW(h.submit_packet(PacketClass::kBestEffort, 0, 99, 0, 5),
               tmsim::Error);
  EXPECT_THROW(h.submit_packet(PacketClass::kBestEffort, 0, 1, 7, 5),
               tmsim::Error);
}

/// Flits submitted and not yet injected, recounted from the records.
std::size_t recount_backlog(const TrafficHarness& h) {
  std::size_t submitted = 0;
  for (const PacketRecord& r : h.records()) {
    submitted += r.flits;
  }
  return submitted - h.flits_injected();
}

TEST(Harness, BacklogCounterMatchesARecountEveryCycle) {
  // The GT run drives the gated compiled engine, so the idle jump is
  // exercised too; the others drive the golden model.
  struct Run {
    const char* name;
    std::function<void(TrafficHarness&)> setup;
    TrafficHarness::Options opts;
    std::size_t cycles;
    bool on_engine = false;
  };
  TrafficHarness::Options stop;
  stop.seed = 9;
  stop.overload_threshold = 100;
  stop.stop_on_overload = true;
  const std::vector<Run> runs = {
      {"gt",
       [](TrafficHarness& h) {
         for (const GtStream& s : fig1_gt_streams(net6(), 1300)) {
           h.add_gt_stream(s);
         }
       },
       verify_opts(3), 1500, true},
      {"be", [](TrafficHarness& h) { h.set_be_load(0.1); }, verify_opts(4),
       600},
      {"saturated",
       [](TrafficHarness& h) { h.set_be_load(0.95, {0, 1, 2, 3}); },
       verify_opts(5), 600},
      {"stop_on_overload",
       [](TrafficHarness& h) { h.set_be_load(0.95, {0, 1, 2, 3}); }, stop,
       3000},
  };
  for (const Run& run : runs) {
    SCOPED_TRACE(run.name);
    const noc::NetworkConfig net = run.on_engine ? net6() : net3();
    core::SeqNocSimulation seq(
        net, core::EngineOptions{.scheduler = core::SchedulerKind::kCompiled});
    noc::DirectNocSimulation direct(net);
    noc::NocSimulation& sim =
        run.on_engine ? static_cast<noc::NocSimulation&>(seq) : direct;
    TrafficHarness h(sim, run.opts);
    run.setup(h);
    EXPECT_EQ(h.source_backlog(), 0u);
    std::size_t peak = 0;
    for (std::size_t c = 0; c < run.cycles; ++c) {
      h.run(1);
      ASSERT_EQ(h.source_backlog(), recount_backlog(h)) << "cycle " << c;
      peak = std::max(peak, h.source_backlog());
    }
    EXPECT_GT(peak, 0u);
    if (run.on_engine) {
      EXPECT_GT(seq.engine().skipped_cycles(), 0u);
    }
    if (run.opts.stop_on_overload) {
      EXPECT_TRUE(h.overloaded());
      EXPECT_LT(sim.cycle(), run.cycles);
    }
  }
}

TEST(GtValidation, DisjointStreamsPass) {
  const auto net = net6();
  const auto streams = fig1_gt_streams(net, 1300);
  EXPECT_EQ(streams.size(), 36u);  // one per node
}

TEST(GtValidation, SharedLinkVcRejected) {
  const auto net = net6();
  std::vector<GtStream> streams;
  GtStream a;
  a.src = 0;
  a.dst = 2;
  a.vc = 0;
  a.period = 100;
  GtStream b = a;
  b.src = 1;
  b.dst = 3;  // overlaps link 1→2 east on the same VC
  streams = {a, b};
  EXPECT_THROW(TrafficHarness::validate_gt_streams(net, streams),
               tmsim::Error);
  b.vc = 1;
  streams = {a, b};
  TrafficHarness::validate_gt_streams(net, streams);  // disjoint now
}

TEST(GtGuarantee, BoundFormula) {
  noc::RouterConfig cfg;
  EXPECT_EQ(gt_latency_guarantee(cfg, 129, 2), 5u * 129 + 5 * 2);
}

}  // namespace
}  // namespace tmsim::traffic

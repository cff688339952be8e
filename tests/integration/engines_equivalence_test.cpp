// Four-engine lockstep: golden reference, sequential time-multiplexed
// simulator (the paper's method), the coarse SystemC-substitute model and
// the signal-level "VHDL" model must agree bit-for-bit, cycle-for-cycle —
// the paper's central accuracy claim across its three simulation options
// (§3, §8).
#include <gtest/gtest.h>

#include <memory>

#include "core/noc_block.h"
#include "noc/lockstep.h"
#include "rtlsim/rtl_noc.h"
#include "sysc/sysc_noc.h"
#include "traffic/harness.h"
#include "traffic/workloads.h"

namespace tmsim {
namespace {

using noc::NetworkConfig;
using noc::Topology;

struct Scenario {
  std::size_t width;
  std::size_t height;
  Topology topology;
  std::size_t queue_depth;
  double be_load;
  std::uint64_t seed;
  std::size_t cycles;
  std::size_t num_vcs = 4;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return std::to_string(s.width) + "x" + std::to_string(s.height) +
         (s.topology == Topology::kTorus ? "torus" : "mesh") + "_d" +
         std::to_string(s.queue_depth) + "_v" + std::to_string(s.num_vcs) +
         "_seed" + std::to_string(s.seed);
}

class AllEngines : public ::testing::TestWithParam<Scenario> {};

TEST_P(AllEngines, BitAndCycleExactAcrossAllFourEngines) {
  const Scenario& sc = GetParam();
  NetworkConfig net;
  net.width = sc.width;
  net.height = sc.height;
  net.topology = sc.topology;
  net.router.queue_depth = sc.queue_depth;
  net.router.num_vcs = sc.num_vcs;

  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::make_unique<noc::DirectNocSimulation>(net));
  sims.push_back(std::make_unique<core::SeqNocSimulation>(net));
  sims.push_back(std::make_unique<sysc::SyscNocSimulation>(net));
  sims.push_back(std::make_unique<rtlsim::RtlNocSimulation>(net));
  noc::LockstepNocSimulation lockstep(std::move(sims));

  traffic::TrafficHarness::Options opts;
  opts.seed = sc.seed;
  opts.verify_payload = true;
  traffic::TrafficHarness h(lockstep, opts);
  std::vector<unsigned> vcs;
  for (unsigned v = 0; v < sc.num_vcs; ++v) {
    vcs.push_back(v);
  }
  h.set_be_load(sc.be_load, vcs);
  for (std::size_t chunk = 0; chunk < sc.cycles; chunk += 100) {
    h.run(100);  // lockstep throws on the first diverging bit
    noc::check_credit_invariant(lockstep);
  }
  h.set_be_load(0.0, vcs);
  h.run(150);  // drain
  EXPECT_GT(h.flits_delivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Networks, AllEngines,
    ::testing::Values(
        Scenario{1, 2, Topology::kTorus, 4, 0.25, 21, 250},
        Scenario{2, 2, Topology::kTorus, 4, 0.20, 22, 250},
        Scenario{3, 3, Topology::kTorus, 4, 0.12, 23, 250},
        Scenario{3, 3, Topology::kMesh, 2, 0.12, 24, 250},
        Scenario{4, 4, Topology::kTorus, 2, 0.10, 25, 250},
        Scenario{4, 4, Topology::kMesh, 4, 0.25, 26, 250},
        Scenario{5, 3, Topology::kTorus, 1, 0.08, 27, 200},
        Scenario{6, 6, Topology::kTorus, 2, 0.06, 28, 200},
        // Reduced-VC builds (§7.1's configurability at synthesis time).
        Scenario{3, 3, Topology::kMesh, 4, 0.10, 29, 250, 1},
        Scenario{3, 3, Topology::kTorus, 2, 0.10, 30, 250, 2},
        Scenario{4, 4, Topology::kMesh, 4, 0.15, 31, 250, 3}),
    scenario_name);

TEST(AllEnginesGt, GtPlusBeWorkloadStaysExact) {
  NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = Topology::kTorus;
  net.router.queue_depth = 2;
  std::vector<std::unique_ptr<noc::NocSimulation>> sims;
  sims.push_back(std::make_unique<noc::DirectNocSimulation>(net));
  sims.push_back(std::make_unique<core::SeqNocSimulation>(net));
  sims.push_back(std::make_unique<sysc::SyscNocSimulation>(net));
  sims.push_back(std::make_unique<rtlsim::RtlNocSimulation>(net));
  noc::LockstepNocSimulation lockstep(std::move(sims));
  traffic::TrafficHarness::Options opts;
  opts.seed = 99;
  opts.verify_payload = true;
  traffic::TrafficHarness h(lockstep, opts);
  for (const auto& s : traffic::fig1_gt_streams(net, 800)) {
    h.add_gt_stream(s);
  }
  h.set_be_load(0.05);
  h.run(900);
  EXPECT_GT(h.summarize(traffic::PacketClass::kGuaranteedThroughput).delivered,
            5u);
  noc::check_credit_invariant(lockstep);
}

}  // namespace
}  // namespace tmsim

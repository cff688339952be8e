// Pins the architectural state word itself. Every differential compares
// lanes that share one RouterStateCodec, so a codec that placed bits
// consistently wrong would pass all of them while breaking Table 1, the
// FPGA model and checkpoint compatibility. These constants fix the
// encoding: the FNV-1a hash of the reset word per router shape, and the
// engine state digest of a loaded 6x6 mesh at three cycles.
//
// The constants were recorded from the field-by-field codec that the
// compiled field plan replaced; a deliberate change of the state-word
// encoding must re-record them (the failure message prints the new value)
// and breaks every stored checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/noc_block.h"
#include "noc/router_state.h"
#include "traffic/harness.h"
#include "traffic/workloads.h"

namespace tmsim::noc {
namespace {

std::uint64_t fnv1a_words(const BitVector& word) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t w : word.words()) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct PinnedReset {
  std::size_t num_vcs;
  std::size_t queue_depth;
  std::size_t state_bits;
  std::uint64_t hash;
};

constexpr PinnedReset kPinnedResets[] = {
    {4, 4, 1785, 16684312281087004930ull},
    {2, 2, 510, 946078977761587135ull},
    {1, 15, 1470, 18015276214836832221ull},
};

TEST(StateWordPin, ResetWordMatchesRecordedHashes) {
  for (const PinnedReset& p : kPinnedResets) {
    SCOPED_TRACE("vcs=" + std::to_string(p.num_vcs) +
                 " depth=" + std::to_string(p.queue_depth));
    RouterConfig cfg;
    cfg.num_vcs = p.num_vcs;
    cfg.queue_depth = p.queue_depth;
    const RouterStateCodec codec(cfg);
    EXPECT_EQ(codec.state_bits(), p.state_bits);
    EXPECT_EQ(fnv1a_words(codec.reset_word()), p.hash);
  }
}

TEST(StateWordPin, LoadedMeshDigestMatchesRecordedHashes) {
  // 6x6 mesh, BE at 0.30 plus the Fig. 1 GT streams, round-robin
  // engine.
  NetworkConfig net;
  net.width = 6;
  net.height = 6;
  net.topology = Topology::kMesh;
  core::SeqNocSimulation sim(net);
  traffic::TrafficHarness::Options opts;
  opts.seed = 1;
  traffic::TrafficHarness h(sim, opts);
  for (const traffic::GtStream& s : traffic::fig1_gt_streams(net, 2400)) {
    h.add_gt_stream(s);
  }
  h.set_be_load(0.30);

  struct Pinned {
    SystemCycle cycle;
    std::uint64_t digest;
  };
  constexpr Pinned kPinned[] = {{0, 16326928134586741285ull},
                               {500, 14297472477979934801ull},
                               {1500, 15996668741560052392ull}};
  for (const Pinned& p : kPinned) {
    h.run(p.cycle - sim.cycle());
    SCOPED_TRACE("cycle=" + std::to_string(p.cycle));
    EXPECT_EQ(core::engine_state_digest(sim.engine()), p.digest);
  }
}

}  // namespace
}  // namespace tmsim::noc

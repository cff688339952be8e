// Property tests of the block-graph partitioner: it must produce a
// balanced, complete, disjoint cover of the blocks, and it must never cut
// more links than the two trivial partitions kept here as baselines —
// blind round-robin (b mod N) and contiguous stripes — on the structured
// graphs it is meant for (rings, meshes, tori).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/example_blocks.h"
#include "core/noc_block.h"
#include "core/partition.h"

namespace tmsim::core {
namespace {

using examples::PipeBlock;


/// n PipeBlocks in a directed combinational ring (output depends on
/// registered state, so the ring settles — and the partitioner only
/// looks at structure anyway).
SystemModel make_ring(std::size_t n) {
  SystemModel m;
  auto blk = std::make_shared<PipeBlock>(8, 1);
  std::vector<BlockId> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(m.add_block(blk, "p" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const LinkId l =
        m.add_link("l" + std::to_string(i), 8, LinkKind::kCombinational);
    m.bind_output(blocks[i], 0, l);
    m.bind_input(blocks[(i + 1) % n], 0, l);
  }
  m.finalize();
  return m;
}

/// Builds a Partition from a block -> shard map.
Partition from_shard_of(std::vector<std::size_t> shard_of,
                        std::size_t num_shards) {
  Partition p;
  p.shards.assign(num_shards, {});
  for (BlockId b = 0; b < shard_of.size(); ++b) {
    p.shards[shard_of[b]].push_back(b);
  }
  p.shard_of = std::move(shard_of);
  return p;
}

/// Baseline: block b -> shard b mod N. Scatters grid neighbours.
Partition round_robin_baseline(const SystemModel& m, std::size_t k) {
  std::vector<std::size_t> shard_of(m.num_blocks());
  for (BlockId b = 0; b < m.num_blocks(); ++b) {
    shard_of[b] = b % k;
  }
  return from_shard_of(std::move(shard_of), k);
}

/// Baseline: blocks in id order split into k near-equal runs — stripes,
/// since the NoC builder emits routers row-major.
Partition stripes_baseline(const SystemModel& m, std::size_t k) {
  const std::size_t n = m.num_blocks();
  std::vector<std::size_t> shard_of(n);
  BlockId b = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t size = n / k + (s < n % k ? 1 : 0);
    for (std::size_t i = 0; i < size; ++i) {
      shard_of[b++] = s;
    }
  }
  return from_shard_of(std::move(shard_of), k);
}

void check_cover(const SystemModel& model, const Partition& p,
                 std::size_t num_shards) {
  ASSERT_EQ(p.num_shards(), num_shards);
  ASSERT_EQ(p.shard_of.size(), model.num_blocks());
  // Complete and disjoint: every block appears in exactly one shard, and
  // shard_of agrees with the shard lists.
  std::vector<int> seen(model.num_blocks(), 0);
  for (std::size_t s = 0; s < p.num_shards(); ++s) {
    for (const BlockId b : p.shards[s]) {
      ASSERT_LT(b, model.num_blocks());
      ASSERT_EQ(seen[b], 0) << "block " << b << " assigned twice";
      seen[b] = 1;
      ASSERT_EQ(p.shard_of[b], s);
    }
  }
  ASSERT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(model.num_blocks()));
  // Balanced: floor/ceil of n / num_shards.
  const std::size_t lo = model.num_blocks() / num_shards;
  const std::size_t hi = lo + (model.num_blocks() % num_shards ? 1 : 0);
  for (std::size_t s = 0; s < p.num_shards(); ++s) {
    ASSERT_GE(p.shards[s].size(), lo);
    ASSERT_LE(p.shards[s].size(), hi);
  }
}

void check_covers(const SystemModel& m) {
  for (const std::size_t k : {1u, 2u, 3u, 4u, 7u}) {
    if (k > m.num_blocks()) {
      continue;
    }
    SCOPED_TRACE("k=" + std::to_string(k));
    check_cover(m, partition_blocks(m, k), k);
  }
}

TEST(Partition, EveryPolicyCoversMesh) {
  noc::NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = noc::Topology::kMesh;
  const NocModel nm = build_noc_model(net);
  check_covers(nm.model);
}

TEST(Partition, EveryPolicyCoversAsymmetricTorus) {
  noc::NetworkConfig net;
  net.width = 5;
  net.height = 3;
  net.topology = noc::Topology::kTorus;
  const NocModel nm = build_noc_model(net);
  check_covers(nm.model);
}

TEST(Partition, EveryPolicyCoversRing) {
  const SystemModel ring = make_ring(17);
  check_covers(ring);
}

TEST(Partition, SingleShardCutsNothing) {
  noc::NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = noc::Topology::kTorus;
  const NocModel nm = build_noc_model(net);
  EXPECT_EQ(count_cut_links(nm.model, partition_blocks(nm.model, 1)), 0u);
}

TEST(Partition, ExternalLinksNeverCountAsCut) {
  // A NoC model has 3 external links per router (local in/out/credit);
  // with one router per shard every *internal* link is cut, but the
  // externals must not be: they have no writer or no readers, so no
  // shard boundary can run through them.
  noc::NetworkConfig net;
  net.width = 2;
  net.height = 2;
  net.topology = noc::Topology::kMesh;
  const NocModel nm = build_noc_model(net);
  const Partition p = partition_blocks(nm.model, 4);
  std::size_t internal = 0;
  for (LinkId l = 0; l < nm.model.num_links(); ++l) {
    const LinkInfo& info = nm.model.link(l);
    if (info.writer && !info.readers.empty()) {
      ++internal;
    }
  }
  EXPECT_EQ(count_cut_links(nm.model, p), internal);
}

TEST(Partition, GreedyCutsNoMoreThanRoundRobinOnNocs) {
  struct Spec {
    std::size_t w, h;
    noc::Topology topo;
  };
  const Spec specs[] = {{4, 4, noc::Topology::kMesh},
                        {4, 4, noc::Topology::kTorus},
                        {8, 8, noc::Topology::kMesh},
                        {8, 8, noc::Topology::kTorus},
                        {5, 3, noc::Topology::kTorus}};
  for (const Spec& spec : specs) {
    noc::NetworkConfig net;
    net.width = spec.w;
    net.height = spec.h;
    net.topology = spec.topo;
    const NocModel nm = build_noc_model(net);
    for (const std::size_t k : {2u, 4u, 8u}) {
      const std::size_t greedy =
          count_cut_links(nm.model, partition_blocks(nm.model, k));
      const std::size_t rr =
          count_cut_links(nm.model, round_robin_baseline(nm.model, k));
      const std::size_t stripes =
          count_cut_links(nm.model, stripes_baseline(nm.model, k));
      SCOPED_TRACE(std::to_string(spec.w) + "x" + std::to_string(spec.h) +
                   (spec.topo == noc::Topology::kMesh ? " mesh" : " torus") +
                   " k=" + std::to_string(k));
      EXPECT_LE(greedy, rr);
      EXPECT_LE(greedy, stripes);
    }
  }
}

TEST(Partition, GreedyCutsNoMoreThanRoundRobinOnRing) {
  // On a ring, round-robin cuts *every* link for k >= 2; the greedy
  // grower should keep runs together and cut only ~k of them. This
  // pins the policy actually doing its job, not just tying.
  const SystemModel ring = make_ring(24);
  const std::size_t rr = count_cut_links(ring, round_robin_baseline(ring, 4));
  const std::size_t stripes =
      count_cut_links(ring, stripes_baseline(ring, 4));
  const std::size_t greedy = count_cut_links(ring, partition_blocks(ring, 4));
  EXPECT_EQ(rr, 24u);
  EXPECT_LE(greedy, 8u);
  EXPECT_LE(greedy, stripes);
}

TEST(Partition, RejectsBadShardCounts) {
  const SystemModel ring = make_ring(4);
  EXPECT_THROW(partition_blocks(ring, 0), Error);
  EXPECT_THROW(partition_blocks(ring, 5), Error);
}

}  // namespace
}  // namespace tmsim::core

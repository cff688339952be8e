// Block-graph partitioning for the sharded bulk-synchronous engine.
//
// A partition assigns every block of a finalized SystemModel to exactly
// one shard. The quality metric is the *cut*: the number of links whose
// writer and at least one reader land in different shards — each cut
// link becomes a mailbox slot the shards must synchronize through at
// every delta-cycle barrier, so fewer cuts mean less superstep traffic
// (GSIM's observation that graph partitioning is the scaling lever for
// parallel cycle-accurate simulation).
//
// One partitioner, min-cut greedy: it grows each shard around a seed by
// repeatedly absorbing the unassigned block with the strongest link
// affinity to the shard (ties to the lowest id). On rings, meshes and
// tori this yields connected regions that cut no more links than the
// round-robin (b mod N) or stripe baselines (property-tested in
// tests/core/partition_test.cpp). It is deterministic: the same
// (model, num_shards) always yields the same partition — a prerequisite
// for the replayable differential tests.
#pragma once

#include <cstddef>
#include <vector>

#include "core/system_model.h"

namespace tmsim::core {

struct Partition {
  /// Block ids per shard, ascending within each shard. Every block of
  /// the model appears in exactly one shard (complete, disjoint cover).
  std::vector<std::vector<BlockId>> shards;
  /// Inverse map: shard_of[b] is the shard holding block b.
  std::vector<std::size_t> shard_of;

  std::size_t num_shards() const { return shards.size(); }
};

/// Partitions the model's blocks into `num_shards` shards
/// (1 <= num_shards <= num_blocks). Shard sizes are balanced: every
/// shard holds floor(n/N) or ceil(n/N) blocks.
Partition partition_blocks(const SystemModel& model, std::size_t num_shards);

/// Number of links whose writer block and at least one reader block live
/// in different shards — the boundary the sharded engine must exchange
/// through mailboxes. External links (no writer, or no readers) never
/// count: they are testbench-owned, not shard-to-shard traffic.
std::size_t count_cut_links(const SystemModel& model, const Partition& p);

}  // namespace tmsim::core

#include "core/partition.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace tmsim::core {

namespace {

/// Balanced shard sizes: the first n mod N shards get one extra block.
std::vector<std::size_t> target_sizes(std::size_t n, std::size_t num_shards) {
  std::vector<std::size_t> sizes(num_shards, n / num_shards);
  for (std::size_t s = 0; s < n % num_shards; ++s) {
    ++sizes[s];
  }
  return sizes;
}

/// Symmetric block-affinity adjacency: weight = number of links joining
/// the two blocks in either direction (a writer is affine to each of its
/// readers). Self-loops are ignored — they never cross a shard boundary.
std::vector<std::vector<std::pair<BlockId, std::size_t>>> affinity(
    const SystemModel& model) {
  std::vector<std::vector<std::pair<BlockId, std::size_t>>> adj(
      model.num_blocks());
  const auto bump = [&](BlockId a, BlockId b) {
    for (auto& [peer, w] : adj[a]) {
      if (peer == b) {
        ++w;
        return;
      }
    }
    adj[a].emplace_back(b, 1);
  };
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (!info.writer.has_value()) continue;
    for (const Endpoint& r : info.readers) {
      if (r.block == info.writer->block) continue;
      bump(info.writer->block, r.block);
      bump(r.block, info.writer->block);
    }
  }
  return adj;
}

void fill_min_cut_greedy(const SystemModel& model, Partition& p,
                         std::size_t n, std::size_t num_shards) {
  const std::vector<std::size_t> sizes = target_sizes(n, num_shards);
  const auto adj = affinity(model);
  constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();
  std::fill(p.shard_of.begin(), p.shard_of.end(), kUnassigned);
  // Affinity of each unassigned block to the shard currently growing.
  std::vector<std::size_t> gain(n, 0);

  BlockId next_seed = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::fill(gain.begin(), gain.end(), 0);
    while (next_seed < n && p.shard_of[next_seed] != kUnassigned) {
      ++next_seed;
    }
    BlockId frontier = next_seed;
    for (std::size_t grown = 0; grown < sizes[s]; ++grown) {
      p.shard_of[frontier] = s;
      for (const auto& [peer, w] : adj[frontier]) {
        if (p.shard_of[peer] == kUnassigned) {
          gain[peer] += w;
        }
      }
      if (grown + 1 == sizes[s]) break;
      // Next absorbed block: strongest affinity to the shard; ties to
      // the lowest id. A disconnected remainder falls back to the
      // lowest-id unassigned block (gain 0 everywhere).
      std::size_t best_gain = 0;
      BlockId best = kUnassigned;
      for (BlockId b = 0; b < n; ++b) {
        if (p.shard_of[b] != kUnassigned) continue;
        if (best == kUnassigned || gain[b] > best_gain) {
          best = b;
          best_gain = gain[b];
        }
      }
      frontier = best;
    }
  }
}

}  // namespace

Partition partition_blocks(const SystemModel& model, std::size_t num_shards) {
  TMSIM_CHECK_MSG(model.finalized(), "model must be finalized");
  const std::size_t n = model.num_blocks();
  TMSIM_CHECK_MSG(num_shards >= 1, "need at least one shard");
  TMSIM_CHECK_MSG(num_shards <= n,
                  "more shards than blocks (empty shards are useless)");

  Partition p;
  p.shard_of.assign(n, 0);  // already the one-shard partition
  if (num_shards > 1) {
    fill_min_cut_greedy(model, p, n, num_shards);
  }

  p.shards.assign(num_shards, {});
  for (BlockId b = 0; b < n; ++b) {
    p.shards[p.shard_of[b]].push_back(b);
  }
  return p;
}

std::size_t count_cut_links(const SystemModel& model, const Partition& p) {
  std::size_t cut = 0;
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (!info.writer.has_value() || info.readers.empty()) continue;
    const std::size_t ws = p.shard_of.at(info.writer->block);
    for (const Endpoint& r : info.readers) {
      if (p.shard_of.at(r.block) != ws) {
        ++cut;
        break;
      }
    }
  }
  return cut;
}

}  // namespace tmsim::core

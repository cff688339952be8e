#include "analysis/static_schedule.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/error.h"

namespace tmsim::analysis {

using core::BlockId;
using core::LinkId;
using core::LinkInfo;
using core::LinkKind;
using core::SystemModel;

namespace {

constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

/// Everything the emission pass needs about the pruned link graph.
struct LinkGraph {
  std::vector<std::uint32_t> node_of;    // per link; kNoNode if untracked
  std::vector<LinkId> link_of;           // per node
  std::vector<std::vector<std::uint32_t>> adj;  // pruned edges, per node
  std::vector<char> self_edge;           // per node
};

LinkGraph build_link_graph(const SystemModel& model) {
  LinkGraph g;
  const std::size_t n = model.num_blocks();
  // Tracked links: combinational, block-driven and block-read. Everything
  // else — registered links, external links — is final at cycle start.
  g.node_of.assign(model.num_links(), kNoNode);
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (info.kind != LinkKind::kCombinational || !info.writer.has_value() ||
        info.readers.empty()) {
      continue;
    }
    g.node_of[l] = static_cast<std::uint32_t>(g.link_of.size());
    g.link_of.push_back(l);
  }
  g.adj.assign(g.link_of.size(), {});
  g.self_edge.assign(g.link_of.size(), 0);
  // Pruned edges: li→lo when a block reads li on port p, writes lo on
  // port q, and the block's dependency metadata keeps (q, p).
  for (BlockId b = 0; b < n; ++b) {
    const core::BlockInstance& inst = model.block(b);
    for (std::size_t p = 0; p < inst.input_links.size(); ++p) {
      const std::uint32_t src = g.node_of[inst.input_links[p]];
      if (src == kNoNode) {
        continue;
      }
      for (std::size_t q = 0; q < inst.output_links.size(); ++q) {
        const std::uint32_t dst = g.node_of[inst.output_links[q]];
        if (dst == kNoNode) {
          continue;
        }
        if (!inst.logic->output_depends_on_input(q, p)) {
          continue;
        }
        g.adj[src].push_back(dst);
        if (src == dst) {
          g.self_edge[src] = 1;
        }
      }
    }
  }
  return g;
}

/// Iterative Tarjan over the link graph; returns the node list of every
/// *cyclic* SCC (size > 1, or a single node with a self-edge).
std::vector<std::vector<std::uint32_t>> cyclic_sccs(const LinkGraph& g) {
  const std::size_t nn = g.link_of.size();
  std::vector<std::int64_t> idx(nn, -1);
  std::vector<std::int64_t> low(nn, 0);
  std::vector<char> on_stack(nn, 0);
  std::vector<std::uint32_t> stk;
  std::vector<std::vector<std::uint32_t>> out;
  std::int64_t next_index = 0;
  struct Frame {
    std::uint32_t node;
    std::size_t edge;
  };
  std::vector<Frame> frames;
  for (std::uint32_t root = 0; root < nn; ++root) {
    if (idx[root] >= 0) {
      continue;
    }
    idx[root] = low[root] = next_index++;
    stk.push_back(root);
    on_stack[root] = 1;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      const std::uint32_t v = frames.back().node;
      if (frames.back().edge < g.adj[v].size()) {
        const std::uint32_t w = g.adj[v][frames.back().edge++];
        if (idx[w] < 0) {
          idx[w] = low[w] = next_index++;
          stk.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], idx[w]);
        }
        continue;
      }
      if (low[v] == idx[v]) {
        std::vector<std::uint32_t> comp;
        while (true) {
          const std::uint32_t w = stk.back();
          stk.pop_back();
          on_stack[w] = 0;
          comp.push_back(w);
          if (w == v) {
            break;
          }
        }
        if (comp.size() > 1 || g.self_edge[v]) {
          out.push_back(std::move(comp));
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::uint32_t parent = frames.back().node;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  // Deterministic presentation order: by smallest member link id.
  std::sort(out.begin(), out.end(),
            [&](const auto& a, const auto& b) {
              const LinkId la =
                  g.link_of[*std::min_element(a.begin(), a.end())];
              const LinkId lb =
                  g.link_of[*std::min_element(b.begin(), b.end())];
              return la < lb;
            });
  return out;
}

/// Greedy drive plan: the complement of a maximal block set whose
/// induced read-graph (writer→reader over tracked acyclic links) stays
/// acyclic. Blocks outside that set are the preferred kDrive targets —
/// driving them early is what lets everything else commit in one pass.
/// Processing blocks in ascending id keeps the plan deterministic; on a
/// torus this picks a checkerboard-like feedback set (≈ half the
/// routers), giving ~1.5 evaluations per block per cycle instead of 2.
std::vector<BlockId> drive_plan(const SystemModel& model, const LinkGraph& g,
                                const std::vector<std::uint32_t>& scc_of_link) {
  const std::size_t n = model.num_blocks();
  std::vector<std::vector<BlockId>> succ(n);
  std::vector<char> has_edges(n, 0);
  for (std::uint32_t node = 0; node < g.link_of.size(); ++node) {
    const LinkId l = g.link_of[node];
    if (scc_of_link[l] != 0) {
      continue;  // settle regions handle their own ordering
    }
    const LinkInfo& info = model.link(l);
    const BlockId w = info.writer->block;
    const BlockId r = info.readers.front().block;
    if (w == r) {
      continue;
    }
    succ[w].push_back(r);
    has_edges[w] = has_edges[r] = 1;
  }
  std::vector<char> kept(n, 0);
  std::vector<BlockId> plan;
  std::vector<BlockId> dfs;
  std::vector<char> seen(n, 0);
  for (BlockId b = 0; b < n; ++b) {
    if (!has_edges[b]) {
      kept[b] = 1;  // isolated in the read graph: can never close a cycle
      continue;
    }
    // Would adding b close a cycle through the kept set? DFS from b's
    // successors, restricted to kept ∪ {b}, looking for b.
    bool cycle = false;
    dfs.clear();
    std::vector<BlockId> touched;
    for (BlockId s : succ[b]) {
      if (kept[s] && !seen[s]) {
        seen[s] = 1;
        touched.push_back(s);
        dfs.push_back(s);
      }
    }
    while (!dfs.empty() && !cycle) {
      const BlockId v = dfs.back();
      dfs.pop_back();
      for (BlockId s : succ[v]) {
        if (s == b) {
          cycle = true;
          break;
        }
        if (kept[s] && !seen[s]) {
          seen[s] = 1;
          touched.push_back(s);
          dfs.push_back(s);
        }
      }
    }
    for (BlockId t : touched) {
      seen[t] = 0;
    }
    if (cycle) {
      plan.push_back(b);
    } else {
      kept[b] = 1;
    }
  }
  return plan;
}

}  // namespace

CompiledSchedule build_compiled_schedule(const SystemModel& model) {
  TMSIM_CHECK_MSG(model.finalized(), "model must be finalized");
  const LinkGraph g = build_link_graph(model);
  const std::size_t n = model.num_blocks();

  CompiledSchedule sched;
  sched.num_blocks = n;
  sched.scc_of_link.assign(model.num_links(), 0);

  const std::vector<std::vector<std::uint32_t>> comps = cyclic_sccs(g);
  sched.sccs.reserve(comps.size());
  for (const auto& comp : comps) {
    CompiledScc scc;
    scc.links.reserve(comp.size());
    for (std::uint32_t node : comp) {
      scc.links.push_back(g.link_of[node]);
    }
    std::sort(scc.links.begin(), scc.links.end());
    for (LinkId l : scc.links) {
      sched.scc_of_link[l] = static_cast<std::uint32_t>(sched.sccs.size()) + 1;
      const LinkInfo& info = model.link(l);
      scc.blocks.push_back(info.writer->block);
      scc.blocks.push_back(info.readers.front().block);
    }
    std::sort(scc.blocks.begin(), scc.blocks.end());
    scc.blocks.erase(std::unique(scc.blocks.begin(), scc.blocks.end()),
                     scc.blocks.end());
    sched.sccs.push_back(std::move(scc));
  }

  // --- Emission bookkeeping -------------------------------------------
  std::vector<char> final_link(model.num_links(), 0);
  std::vector<std::size_t> deps_pending(model.num_links(), 0);
  std::vector<std::size_t> inputs_pending(n, 0);
  std::vector<std::size_t> scc_ext_pending(sched.sccs.size(), 0);
  std::vector<char> committed(n, 0);

  for (std::uint32_t node = 0; node < g.link_of.size(); ++node) {
    for (std::uint32_t dst : g.adj[node]) {
      ++deps_pending[g.link_of[dst]];
      const std::uint32_t s_src = sched.scc_of_link[g.link_of[node]];
      const std::uint32_t s_dst = sched.scc_of_link[g.link_of[dst]];
      if (s_dst != 0 && s_src != s_dst) {
        ++scc_ext_pending[s_dst - 1];
      }
    }
  }
  for (BlockId b = 0; b < n; ++b) {
    for (LinkId li : model.block(b).input_links) {
      if (g.node_of[li] != kNoNode) {
        ++inputs_pending[b];
      }
    }
  }

  std::priority_queue<BlockId, std::vector<BlockId>, std::greater<>> ready;
  for (BlockId b = 0; b < n; ++b) {
    if (inputs_pending[b] == 0) {
      ready.push(b);
    }
  }

  // Finalizing a link unblocks its reader, its dependent links, and any
  // SCC waiting on it.
  const auto finalize = [&](LinkId l) {
    final_link[l] = 1;
    const LinkInfo& info = model.link(l);
    const BlockId r = info.readers.front().block;
    if (--inputs_pending[r] == 0 && !committed[r]) {
      ready.push(r);
    }
    const std::uint32_t s_src = sched.scc_of_link[l];
    for (std::uint32_t dst : g.adj[g.node_of[l]]) {
      const LinkId lo = g.link_of[dst];
      --deps_pending[lo];
      const std::uint32_t s_dst = sched.scc_of_link[lo];
      if (s_dst != 0 && s_src != s_dst) {
        --scc_ext_pending[s_dst - 1];
      }
    }
  };

  // Finalize every tracked, not-yet-final output of `b` whose pruned
  // dependencies are all final. At commit time that is *all* of them.
  const auto finalize_ready_outputs = [&](BlockId b, bool acyclic_only) {
    bool any = false;
    for (LinkId lo : model.block(b).output_links) {
      if (g.node_of[lo] == kNoNode || final_link[lo] ||
          deps_pending[lo] != 0) {
        continue;
      }
      if (acyclic_only && sched.scc_of_link[lo] != 0) {
        continue;
      }
      finalize(lo);
      any = true;
    }
    return any;
  };

  const auto has_driveable_output = [&](BlockId b) {
    for (LinkId lo : model.block(b).output_links) {
      if (g.node_of[lo] != kNoNode && !final_link[lo] &&
          deps_pending[lo] == 0 && sched.scc_of_link[lo] == 0) {
        return true;
      }
    }
    return false;
  };

  // Every output of `b` is final: each tracked input that feeds one is
  // final (an untracked input — external or registered — is final from
  // cycle start), so the outputs keep the values G gives them now. A
  // tracked output is final exactly when it was finalized; an untracked
  // one (no block reads it) is checked against its feeding inputs.
  const auto outputs_final = [&](BlockId b) {
    const core::BlockInstance& inst = model.block(b);
    for (std::size_t q = 0; q < inst.output_links.size(); ++q) {
      const LinkId lo = inst.output_links[q];
      if (g.node_of[lo] != kNoNode) {
        if (!final_link[lo]) {
          return false;
        }
        continue;
      }
      for (std::size_t p = 0; p < inst.input_links.size(); ++p) {
        const LinkId li = inst.input_links[p];
        if (g.node_of[li] != kNoNode && !final_link[li] &&
            inst.logic->output_depends_on_input(q, p)) {
          return false;
        }
      }
    }
    return true;
  };

  const std::vector<BlockId> plan = drive_plan(model, g, sched.scc_of_link);
  // Per block: its last kDrive left every output final.
  std::vector<char> driven_final(n, 0);
  std::vector<char> settled(sched.sccs.size(), 0);
  std::size_t remaining = n;

  while (remaining > 0) {
    // 1. Commit every ready block, lowest id first.
    if (!ready.empty()) {
      const BlockId b = ready.top();
      ready.pop();
      if (committed[b]) {
        continue;  // stale entry
      }
      sched.ops.push_back(
          {CompiledOpKind::kEval, b, 0, driven_final[b] != 0});
      ++sched.num_evals;
      committed[b] = 1;
      --remaining;
      finalize_ready_outputs(b, /*acyclic_only=*/false);
      continue;
    }
    // 2. Settle any SCC whose external dependencies are final.
    bool progressed = false;
    for (std::size_t s = 0; s < sched.sccs.size(); ++s) {
      if (settled[s] || scc_ext_pending[s] != 0) {
        continue;
      }
      settled[s] = 1;
      sched.ops.push_back(
          {CompiledOpKind::kSettle, 0, static_cast<std::uint32_t>(s)});
      for (LinkId l : sched.sccs[s].links) {
        finalize(l);
      }
      // Members whose inputs are now all final were committed by the
      // settle's own fixed-point evaluations — no separate kEval.
      for (BlockId b : sched.sccs[s].blocks) {
        if (!committed[b] && inputs_pending[b] == 0) {
          committed[b] = 1;
          --remaining;
          sched.sccs[s].committed_blocks.push_back(b);
          finalize_ready_outputs(b, /*acyclic_only=*/false);
        }
      }
      progressed = true;
      break;
    }
    if (progressed) {
      continue;
    }
    // 3. Drive: an early evaluation that finalizes outputs whose pruned
    // dependencies are already final. Prefer the precomputed plan.
    BlockId drive = n;
    for (BlockId b : plan) {
      if (!committed[b] && has_driveable_output(b)) {
        drive = b;
        break;
      }
    }
    if (drive == n) {
      for (BlockId b = 0; b < n && drive == n; ++b) {
        if (!committed[b] && has_driveable_output(b)) {
          drive = b;
        }
      }
    }
    if (drive == n) {
      // Unreachable for a well-formed model: the SCC condensation is
      // acyclic, so something is always ready, settleable, or driveable.
      throw ContextualError(
          "static schedule emission made no progress (internal error)",
          {{"remaining_blocks", std::to_string(remaining)}});
    }
    sched.ops.push_back({CompiledOpKind::kDrive, drive, 0});
    ++sched.num_drives;
    finalize_ready_outputs(drive, /*acyclic_only=*/true);
    driven_final[drive] = outputs_final(drive) ? 1 : 0;
  }
  return sched;
}

}  // namespace tmsim::analysis

#include "core/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

namespace tmsim::core {
namespace {

constexpr std::size_t kNoSlot = ~std::size_t{0};
// Barrier-2 contribution encoding an exception during the exchange
// phase; far above any possible sum of unstable-block counts.
constexpr std::uint64_t kErrorSentinel = std::uint64_t{1} << 62;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedSimulator::ShardedSimulator(const SystemModel& model,
                                   const ShardedConfig& cfg)
    : model_(model), cfg_(cfg) {
  TMSIM_CHECK_MSG(model.finalized(), "model must be finalized");
  TMSIM_CHECK_MSG(model.num_blocks() >= 1,
                  "sharded engine needs at least one block");
  TMSIM_CHECK_MSG(cfg.num_shards >= 1, "num_shards must be >= 1");
  TMSIM_CHECK_MSG(cfg.max_evals_per_block >= 1, "eval limit must be positive");
  if (cfg_.schedule == SchedulePolicy::kStatic) {
    TMSIM_CHECK_MSG(model.all_boundaries_registered(),
                    "static schedule requires registered boundaries (§4.1); "
                    "use kDynamic for combinational boundaries");
  }
  check_scheduler_topology(model, cfg_.scheduler);
  // Static, two-phase and compiled run an op program; only the dynamic
  // policy's round-robin and worklist pickups do not.
  const bool programmed = cfg_.schedule != SchedulePolicy::kDynamic ||
                          cfg_.scheduler == SchedulerKind::kCompiled;
  worklist_ = !programmed && cfg_.scheduler == SchedulerKind::kWorklist;

  const std::size_t n = model.num_blocks();
  cfg_.num_shards = std::min(cfg_.num_shards, n);
  part_ = partition_blocks(model, cfg_.num_shards, cfg_.partition);
  const std::size_t k = part_.num_shards();

  local_of_.assign(n, 0);
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t i = 0; i < part_.shards[s].size(); ++i) {
      local_of_[part_.shards[s][i]] = i;
    }
  }

  // Classify every link: which shards materialize it, who owns the
  // authoritative copy, and whether it crosses the cut (gets a mailbox
  // slot). A cut link is materialized on both sides: the writer's copy
  // does change detection, each reading shard's replica carries that
  // shard's HBR bit.
  slot_of_link_.assign(model.num_links(), kNoSlot);
  link_home_.assign(model.num_links(), 0);
  std::vector<std::size_t> slot_widths;
  std::vector<std::vector<char>> materialize(
      k, std::vector<char>(model.num_links(), 0));
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    // Home: the writer's shard, else the first reader's (an external
    // input), else shard 0 (an orphan link with no writer and no reader).
    const std::size_t home =
        info.writer ? part_.shard_of[info.writer->block]
        : info.readers.empty() ? 0
                               : part_.shard_of[info.readers.front().block];
    link_home_[l] = home;
    materialize[home][l] = 1;
    bool crosses = false;
    for (const Endpoint& r : info.readers) {
      const std::size_t rs = part_.shard_of[r.block];
      materialize[rs][l] = 1;
      crosses = crosses || (info.writer && rs != home);
    }
    if (crosses) {
      slot_of_link_[l] = slot_widths.size();
      slot_widths.push_back(info.width);
    }
  }
  boundary_links_ = slot_widths.size();
  mailbox_ = std::make_unique<ShardMailbox>(slot_widths);
  barrier_ = std::make_unique<ShardBarrier>(k);

  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::vector<BlockId>& blocks = part_.shards[s];
    std::vector<std::size_t> widths;
    widths.reserve(blocks.size());
    for (const BlockId b : blocks) {
      widths.push_back(model.block(b).logic->state_width());
    }
    auto sh = std::make_unique<Shard>(s, blocks, std::move(widths), model,
                                      materialize[s]);
    sh->unstable.assign(blocks.size(), 0);
    sh->evaluated.assign(blocks.size(), 0);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      sh->state.load_old(i, model.block(blocks[i]).logic->reset_state());
    }
    if (worklist_) {
      sh->worklist.reserve(blocks.size());
      sh->state_fixed.assign(blocks.size(), 0);
      sh->pending_input.assign(blocks.size(), 0);
      // A block is skippable only when every link it touches is
      // combinational: registered banks would rot behind the pointer
      // flip, and registered inputs change without a change event.
      sh->skippable.assign(blocks.size(), 1);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        const BlockInstance& blk = model.block(blocks[i]);
        for (const LinkId l : blk.input_links) {
          if (model.link(l).kind != LinkKind::kCombinational) {
            sh->skippable[i] = 0;
          }
        }
        for (const LinkId l : blk.output_links) {
          if (model.link(l).kind != LinkKind::kCombinational) {
            sh->skippable[i] = 0;
          }
        }
      }
    }
    if (!blocks.empty()) {
      // Shard 0 starts where the sequential §4.2 schedule starts for this
      // seed; the others are domain-separated by shard index so the
      // shards do not all start at congruent positions.
      const std::uint64_t seed =
          s == 0 || cfg_.schedule_seed == 1
              ? cfg_.schedule_seed
              : cfg_.schedule_seed + 0x9e37u * (s + 1);
      sh->rr_next = schedule_rr_offset(seed, blocks.size());
      sh->rr_init = sh->rr_next;
    }
    if (programmed) {
      // Per-shard op program over the link graph restricted to this
      // shard's membership. Cut links have one endpoint elsewhere, so
      // they drop out of the tracked set and the emitted order treats
      // them as registered edges; the superstep loop in run_cycle
      // reconciles them through the mailbox. A registered-only model
      // (the static policy's precondition) compiles to every block once
      // in ascending ids — the §4.1 Fig. 3 schedule.
      std::vector<char> member(n, 0);
      for (const BlockId b : blocks) {
        member[b] = 1;
      }
      analysis::StaticScheduleOptions opt;
      opt.include_blocks = &member;
      sh->program.emplace(
          cfg_.schedule == SchedulePolicy::kTwoPhaseOracle
              ? analysis::build_two_phase_schedule(model, opt)
              : analysis::build_compiled_schedule(model, opt));
    }
    shards_.push_back(std::move(sh));
  }

  // Subscribe each reading shard to its incoming cut links.
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const std::size_t slot = slot_of_link_[l];
    if (slot == kNoSlot) {
      continue;
    }
    const LinkInfo& info = model.link(l);
    const std::size_t writer_shard = part_.shard_of[info.writer->block];
    std::vector<char> subscribed(k, 0);
    for (const Endpoint& r : info.readers) {
      const std::size_t rs = part_.shard_of[r.block];
      if (rs == writer_shard || subscribed[rs]) {
        continue;
      }
      subscribed[rs] = 1;
      shards_[rs]->incoming.push_back(InSlot{l, slot, 0, info.kind});
    }
    if (worklist_ &&
        std::none_of(subscribed.begin(), subscribed.end(),
                     [](char c) { return c != 0; })) {
      // A mailbox slot with no subscribing shard means the link's reader
      // set dissolved under partitioning: change events would be
      // published that no worklist ever receives, and the scheduler
      // would sit at the delta budget waiting for a wakeup that never
      // comes. Structurally unreachable today (a link only gets a slot
      // because some cross-shard reader exists, and that reader's shard
      // subscribes), but cheap to refuse outright instead of hanging.
      throw ContextualError(
          "cut link '" + info.name +
              "' has an empty reader set after partitioning",
          {{"link", std::to_string(l)},
           {"name", info.name},
           {"scheduler", scheduler_kind_name(cfg_.scheduler)}});
    }
  }

  threads_.reserve(k - 1);
  for (std::size_t s = 1; s < k; ++s) {
    threads_.emplace_back([this, s] { worker_main(s); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!threads_.empty()) {
    stop_ = true;            // workers read this after the release barrier
    barrier_->sync(0);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
}

void ShardedSimulator::worker_main(std::size_t s) {
  while (true) {
    barrier_->sync(0);  // wait for the coordinator's next command
    if (stop_) {
      return;
    }
    run_cycle(s);
  }
}

void ShardedSimulator::set_external_input(LinkId link, const BitVector& value) {
  check_external_input(model_, link);
  // Workers are parked at the command barrier between steps, so writing
  // every replica directly is race-free; the barrier's release/acquire
  // pair publishes the values to them. An external input has no writer,
  // so its replicas live in its readers' shards (rewriting a replica two
  // readers share is idempotent).
  bool changed = false;
  for (const Endpoint& reader : model_.link(link).readers) {
    changed = shards_[part_.shard_of[reader.block]]->links.write(link, value) ||
              changed;
  }
  if (changed && worklist_) {
    // Wake the quiescence fast path: the readers have fresh input, so
    // the next cycle's seeding must not skip them.
    for (const Endpoint& reader : model_.link(link).readers) {
      shards_[part_.shard_of[reader.block]]
          ->pending_input[local_of_[reader.block]] = 1;
    }
  }
}

const BitVector& ShardedSimulator::link_value(LinkId link) const {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  return shards_[link_home_[link]]->links.read(link);
}

const BitVector& ShardedSimulator::block_state(BlockId block) const {
  TMSIM_CHECK_MSG(block < model_.num_blocks(), "block index out of range");
  return shards_[part_.shard_of[block]]->state.read_old(local_of_[block]);
}

void ShardedSimulator::load_block_state(BlockId block, const BitVector& value) {
  TMSIM_CHECK_MSG(block < model_.num_blocks(), "block index out of range");
  Shard& sh = *shards_[part_.shard_of[block]];
  sh.state.load_old(local_of_[block], value);
  if (worklist_) {
    // The committed state changed behind the block's back: any cached
    // fixed-point claim is stale, so force a re-evaluation next cycle.
    sh.state_fixed[local_of_[block]] = 0;
  }
}

void ShardedSimulator::load_link_value(LinkId link, const BitVector& value) {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  // Workers are parked at the command barrier, so writing the
  // authoritative copy and every reader replica directly is race-free
  // (and idempotent where they share a shard).
  shards_[link_home_[link]]->links.write(link, value);
  for (const Endpoint& reader : model_.link(link).readers) {
    shards_[part_.shard_of[reader.block]]->links.write(link, value);
  }
  const std::size_t slot = slot_of_link_[link];
  if (slot != kNoSlot) {
    // Re-publish through the mailbox too: a restore into an engine whose
    // previous cycle was abandoned mid-exchange would otherwise have a
    // stale slot version overwrite the restored replica at the next
    // poll. The delivery is idempotent — the replica already holds the
    // value, so the poll's change detection fires no destabilization.
    mailbox_->publish(slot, value);
  }
}

SchedulerCheckpoint ShardedSimulator::scheduler_checkpoint() const {
  SchedulerCheckpoint s;
  if (shards_[0]->program) {
    return s;  // an op program carries no dynamic scheduling state
  }
  s.rr_cursors.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& sh : shards_) {
    s.rr_cursors.push_back(sh->rr_next);
  }
  if (worklist_) {
    // Scatter the per-shard quiescence flags back to model block order so
    // the snapshot is partition-independent.
    s.state_fixed.assign(model_.num_blocks(), 0);
    s.pending_input.assign(model_.num_blocks(), 0);
    for (const std::unique_ptr<Shard>& sh : shards_) {
      for (std::size_t i = 0; i < sh->blocks.size(); ++i) {
        s.state_fixed[sh->blocks[i]] = sh->state_fixed[i];
        s.pending_input[sh->blocks[i]] = sh->pending_input[i];
      }
    }
  }
  return s;
}

void ShardedSimulator::restore_scheduler_state(
    const SchedulerCheckpoint& sched) {
  // Workers are parked at the command barrier; direct writes are
  // race-free. A snapshot whose shape does not match (different shard
  // count, different model, or empty) canonicalizes: cursors back to
  // their seeded offsets, flags cleared — committed results cannot
  // depend on this by the engine contract, only StepStats can.
  const bool cursors_ok = sched.rr_cursors.size() == shards_.size();
  const bool flags_ok =
      sched.state_fixed.size() == model_.num_blocks() &&
      sched.pending_input.size() == model_.num_blocks();
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& sh = *shards_[si];
    const std::size_t ln = sh.blocks.size();
    sh.rr_next = (cursors_ok && ln > 0 && sched.rr_cursors[si] < ln)
                     ? sched.rr_cursors[si]
                     : sh.rr_init;
    if (worklist_) {
      for (std::size_t i = 0; i < ln; ++i) {
        sh.state_fixed[i] = flags_ok ? sched.state_fixed[sh.blocks[i]] : 0;
        sh.pending_input[i] = flags_ok ? sched.pending_input[sh.blocks[i]] : 0;
      }
    }
  }
}

StepStats ShardedSimulator::step() {
  barrier_->sync(0);  // release the workers into this cycle
  run_cycle(0);
  // run_cycle ends with a barrier, so every shard is quiescent and its
  // outcome fields are visible here.
  for (const std::unique_ptr<Shard>& sh : shards_) {
    if (sh->error) {
      std::rethrow_exception(sh->error);
    }
  }
  bool failed = false;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    failed = failed || sh->cycle_failed;
  }
  if (failed) {
    ConvergenceReport r;
    r.cycle = cycle_;
    r.num_blocks = model_.num_blocks();
    for (const std::unique_ptr<Shard>& sh : shards_) {
      r.delta_cycles += sh->report.delta_cycles;
      r.limit += sh->report.limit;
      r.link_changes += sh->report.link_changes;
      r.oscillating_blocks.insert(r.oscillating_blocks.end(),
                                  sh->report.oscillating_blocks.begin(),
                                  sh->report.oscillating_blocks.end());
    }
    std::sort(r.oscillating_blocks.begin(), r.oscillating_blocks.end());
    r.oscillating_blocks.erase(
        std::unique(r.oscillating_blocks.begin(), r.oscillating_blocks.end()),
        r.oscillating_blocks.end());
    // Merge the per-shard changed-link histories the way a one-shard
    // history reads: newest first. True global ordering is gone (the
    // shards ran concurrently), so interleave round-robin by recency
    // depth — every shard's most recent change outranks any shard's
    // second-most-recent — which is deterministic for a given partition.
    // Dedup (a cut link can appear in both the writer's and a reader's
    // history) and cap at the one-shard history's bound.
    for (std::size_t depth = 0;; ++depth) {
      bool any = false;
      for (const std::unique_ptr<Shard>& sh : shards_) {
        const std::vector<LinkId>& hist = sh->report.last_changed_links;
        if (depth >= hist.size()) {
          continue;
        }
        any = true;
        if (std::find(r.last_changed_links.begin(), r.last_changed_links.end(),
                      hist[depth]) == r.last_changed_links.end()) {
          r.last_changed_links.push_back(hist[depth]);
        }
      }
      if (!any || r.last_changed_links.size() >= Shard::kChangedLinkHistory) {
        break;
      }
    }
    if (r.last_changed_links.size() > Shard::kChangedLinkHistory) {
      r.last_changed_links.resize(Shard::kChangedLinkHistory);
    }
    if (observer_) {
      observer_->on_convergence_failure(*this, r);
    }
    throw ConvergenceError(r);
  }

  StepStats total;
  std::uint64_t first_evals = 0;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    total.delta_cycles += sh->stats.delta_cycles;
    total.link_changes += sh->stats.link_changes;
    total.cut_publishes += sh->stats.cut_publishes;
    total.barrier_spins += sh->stats.barrier_spins;
    total.skipped_blocks += sh->stats.skipped_blocks;
    total.worklist_high_water =
        std::max(total.worklist_high_water, sh->stats.worklist_high_water);
    first_evals += sh->first_evals;
  }
  // Explicit first-evaluation accounting, identical under every schedule
  // and scheduler: re-evaluations are delta cycles beyond each block's
  // first. (The old derivation num_blocks - skipped_blocks underflowed
  // when a cycle was abandoned before every block had evaluated.)
  total.re_evaluations = total.delta_cycles - first_evals;
  // Every shard executes the same number of barrier-aligned supersteps.
  total.settle_rounds = shards_[0]->supersteps;
  total_delta_cycles_ += total.delta_cycles;
  total_supersteps_ += shards_[0]->supersteps;
  ++cycle_;
  if (observer_) {
    observer_->on_cycle_commit(*this, total);
  }
  return total;
}

void ShardedSimulator::rebase(SystemCycle cycle, DeltaCycle total_deltas) {
  cycle_ = cycle;
  total_delta_cycles_ = total_deltas;
}

void ShardedSimulator::run_cycle(std::size_t s) {
  Shard& sh = *shards_[s];
  sh.stats = StepStats{};
  sh.diverged = false;
  sh.cycle_failed = false;
  sh.supersteps = 0;
  sh.error = nullptr;
  sh.report = ConvergenceReport{};
  sh.recent_changed_count = 0;
  std::fill(sh.evaluated.begin(), sh.evaluated.end(), 0);
  sh.first_evals = 0;
  if (observer_ && shards_.size() > 1) {
    sh.mark_ns = steady_ns();
  }
  if (!sh.program) {
    // "Every system cycle is started by resetting all status bits to
    //  zero. [...] it is guaranteed that all routers are evaluated at
    //  least once" — under the worklist, every block that lacks a
    //  quiescence proof.
    guarded(sh, [&] {
      sh.links.reset_all_hbr();
      if (worklist_) {
        seed_worklist_cycle(sh);
      } else {
        std::fill(sh.unstable.begin(), sh.unstable.end(), 1);
        sh.unstable_count = sh.blocks.size();
      }
    });
  }
  // Belt-and-braces superstep cap: the per-shard evaluation budgets
  // already guarantee termination (an oscillation keeps at least one
  // shard evaluating every round), this bounds rounds too.
  const std::size_t superstep_cap =
      cfg_.max_evals_per_block * model_.num_blocks();
  do {
    guarded(sh, [&] {
      if (sh.program) {
        // An op program replays in full against the latest replica
        // values — no HBR bits, no per-block destabilization across the
        // cut. Phase B's deliveries mark readers unstable purely so
        // barrier 2 can agree on "someone received a changed cut value";
        // the next replay clears the marks and re-runs everything.
        // Cross-shard combinational chains converge in one extra
        // superstep per cut depth (a block-Jacobi sweep toward the same
        // fixed point the one-shard schedule reaches); a genuinely
        // oscillating cross-shard loop ping-pongs to the superstep cap.
        std::fill(sh.unstable.begin(), sh.unstable.end(), 0);
        sh.unstable_count = 0;
        run_program(sh);
      } else {
        settle_local(sh);
      }
    });
    if (sh.supersteps >= superstep_cap) {
      sh.diverged = true;
    }
  } while (exchange_round(sh));
  if (!sh.cycle_failed) {
    // End of system cycle, shard-locally: pointer-flip the state banks
    // and registered link banks (§4.1). A failed cycle leaves the banks
    // un-flipped, holding the unsettled values the report describes.
    sh.state.swap_banks();
    sh.links.swap_registered_banks();
  } else {
    fill_report(sh);
  }
  barrier_->sync(0);  // cycle complete; the coordinator aggregates next
}

void ShardedSimulator::seed_worklist_cycle(Shard& sh) {
  // Worklist analogue of the dense cycle seeding: instead of marking
  // every block unstable, a block whose links are all combinational,
  // whose last committed evaluation was a state fixed point, and whose
  // inputs carry no pending activity is *skipped* — its old-bank word is
  // carried over so the end-of-cycle bank flip cannot rot it, and it is
  // never pushed. A skipped block is still woken mid-cycle the moment
  // any input changes (destabilize_local pushes it), so the fixed point
  // reached is the same one the dense sweep reaches — the quiescence
  // fast path only elides evaluations whose outputs are already final.
  // Everything else is pushed in block order, which makes the first
  // sweep identical to the round-robin sweep at the canonical cursor.
  sh.worklist.clear();
  sh.wl_head = 0;
  sh.unstable_count = 0;
  const std::size_t ln = sh.blocks.size();
  for (std::size_t i = 0; i < ln; ++i) {
    if (sh.skippable[i] && sh.state_fixed[i] && !sh.pending_input[i]) {
      sh.state.carry_over(i);
      ++sh.stats.skipped_blocks;
      sh.unstable[i] = 0;
    } else {
      sh.unstable[i] = 1;
      ++sh.unstable_count;
      sh.worklist.push_back(i);
    }
  }
  sh.stats.worklist_high_water = std::max(
      sh.stats.worklist_high_water,
      static_cast<std::uint64_t>(sh.worklist.size()));
}

void ShardedSimulator::settle_local(Shard& sh) {
  // Phase A of the §4.2 pickup: evaluate non-stable blocks until this
  // shard is locally stable. The round-robin cursor scans the unstable
  // bitmap; the worklist pops its FIFO, whose unconsumed part holds
  // exactly the flagged blocks (seed_worklist_cycle and
  // destabilize_local keep that invariant), so its pickup is O(1). Both
  // searches are bounded: unstable_count > 0 with nothing left to find
  // is a bookkeeping desync, and the cycle fails structurally instead of
  // spinning forever.
  const std::size_t ln = sh.blocks.size();
  const DeltaCycle budget = cfg_.max_evals_per_block * ln;
  while (sh.unstable_count > 0) {
    std::size_t i = 0;
    if (worklist_) {
      if (sh.wl_head == sh.worklist.size()) {
        sh.diverged = true;
        return;
      }
      i = sh.worklist[sh.wl_head++];
    } else {
      // "A simple round-robin scheduler will decide which non-stable
      //  router has to be evaluated."
      std::size_t scanned = 0;
      while (sh.unstable[sh.rr_next] == 0) {
        sh.rr_next = (sh.rr_next + 1) % ln;
        if (++scanned > ln) {
          sh.diverged = true;
          return;
        }
      }
      i = sh.rr_next;
      sh.rr_next = (sh.rr_next + 1) % ln;
    }
    sh.unstable[i] = 0;
    --sh.unstable_count;

    evaluate_block(sh, i, nullptr);

    // Self-loop safety of the sweep: re-check the HBR bits directly so a
    // bookkeeping bug cannot end a cycle early. (The worklist rejects
    // combinational self-loops at construction.)
    if (!worklist_ && sh.unstable[i] == 0 &&
        !inputs_all_read(sh, sh.blocks[i])) {
      destabilize_local(sh, sh.blocks[i]);
    }
    if (sh.stats.delta_cycles > budget) {
      sh.diverged = true;
      return;
    }
  }
  if (worklist_) {
    // Fully drained: recycle the storage so the FIFO never grows beyond
    // the cycle's event count (phase B refills it for the next superstep).
    sh.worklist.clear();
    sh.wl_head = 0;
  }
}

void ShardedSimulator::run_program(Shard& sh) {
  for (const analysis::CompiledOp& op : sh.program->ops) {
    if (op.kind == analysis::CompiledOpKind::kSettle) {
      settle_scc_local(sh, op.scc);
      if (sh.diverged) {
        return;
      }
    } else {
      // kEval and kDrive run identically at execution time; the split
      // only matters for the emission proof (see static_schedule.h).
      evaluate_block(sh, local_of_[op.block], nullptr);
    }
  }
}

void ShardedSimulator::settle_scc_local(Shard& sh, std::uint32_t scc_index) {
  // Scoped worklist over one strongly connected component, confined to
  // this shard (tracked links need both endpoints in the shard, so an
  // SCC can never straddle the cut), with the cooperative divergence
  // protocol: on a trip the members' unstable bits stay set for the
  // merged report.
  const analysis::CompiledScc& scc = sh.program->sccs[scc_index];
  const std::size_t m = scc.blocks.size();
  sh.scc_unstable.assign(m, 1);
  std::size_t remaining = m;
  for (const BlockId b : scc.blocks) {
    sh.unstable[local_of_[b]] = 1;  // report mirror, not counted
  }
  // Same convergence contract as the pickup, scoped to the SCC: each
  // member gets max_evals_per_block evaluations to settle.
  const DeltaCycle limit = cfg_.max_evals_per_block * m;
  CompiledSettleCtx ctx{&scc, scc_index + 1, &sh.scc_unstable, &remaining};
  std::size_t cursor = 0;
  DeltaCycle spent = 0;
  while (remaining > 0) {
    // Bounded cursor scan, as in settle_local.
    std::size_t scanned = 0;
    while (sh.scc_unstable[cursor] == 0) {
      cursor = (cursor + 1) % m;
      if (++scanned > m) {
        sh.diverged = true;
        return;
      }
    }
    const std::size_t mi = cursor;
    cursor = (cursor + 1) % m;
    sh.scc_unstable[mi] = 0;
    --remaining;
    evaluate_block(sh, local_of_[scc.blocks[mi]], &ctx);
    if (++spent > limit) {
      sh.diverged = true;
      return;
    }
  }
  for (const BlockId b : scc.blocks) {
    sh.unstable[local_of_[b]] = 0;
  }
}

void ShardedSimulator::evaluate_block(Shard& sh, std::size_t local,
                                      const CompiledSettleCtx* ctx) {
  // Under the §4.2 pickup an evaluation marks its combinational inputs
  // read (HBR) and a changed output destabilizes its same-shard readers.
  // An op program does neither: its order already makes every input a
  // committing evaluation consumes final, and marking same-shard readers
  // would keep unstable_count nonzero forever (an endless superstep
  // loop). Inside a kSettle only the SCC's own readers are re-flagged.
  // Cut publication is the same either way.
  const bool pickup = !sh.program;
  if (worklist_) {
    // Everything pending is consumed by this evaluation; activity that
    // arrives later (same-shard writes below, phase B deliveries,
    // external inputs) re-marks it.
    sh.pending_input[local] = 0;
  }
  const BlockId b = sh.blocks[local];
  const BlockInstance& blk = model_.block(b);
  const SimBlock& logic = *blk.logic;
  const std::size_t n_in = logic.num_inputs();
  const std::size_t n_out = logic.num_outputs();

  if (sh.in_scratch.size() < n_in) {
    sh.in_scratch.resize(n_in, BitVector(0));
  }
  if (sh.out_scratch.size() < n_out) {
    sh.out_scratch.resize(n_out, BitVector(0));
  }

  // Latch inputs from the shard-local LinkMemory (cut links read the
  // local replica): a later changed write to any of them must
  // destabilize us.
  for (std::size_t p = 0; p < n_in; ++p) {
    const LinkId l = blk.input_links[p];
    sh.in_scratch[p] = sh.links.read(l);
    if (pickup && model_.link(l).kind == LinkKind::kCombinational) {
      sh.links.mark_read(l);
    }
  }

  if (sh.state_scratch.width() != logic.state_width()) {
    sh.state_scratch = BitVector(logic.state_width());
  }
  for (std::size_t p = 0; p < n_out; ++p) {
    if (sh.out_scratch[p].width() != logic.output_width(p)) {
      sh.out_scratch[p] = BitVector(logic.output_width(p));
    }
  }

  logic.evaluate(sh.state.read_old(local),
                 std::span<const BitVector>(sh.in_scratch.data(), n_in),
                 sh.state_scratch,
                 std::span<BitVector>(sh.out_scratch.data(), n_out));

  if (worklist_) {
    // State fixed point: a pure evaluate() that mapped old == new will
    // reproduce this exact evaluation as long as the inputs stay put —
    // the precondition the quiescence fast path relies on.
    sh.state_fixed[local] =
        sh.state_scratch == sh.state.read_old(local) ? 1 : 0;
  }
  // The last evaluation of the cycle is the committing one: a drive op's
  // state write is overwritten by the block's later kEval.
  sh.state.write_new(local, sh.state_scratch);

  for (std::size_t p = 0; p < n_out; ++p) {
    const LinkId l = blk.output_links[p];
    const bool changed = sh.links.write(l, sh.out_scratch[p]);
    if (model_.link(l).kind == LinkKind::kCombinational) {
      if (!changed) {
        continue;
      }
      // "if the router writes a value to a link, which is not equal to
      //  the current value in the memory, it will reset this link's
      //  status bit to zero" — destabilizing the reader.
      ++sh.stats.link_changes;
      sh.recent_changed_links[sh.recent_changed_count++ %
                              Shard::kChangedLinkHistory] = l;
      if (pickup) {
        sh.links.clear_hbr(l);
        // Same-shard readers destabilize immediately; cross-shard
        // readers at their next exchange phase, via the mailbox.
        for (const Endpoint& reader : model_.link(l).readers) {
          if (part_.shard_of[reader.block] == sh.index) {
            destabilize_local(sh, reader.block);
          }
        }
      } else if (ctx && sh.program->scc_of_link[l] == ctx->scc_id) {
        // Intra-SCC edge changed mid-settle: wake the (single) reader.
        const BlockId r = model_.link(l).readers.front().block;
        const auto it = std::lower_bound(ctx->scc->blocks.begin(),
                                         ctx->scc->blocks.end(), r);
        const std::size_t mi =
            static_cast<std::size_t>(it - ctx->scc->blocks.begin());
        if (!(*ctx->unstable)[mi]) {
          (*ctx->unstable)[mi] = 1;
          ++*ctx->remaining;
        }
        sh.unstable[local_of_[r]] = 1;  // report mirror
      }
    }
    // A changed combinational cut link, or any registered one: a
    // re-evaluation may rewrite the new bank, and the reader's replica
    // must converge to the final value. Registered links never
    // destabilize (§4.1).
    const std::size_t slot = slot_of_link_[l];
    if (slot != kNoSlot) {
      mailbox_->publish(slot, sh.out_scratch[p]);
      ++sh.stats.cut_publishes;
    }
  }

  if (!sh.evaluated[local]) {
    sh.evaluated[local] = 1;
    ++sh.first_evals;
  }
  ++sh.stats.delta_cycles;
  if (trace_) {
    trace_(cycle_, sh.stats.delta_cycles - 1, b);
  }
}

bool ShardedSimulator::exchange_round(Shard& sh) {
  ++sh.supersteps;
  // Observer timing (more than one shard only: one shard has no barrier
  // to wait at): the settle/evaluation phase ran since mark_ns; the two
  // barriers plus the exchange form the synchronization tail.
  const bool timed = observer_ && shards_.size() > 1;
  const std::uint64_t settle_end_ns = timed ? steady_ns() : 0;
  // Barrier 1: agree whether any shard diverged or threw during the
  // evaluation phase. Every shard sees the same sum, so every shard
  // abandons the cycle at the same point — no worker is left behind at
  // a barrier the others will never reach.
  const std::uint64_t failures =
      barrier_->sync((sh.diverged || sh.error) ? 1 : 0, &sh.stats.barrier_spins);
  if (failures > 0) {
    sh.cycle_failed = true;
    return false;
  }
  guarded(sh, [&] { apply_incoming(sh); });
  // Barrier 2: agree on the number of unstable blocks anywhere (with a
  // sentinel for exchange-phase errors). Zero means the system-wide
  // link fixed point is reached.
  const std::uint64_t unstable = barrier_->sync(
      sh.error ? kErrorSentinel : sh.unstable_count, &sh.stats.barrier_spins);
  if (timed) {
    // Called from every worker thread concurrently; SimObserver
    // implementations synchronize internally.
    const std::uint64_t end_ns = steady_ns();
    observer_->on_superstep(sh.index, total_supersteps_ + sh.supersteps - 1,
                            settle_end_ns - sh.mark_ns,
                            end_ns - settle_end_ns);
    sh.mark_ns = end_ns;
  }
  if (unstable >= kErrorSentinel) {
    sh.cycle_failed = true;
    return false;
  }
  return unstable != 0;
}

void ShardedSimulator::apply_incoming(Shard& sh) {
  for (InSlot& in : sh.incoming) {
    if (!mailbox_->poll(in.slot, in.last_seen, sh.poll_scratch)) {
      continue;
    }
    const bool changed = sh.links.write(in.link, sh.poll_scratch);
    if (in.kind == LinkKind::kCombinational && changed) {
      // The replica changed under this shard's readers: the §4.2 rule,
      // one superstep late. link_changes was already counted by the
      // writing shard — don't double count here.
      sh.links.clear_hbr(in.link);
      for (const Endpoint& reader : model_.link(in.link).readers) {
        if (part_.shard_of[reader.block] == sh.index) {
          destabilize_local(sh, reader.block);
        }
      }
    }
  }
}

void ShardedSimulator::destabilize_local(Shard& sh, BlockId global) {
  const std::size_t i = local_of_[global];
  if (worklist_) {
    sh.pending_input[i] = 1;
  }
  if (sh.unstable[i] == 0) {
    sh.unstable[i] = 1;
    ++sh.unstable_count;
    if (worklist_) {
      // Push iff the flag transitioned — `unstable` doubles as the
      // FIFO's dedup guard, so each pending event costs exactly one
      // future evaluation.
      sh.worklist.push_back(i);
      sh.stats.worklist_high_water =
          std::max(sh.stats.worklist_high_water,
                   static_cast<std::uint64_t>(sh.worklist.size() - sh.wl_head));
    }
  }
}

bool ShardedSimulator::inputs_all_read(const Shard& sh, BlockId global) const {
  const BlockInstance& blk = model_.block(global);
  for (const LinkId l : blk.input_links) {
    if (model_.link(l).kind == LinkKind::kCombinational &&
        !sh.links.has_been_read(l)) {
      return false;
    }
  }
  return true;
}

void ShardedSimulator::fill_report(Shard& sh) {
  sh.report.delta_cycles = sh.stats.delta_cycles;
  sh.report.limit = cfg_.max_evals_per_block * sh.blocks.size();
  sh.report.num_blocks = sh.blocks.size();
  sh.report.link_changes = sh.stats.link_changes;
  for (std::size_t i = 0; i < sh.blocks.size(); ++i) {
    if (sh.unstable[i]) {
      sh.report.oscillating_blocks.push_back(sh.blocks[i]);
    }
  }
  // A cycle can fail at the divergence barrier before the exchange
  // applies pending cut-link changes. The local readers of those links
  // are the cross-shard half of the oscillation — the one-shard engine
  // would already have them marked unstable at trip time. Every
  // producer is quiescent past that barrier, so the versions are final.
  for (const InSlot& in : sh.incoming) {
    if (in.kind != LinkKind::kCombinational ||
        mailbox_->version(in.slot) == in.last_seen) {
      continue;
    }
    for (const Endpoint& r : model_.link(in.link).readers) {
      if (part_.shard_of[r.block] == sh.index &&
          !sh.unstable[local_of_[r.block]]) {
        sh.unstable[local_of_[r.block]] = 1;
        sh.report.oscillating_blocks.push_back(r.block);
      }
    }
  }
  const std::size_t have =
      std::min(sh.recent_changed_count, Shard::kChangedLinkHistory);
  for (std::size_t i = 0; i < have; ++i) {
    sh.report.last_changed_links.push_back(
        sh.recent_changed_links[(sh.recent_changed_count - 1 - i) %
                                Shard::kChangedLinkHistory]);
  }
}

template <typename F>
void ShardedSimulator::guarded(Shard& sh, F&& f) {
  if (sh.error) {
    return;  // already broken; only keep the barrier protocol aligned
  }
  try {
    std::forward<F>(f)();
  } catch (...) {
    sh.error = std::current_exception();
  }
}

}  // namespace tmsim::core

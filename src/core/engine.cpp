#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "common/fnv.h"
#include "common/rng.h"

namespace tmsim::core {
namespace {

constexpr std::size_t kNoSlot = ~std::size_t{0};
constexpr BlockId kNoBlock = ~BlockId{0};
// Barrier-2 contribution encoding an exception during the exchange
// phase; far above any possible sum of unstable-block counts.
constexpr std::uint64_t kErrorSentinel = std::uint64_t{1} << 62;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ContextualError::Context convergence_context(const ConvergenceReport& r) {
  ContextualError::Context ctx;
  ctx.emplace_back("cycle", std::to_string(r.cycle));
  ctx.emplace_back("delta_cycles", std::to_string(r.delta_cycles));
  ctx.emplace_back("limit", std::to_string(r.limit));
  ctx.emplace_back("unstable_blocks",
                   std::to_string(r.oscillating_blocks.size()));
  ctx.emplace_back("link_changes", std::to_string(r.link_changes));
  return ctx;
}

/// Folds one state word (width, then its words) into an FNV-1a digest.
std::uint64_t digest_word(std::uint64_t h, const BitVector& s) {
  h = fnv1a_word(h, s.width());
  for (const std::uint64_t w : s.words()) {
    h = fnv1a_word(h, w);
  }
  return h;
}

std::uint64_t states_digest(const std::vector<BitVector>& states) {
  std::uint64_t h = kFnvOffset;
  for (const BitVector& s : states) {
    h = digest_word(h, s);
  }
  return h;
}

/// Registered *internal* links hold committed values the block-state
/// snapshot cannot see; combinational links (and external links, driven
/// or observed by the testbench each cycle) carry none across cycles.
void check_checkpointable(const SystemModel& model) {
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    const bool internal =
        info.writer.has_value() && !info.readers.empty();
    if (internal && info.kind == LinkKind::kRegistered) {
      throw ContextualError(
          "model has an internal registered link; its committed value is "
          "not part of the block-state checkpoint, so checkpoint/resume "
          "is unsupported for this model",
          {{"link", std::to_string(l)}, {"name", info.name}});
    }
  }
}

/// The links a checkpoint's link snapshot carries: every combinational
/// link a block writes or reads, ascending. A block the quiescence skip
/// passes over (worklist or gated op program) rewrites neither its
/// internal links nor the primary outputs the testbench reads, and its
/// quiescence flags hold only for the external-input values it last
/// read: a testbench that drives the restored engine's stale value
/// again raises no change event. save_checkpoint emits exactly this list
/// and restore_checkpoint accepts nothing else.
std::vector<LinkId> snapshot_links(const SystemModel& model) {
  std::vector<LinkId> ids;
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (info.kind == LinkKind::kCombinational &&
        (info.writer.has_value() || !info.readers.empty())) {
      ids.push_back(l);
    }
  }
  return ids;
}

/// The engine's one validation of a testbench drive: the link must be an
/// external input, and some block must read it.
void check_external_input(const SystemModel& model, LinkId link) {
  TMSIM_CHECK_MSG(link < model.num_links(), "link index out of range");
  const LinkInfo& info = model.link(link);
  if (!model.is_external_input(link)) {
    throw ContextualError(
        "link '" + info.name + "' is driven by a block, not the testbench",
        {{"link", std::to_string(link)}, {"name", info.name}});
  }
  if (info.readers.empty()) {
    throw ContextualError(
        "link '" + info.name +
            "' has no readers: driving it is a silently dropped stimulus",
        {{"link", std::to_string(link)}, {"name", info.name}});
  }
}

/// Degenerate-topology gate for the worklist scheduler, applied at
/// engine construction. Rejects, with a structured error instead of a
/// hang at the delta budget:
///  - combinational self-loop links (a block reading its own
///    combinational output), which the event-driven pickup would chase
///    in a tight requeue loop;
///  - external-input combinational links with an empty reader set: a
///    stimulus on such a link is an event that wakes nobody, so the
///    worklist would silently drop it (check_external_input catches the
///    drive; this catches the model).
/// No-op for kRoundRobin (the dense sweep tolerates both shapes, at
/// delta-budget cost) and for kCompiled: a self-loop becomes a scoped
/// settle region that runs to a fixed point every cycle, and the program runs
/// every op in a fixed order, so an unread stimulus wakes nobody and is
/// simply never consumed.
void check_scheduler_topology(const SystemModel& model, SchedulerKind kind) {
  if (kind != SchedulerKind::kWorklist) {
    return;
  }
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (info.kind != LinkKind::kCombinational) {
      continue;
    }
    if (info.writer.has_value()) {
      for (const Endpoint& r : info.readers) {
        if (r.block == info.writer->block) {
          throw ContextualError(
              "combinational self-loop link '" + info.name +
                  "': the worklist scheduler would requeue its block on "
                  "every evaluation; break the loop with a registered link "
                  "or run the round_robin scheduler",
              {{"link", std::to_string(l)},
               {"name", info.name},
               {"block", std::to_string(info.writer->block)},
               {"scheduler", scheduler_kind_name(kind)}});
        }
      }
    } else if (info.readers.empty()) {
      throw ContextualError(
          "external combinational link '" + info.name +
              "' has an empty reader set: a stimulus on it is an event "
              "that wakes no block, which the worklist scheduler would "
              "silently drop",
          {{"link", std::to_string(l)},
           {"name", info.name},
           {"scheduler", scheduler_kind_name(kind)}});
    }
  }
}

}  // namespace

SimObserver::~SimObserver() = default;

const char* scheduler_kind_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kRoundRobin:
      return "round_robin";
    case SchedulerKind::kWorklist:
      return "worklist";
    case SchedulerKind::kCompiled:
      return "compiled";
  }
  return "unknown";
}

std::string ConvergenceReport::summary() const {
  std::string s = "system cycle " + std::to_string(cycle) +
                  " did not settle after " + std::to_string(delta_cycles) +
                  " delta cycles (limit " + std::to_string(limit) + "); " +
                  std::to_string(oscillating_blocks.size()) + "/" +
                  std::to_string(num_blocks) + " blocks unstable";
  if (!oscillating_blocks.empty()) {
    s += " {";
    const std::size_t shown = std::min<std::size_t>(8, oscillating_blocks.size());
    for (std::size_t i = 0; i < shown; ++i) {
      if (i) s += ',';
      s += std::to_string(oscillating_blocks[i]);
    }
    if (shown < oscillating_blocks.size()) s += ",...";
    s += '}';
  }
  if (!last_changed_links.empty()) {
    s += "; last changed links {";
    for (std::size_t i = 0; i < last_changed_links.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(last_changed_links[i]);
    }
    s += '}';
  }
  return s;
}

ConvergenceError::ConvergenceError(ConvergenceReport report)
    : ContextualError(
          "combinational dependencies do not settle (oscillating loop?): " +
              report.summary(),
          convergence_context(report)),
      report_(std::move(report)) {}

Engine::Engine(const SystemModel& model, const EngineOptions& opts)
    : model_(model), opts_(opts) {
  TMSIM_CHECK_MSG(model.finalized(), "model must be finalized");
  TMSIM_CHECK_MSG(model.num_blocks() >= 1,
                  "sharded engine needs at least one block");
  TMSIM_CHECK_MSG(opts.num_shards >= 1, "num_shards must be >= 1");
  TMSIM_CHECK_MSG(opts.max_evals_per_block >= 1, "eval limit must be positive");
  check_scheduler_topology(model, opts_.scheduler);
  worklist_ = opts_.scheduler == SchedulerKind::kWorklist;
  gated_ = worklist_ || opts_.scheduler == SchedulerKind::kCompiled;

  const std::size_t n = model.num_blocks();
  opts_.num_shards = std::min(opts_.num_shards, n);
  if (opts_.num_shards > 1 && opts_.scheduler != SchedulerKind::kRoundRobin) {
    // The sharded engine is one configuration: the §4.2 round-robin
    // pickup over min-cut regions. The worklist and the op program run
    // one shard (DESIGN.md §9 has the measurements behind this).
    throw ContextualError(
        "more than one shard needs the round_robin scheduler",
        {{"shards", std::to_string(opts_.num_shards)},
         {"scheduler", scheduler_kind_name(opts_.scheduler)}});
  }
  part_ = partition_blocks(model, opts_.num_shards);
  const std::size_t k = part_.num_shards();
  if (opts_.scheduler == SchedulerKind::kCompiled) {
    // A registered-only model compiles to every block once in ascending
    // ids — the §4.1 Fig. 3 schedule.
    program_.emplace(analysis::build_compiled_schedule(model));
  }

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
  link_comb_.assign(model.num_links(), 0);
  comb_reader_.assign(model.num_links(), kNoBlock);
  std::vector<std::size_t> slot_widths;
  std::vector<std::vector<char>> materialize(
      k, std::vector<char>(model.num_links(), 0));
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (info.kind == LinkKind::kCombinational) {
      link_comb_[l] = 1;
      if (!info.readers.empty()) {
        comb_reader_[l] = info.readers.front().block;  // the only reader
      }
    }
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
    // Each bank starts at the blocks' reset states (make_state).
    std::vector<const SimBlock*> logic;
    logic.reserve(blocks.size());
    for (const BlockId b : blocks) {
      logic.push_back(model.block(b).logic.get());
    }
    auto sh = std::make_unique<Shard>(s, blocks, logic, model, materialize[s]);
    std::size_t max_in = 0;
    std::size_t max_out = 0;
    for (const BlockId b : blocks) {
      const BlockInstance& blk = model.block(b);
      sh->inst.push_back(&blk);
      max_in = std::max(max_in, blk.input_links.size());
      max_out = std::max(max_out, blk.output_links.size());
    }
    sh->in_words.assign(max_in, 0);
    sh->out_words.assign(max_out, 0);
    sh->unstable.assign(blocks.size(), 0);
    sh->evaluated.assign(blocks.size(), 0);
    if (worklist_) {
      sh->worklist.reserve(blocks.size());
    }
    if (gated_) {
      sh->state_fixed.assign(blocks.size(), 0);
      sh->pending_input.assign(blocks.size(), 0);
      // A block is skippable only when every link it touches is
      // combinational: registered link banks flip globally, so a skipped
      // writer's would rot, and registered inputs change without a
      // change event. (Under the op program kSettle never consults the
      // gate; a settle member's own later kEval is gated like any other,
      // since its last settle evaluation already consumed its inputs.)
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
          s == 0 || opts_.seed == 1
              ? opts_.seed
              : opts_.seed + 0x9e37u * (s + 1);
      sh->rr_next = schedule_rr_offset(seed, blocks.size());
      sh->rr_init = sh->rr_next;
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
  }

  threads_.reserve(k - 1);
  for (std::size_t s = 1; s < k; ++s) {
    threads_.emplace_back([this, s] { worker_main(s); });
  }
}

Engine::~Engine() {
  if (!threads_.empty()) {
    stop_ = true;            // workers read this after the release barrier
    barrier_->sync(0);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
}

void Engine::worker_main(std::size_t s) {
  while (true) {
    barrier_->sync(0);  // wait for the coordinator's next command
    if (stop_) {
      return;
    }
    run_cycle(s);
  }
}

void Engine::set_external_input(LinkId link, const BitVector& value) {
  check_external_input(model_, link);
  TMSIM_CHECK_MSG(value.width() == model_.link(link).width,
                  "link width mismatch");
  set_external_input(link, value.words()[0]);
}

void Engine::set_external_input(LinkId link, std::uint64_t value) {
  check_external_input(model_, link);
  // Workers are parked at the command barrier between steps, so writing
  // every replica directly is race-free; the barrier's release/acquire
  // pair publishes the values to them. An external input has no writer,
  // so its replicas live in its readers' shards (rewriting a replica two
  // readers share is idempotent).
  bool changed = false;
  for (const Endpoint& reader : model_.link(link).readers) {
    changed =
        shards_[part_.shard_of[reader.block]]->links.write_word(link, value) ||
        changed;
  }
  if (changed && gated_) {
    // Wake the quiescence fast path: the readers have fresh input, so
    // the next cycle must not skip them.
    settled_ = false;
    for (const Endpoint& reader : model_.link(link).readers) {
      shards_[part_.shard_of[reader.block]]
          ->pending_input[local_of_[reader.block]] = 1;
    }
  }
}

BitVector Engine::link_value(LinkId link) const {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  return shards_[link_home_[link]]->links.read(link);
}

std::uint64_t Engine::link_word(LinkId link) const {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  return shards_[link_home_[link]]->links.word(link);
}

BitVector Engine::block_state(BlockId block) const {
  TMSIM_CHECK_MSG(block < model_.num_blocks(), "block index out of range");
  return shards_[part_.shard_of[block]]->state.read_old(local_of_[block]);
}

void Engine::load_block_state(BlockId block, const BitVector& value) {
  TMSIM_CHECK_MSG(block < model_.num_blocks(), "block index out of range");
  Shard& sh = *shards_[part_.shard_of[block]];
  sh.state.load_old(local_of_[block], value);
  settled_ = false;
  if (gated_) {
    // The committed state changed behind the block's back: any cached
    // fixed-point claim is stale, so force a re-evaluation next cycle.
    sh.state_fixed[local_of_[block]] = 0;
  }
}

void Engine::load_link_value(LinkId link, const BitVector& value) {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  settled_ = false;
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
    mailbox_->publish(slot, value.words()[0]);
  }
}

void Engine::clear_links() {
  // Workers are parked at the command barrier: direct writes are
  // race-free. Zeroed slots with zeroed versions and zeroed last-seen
  // marks are exactly a fresh engine's exchange state.
  settled_ = false;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    sh->links.clear();
    for (InSlot& in : sh->incoming) {
      in.last_seen = 0;
    }
  }
  mailbox_->clear();
}

SchedulerCheckpoint Engine::scheduler_checkpoint() const {
  SchedulerCheckpoint s;
  if (!program_) {
    // An op program never moves a cursor.
    s.rr_cursors.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& sh : shards_) {
      s.rr_cursors.push_back(sh->rr_next);
    }
  }
  if (gated_) {
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

void Engine::restore_scheduler_state(
    const SchedulerCheckpoint& sched) {
  // Workers are parked at the command barrier; direct writes are
  // race-free. A snapshot whose shape does not match (different shard
  // count, different model, or empty) canonicalizes: cursors back to
  // their seeded offsets, flags cleared — committed results cannot
  // depend on this by the engine contract, only StepStats can.
  settled_ = false;
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
    if (gated_) {
      for (std::size_t i = 0; i < ln; ++i) {
        sh.state_fixed[i] = flags_ok ? sched.state_fixed[sh.blocks[i]] : 0;
        sh.pending_input[i] = flags_ok ? sched.pending_input[sh.blocks[i]] : 0;
      }
    }
  }
}

StepStats Engine::step() {
  // Cleared up front so that a cycle that throws (an evaluation error or
  // a ConvergenceError) leaves the engine unsettled.
  settled_ = false;
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
  if (gated_ && total.delta_cycles == 0) {
    // No block evaluated: every block was quiescent, so no link and no
    // state moved and no flag changed — the next cycle is this one again.
    settled_ = true;
    idle_stats_ = total;
  }
  if (observer_) {
    observer_->on_cycle_commit(*this, total);
  }
  return total;
}

std::uint64_t Engine::advance_idle(std::uint64_t max) {
  if (!settled_) {
    return 0;
  }
  skipped_cycles_ += max;
  if (observer_ == nullptr) {
    cycle_ += max;
    total_supersteps_ += max * idle_stats_.settle_rounds;
    return max;
  }
  for (std::uint64_t k = 0; k < max; ++k) {
    ++cycle_;
    total_supersteps_ += idle_stats_.settle_rounds;
    observer_->on_cycle_commit(*this, idle_stats_);
  }
  return max;
}

void Engine::rebase(SystemCycle cycle, DeltaCycle total_deltas) {
  cycle_ = cycle;
  total_delta_cycles_ = total_deltas;
}

void Engine::run_cycle(std::size_t s) {
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
  if (!program_) {
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
      opts_.max_evals_per_block * model_.num_blocks();
  do {
    guarded(sh, [&] {
      if (program_) {
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
    // End of system cycle, shard-locally: flip the state pointer of every
    // block evaluated this cycle, and the registered link banks (§4.1).
    // A skipped block is not committed: its old slot already holds its
    // next state. A failed cycle flips nothing, leaving the unsettled
    // values the report describes in the new slots.
    for (std::size_t i = 0; i < sh.evaluated.size(); ++i) {
      if (sh.evaluated[i]) {
        sh.state.commit(i);
      }
    }
    sh.links.swap_registered_banks();
  } else {
    fill_report(sh);
    if (program_) {
      // The report mirror of the SCC that tripped is consumed; the op
      // program sets it afresh in every settle.
      std::fill(sh.unstable.begin(), sh.unstable.end(), 0);
    }
  }
  barrier_->sync(0);  // cycle complete; the coordinator aggregates next
}

void Engine::seed_worklist_cycle(Shard& sh) {
  // Worklist analogue of the dense cycle seeding: instead of marking
  // every block unstable, a quiescent block — all links combinational,
  // last evaluation a state fixed point, no pending input activity — is
  // *skipped*: it is never pushed, and since it is not committed at the
  // end of the cycle its old slot stays its state, with nothing copied.
  // A skipped block is still woken mid-cycle the moment
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
    if (sh.quiescent(i)) {
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

void Engine::settle_local(Shard& sh) {
  // Phase A of the §4.2 pickup: evaluate non-stable blocks until this
  // shard is locally stable. The round-robin cursor scans the unstable
  // bitmap; the worklist pops its FIFO, whose unconsumed part holds
  // exactly the flagged blocks (seed_worklist_cycle and
  // destabilize_local keep that invariant), so its pickup is O(1). Both
  // searches are bounded: unstable_count > 0 with nothing left to find
  // is a bookkeeping desync, and the cycle fails structurally instead of
  // spinning forever.
  const std::size_t ln = sh.blocks.size();
  const DeltaCycle budget = opts_.max_evals_per_block * ln;
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
    // the cycle's event count.
    sh.worklist.clear();
    sh.wl_head = 0;
  }
}

void Engine::run_program(Shard& sh) {
  for (const analysis::CompiledOp& op : program_->ops) {
    if (op.kind == analysis::CompiledOpKind::kSettle) {
      settle_scc_local(sh, op.scc);
      if (sh.diverged) {
        return;
      }
      continue;
    }
    const std::size_t i = local_of_[op.block];
    const bool drive = op.kind == analysis::CompiledOpKind::kDrive;
    if (sh.quiescent(i)) {
      // The activity gate: evaluating a quiescent block would rewrite its
      // outputs with the values they hold and reproduce its old state, so
      // the op is skipped and the block is not committed. Only a
      // committing evaluation clears pending_input or sets state_fixed,
      // so between a block's kDrive and its kEval the block can stop
      // being quiescent but never become so: a block whose drive ran
      // always runs its kEval too.
      sh.stats.skipped_blocks += drive ? 0 : 1;
      continue;
    }
    // A kDrive needs only the block's outputs (its later kEval commits
    // the state), so it runs G alone; it still writes every output and
    // counts as one delta cycle, exactly like a full evaluation.
    evaluate_block(sh, i, nullptr, drive);
  }
}

void Engine::settle_scc_local(Shard& sh, std::uint32_t scc_index) {
  // Scoped worklist over one strongly connected component, with the
  // cooperative divergence protocol: on a trip the members' unstable
  // bits stay set for the report.
  const analysis::CompiledScc& scc = program_->sccs[scc_index];
  const std::size_t m = scc.blocks.size();
  sh.scc_unstable.assign(m, 1);
  std::size_t remaining = m;
  for (const BlockId b : scc.blocks) {
    sh.unstable[local_of_[b]] = 1;  // report mirror, not counted
  }
  // Same convergence contract as the pickup, scoped to the SCC: each
  // member gets max_evals_per_block evaluations to settle.
  const DeltaCycle limit = opts_.max_evals_per_block * m;
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

void Engine::evaluate_block(Shard& sh, std::size_t local,
                            const CompiledSettleCtx* ctx, bool drive) {
  // Under the §4.2 pickup an evaluation marks its combinational inputs
  // read (HBR) and a changed output destabilizes its same-shard readers.
  // An op program does neither: its order already makes every input a
  // committing evaluation consumes final, and marking readers would keep
  // unstable_count nonzero forever. Inside a kSettle only the SCC's own
  // readers are re-flagged.
  const bool pickup = !program_;
  const bool inputs_changed = gated_ && sh.pending_input[local];
  const BlockInstance& blk = *sh.inst[local];
  const SimBlock& logic = *blk.logic;
  const std::size_t n_in = blk.input_links.size();
  const std::size_t n_out = blk.output_links.size();
  std::uint64_t* const in = sh.in_words.data();
  std::uint64_t* const out = sh.out_words.data();

  // Latch inputs from the shard-local LinkMemory (cut links read the
  // local replica): a later changed write to any of them must
  // destabilize us.
  for (std::size_t p = 0; p < n_in; ++p) {
    const LinkId l = blk.input_links[p];
    in[p] = sh.links.word(l);
    if (pickup && link_comb_[l]) {
      sh.links.mark_read(l);
    }
  }

  const BlockState& old = sh.state.old_state(local);
  if (drive) {
    logic.drive(old, {in, n_in}, {out, n_out});
  } else {
    // The last evaluation of the cycle is the committing one: it leaves
    // the block's next state in its new slot.
    logic.step(old, {in, n_in}, sh.state.new_state(local), {out, n_out});
    if (gated_) {
      // Everything pending is consumed by this committing evaluation;
      // activity that arrives later (writes below, external inputs)
      // re-marks it. A kDrive consumes nothing, so its kEval still runs.
      sh.pending_input[local] = 0;
    }
  }

  bool outputs_changed = false;
  for (std::size_t p = 0; p < n_out; ++p) {
    const LinkId l = blk.output_links[p];
    const bool changed = sh.links.write_word(l, out[p]);
    if (link_comb_[l]) {
      if (!changed) {
        continue;
      }
      outputs_changed = true;
      // "if the router writes a value to a link, which is not equal to
      //  the current value in the memory, it will reset this link's
      //  status bit to zero" — destabilizing the reader.
      ++sh.stats.link_changes;
      sh.recent_changed_links[sh.recent_changed_count++ %
                              Shard::kChangedLinkHistory] = l;
      if (pickup) {
        sh.links.clear_hbr(l);
        // A same-shard reader destabilizes immediately; a cross-shard
        // reader at its next exchange phase, via the mailbox.
        const BlockId reader = comb_reader_[l];
        if (reader != kNoBlock && part_.shard_of[reader] == sh.index) {
          destabilize_local(sh, reader);
        }
      } else if (comb_reader_[l] != kNoBlock && gated_) {
        sh.pending_input[local_of_[comb_reader_[l]]] = 1;  // wake its gate
      }
      if (ctx && program_->scc_of_link[l] == ctx->scc_id) {
        // Intra-SCC edge changed mid-settle: wake the (single) reader.
        const BlockId r = comb_reader_[l];
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
      mailbox_->publish(slot, out[p]);
      ++sh.stats.cut_publishes;
    }
  }

  if (gated_ && !drive) {
    // State fixed point: a pure step() that mapped old == new will
    // reproduce this exact evaluation as long as the inputs stay put —
    // the precondition of the quiescence skip. The op program compares
    // only when the evaluation saw no new input and moved no output: a
    // block with activity on its ports is rarely at a fixed point, and a
    // missed one costs one more evaluation, not correctness
    // (state_fixed == 0 never skips anything).
    sh.state_fixed[local] =
        (worklist_ || !(inputs_changed || outputs_changed)) &&
        sh.state.new_state(local).equals(old);
  }
  if (!sh.evaluated[local]) {
    sh.evaluated[local] = 1;
    ++sh.first_evals;
  }
  ++sh.stats.delta_cycles;
  if (trace_) {
    trace_(cycle_, sh.stats.delta_cycles - 1, sh.blocks[local]);
  }
}

bool Engine::exchange_round(Shard& sh) {
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

void Engine::apply_incoming(Shard& sh) {
  for (InSlot& in : sh.incoming) {
    std::uint64_t value = 0;
    if (!mailbox_->poll(in.slot, in.last_seen, value)) {
      continue;
    }
    const bool changed = sh.links.write_word(in.link, value);
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

void Engine::destabilize_local(Shard& sh, BlockId global) {
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

bool Engine::inputs_all_read(const Shard& sh, BlockId global) const {
  const BlockInstance& blk = model_.block(global);
  for (const LinkId l : blk.input_links) {
    if (link_comb_[l] && !sh.links.has_been_read(l)) {
      return false;
    }
  }
  return true;
}

void Engine::fill_report(Shard& sh) {
  sh.report.delta_cycles = sh.stats.delta_cycles;
  sh.report.limit = opts_.max_evals_per_block * sh.blocks.size();
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
void Engine::guarded(Shard& sh, F&& f) {
  if (sh.error) {
    return;  // already broken; only keep the barrier protocol aligned
  }
  try {
    std::forward<F>(f)();
  } catch (...) {
    sh.error = std::current_exception();
  }
}

std::uint64_t engine_state_digest(const Engine& eng) {
  std::uint64_t h = kFnvOffset;
  for (BlockId b = 0; b < eng.model().num_blocks(); ++b) {
    h = digest_word(h, eng.block_state(b));
  }
  return h;
}

EngineCheckpoint save_checkpoint(const Engine& eng) {
  const SystemModel& model = eng.model();
  check_checkpointable(model);
  EngineCheckpoint ck;
  ck.cycle = eng.cycle();
  ck.total_delta_cycles = eng.total_delta_cycles();
  ck.block_states.reserve(model.num_blocks());
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    ck.block_states.push_back(eng.block_state(b));
  }
  ck.digest = states_digest(ck.block_states);
  ck.sched = eng.scheduler_checkpoint();
  // The combinational link values ride along (ascending link id) so the
  // scheduler's quiescence flags stay sound after the restore — see
  // snapshot_links.
  ck.link_ids = snapshot_links(model);
  ck.link_values.reserve(ck.link_ids.size());
  for (const LinkId l : ck.link_ids) {
    ck.link_values.push_back(eng.link_value(l));
  }
  ck.link_digest = states_digest(ck.link_values);
  return ck;
}

void restore_checkpoint(Engine& eng, const EngineCheckpoint& ck) {
  const SystemModel& model = eng.model();
  check_checkpointable(model);
  if (ck.block_states.size() != model.num_blocks()) {
    throw ContextualError(
        "checkpoint shape does not match the engine's model",
        {{"checkpoint_blocks", std::to_string(ck.block_states.size())},
         {"model_blocks", std::to_string(model.num_blocks())}});
  }
  if (states_digest(ck.block_states) != ck.digest) {
    throw ContextualError(
        "checkpoint digest mismatch: snapshot corrupted in flight",
        {{"cycle", std::to_string(ck.cycle)}});
  }
  // A hand-built checkpoint may omit the link snapshot entirely (both
  // fields defaulted); anything else must verify.
  const bool has_link_snapshot =
      !ck.link_ids.empty() || ck.link_digest != 0;
  if (has_link_snapshot &&
      (ck.link_ids.size() != ck.link_values.size() ||
       states_digest(ck.link_values) != ck.link_digest)) {
    throw ContextualError(
        "checkpoint link-value digest mismatch: snapshot corrupted in flight",
        {{"cycle", std::to_string(ck.cycle)}});
  }
  // link_digest covers the values only, so the ids are checked against
  // the model: exactly the list save_checkpoint emits, or nothing loads.
  if (has_link_snapshot && ck.link_ids != snapshot_links(model)) {
    throw ContextualError(
        "checkpoint link snapshot does not name the model's connected "
        "combinational links in ascending order",
        {{"cycle", std::to_string(ck.cycle)},
         {"checkpoint_links", std::to_string(ck.link_ids.size())}});
  }
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    eng.load_block_state(b, ck.block_states[b]);
  }
  for (std::size_t i = 0; i < ck.link_ids.size(); ++i) {
    eng.load_link_value(ck.link_ids[i], ck.link_values[i]);
  }
  // Verify the loads landed bit-for-bit — the same mirror-vs-hardware
  // cross-check the hardened host applies to its commit counters.
  if (engine_state_digest(eng) != ck.digest) {
    throw ContextualError(
        "restored engine state does not match the checkpoint digest",
        {{"cycle", std::to_string(ck.cycle)}});
  }
  // Scheduler bookkeeping rides along so the resumed engine replays the
  // same StepStats stream; a mismatched/empty snapshot canonicalizes.
  eng.restore_scheduler_state(ck.sched);
  eng.rebase(ck.cycle, ck.total_delta_cycles);
}

std::size_t schedule_rr_offset(std::uint64_t schedule_seed,
                               std::size_t num_blocks) {
  if (schedule_seed == 1 || num_blocks == 0) {
    return 0;
  }
  SplitMix64 rng(schedule_seed);
  return static_cast<std::size_t>(rng.next_below(num_blocks));
}

void reset_engine(Engine& eng) {
  const SystemModel& model = eng.model();
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    eng.load_block_state(b, model.block(b).logic->reset_state());
  }
  // Power-on links: the previous tenant's link values and HBR bits would
  // otherwise change the first cycle's delta and link-change counts.
  eng.clear_links();
  // Power-on scheduling state too: cursors back to their seeded offsets,
  // quiescence flags cleared — a reused farm engine must not leak the
  // previous tenant's scheduling stats into the next job's stream.
  eng.restore_scheduler_state({});
  eng.rebase(0, 0);
}

}  // namespace tmsim::core

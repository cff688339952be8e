#include "core/engine.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/fnv.h"
#include "common/rng.h"

namespace tmsim::core {
namespace {

constexpr BlockId kNoBlock = ~BlockId{0};

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
/// link a block writes or reads, ascending. A block the op program's
/// quiescence gate passes over rewrites neither its internal links nor
/// the primary outputs the testbench reads, and its quiescence flags hold
/// only for the external-input values it last read: a testbench that
/// drives the restored engine's stale value again raises no change event.
/// save_checkpoint emits exactly this list and restore_checkpoint accepts
/// nothing else.
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

/// Each block's logic in id order: what StateMemory builds its banks from.
std::vector<const SimBlock*> block_logic(const SystemModel& model) {
  std::vector<const SimBlock*> logic;
  logic.reserve(model.num_blocks());
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    logic.push_back(model.block(b).logic.get());
  }
  return logic;
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

}  // namespace

SimObserver::~SimObserver() = default;

const char* scheduler_kind_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kRoundRobin:
      return "round_robin";
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
    : model_(model),
      opts_(opts),
      // StateMemory refuses a model without blocks, LinkMemory one that
      // is not finalized.
      state_(block_logic(model)),
      links_(model) {
  TMSIM_CHECK_MSG(opts.max_evals_per_block >= 1, "eval limit must be positive");

  const std::size_t n = model.num_blocks();
  if (opts_.scheduler == SchedulerKind::kCompiled) {
    // A registered-only model compiles to every block once in ascending
    // ids — the §4.1 Fig. 3 schedule.
    program_.emplace(analysis::build_compiled_schedule(model));
  }

  link_comb_.assign(model.num_links(), 0);
  comb_reader_.assign(model.num_links(), kNoBlock);
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (info.kind == LinkKind::kCombinational) {
      link_comb_[l] = 1;
      if (!info.readers.empty()) {
        comb_reader_[l] = info.readers.front().block;  // the only reader
      }
    }
  }

  std::size_t max_in = 0;
  std::size_t max_out = 0;
  for (BlockId b = 0; b < n; ++b) {
    const BlockInstance& blk = model.block(b);
    max_in = std::max(max_in, blk.input_links.size());
    max_out = std::max(max_out, blk.output_links.size());
  }
  in_words_.assign(max_in, 0);
  out_words_.assign(max_out, 0);
  unstable_.assign(n, 0);
  evaluated_.assign(n, 0);
  if (program_) {
    state_fixed_.assign(n, 0);
    pending_input_.assign(n, 0);
    // A block is skippable only when every link it touches is
    // combinational: registered link banks flip globally, so a skipped
    // writer's would rot, and registered inputs change without a
    // change event. (Under the op program kSettle never consults the
    // gate; a settle member's own later kEval is gated like any other,
    // since its last settle evaluation already consumed its inputs.)
    skippable_.assign(n, 1);
    for (BlockId b = 0; b < n; ++b) {
      const BlockInstance& blk = model.block(b);
      for (const LinkId l : blk.input_links) {
        if (model.link(l).kind != LinkKind::kCombinational) {
          skippable_[b] = 0;
        }
      }
      for (const LinkId l : blk.output_links) {
        if (model.link(l).kind != LinkKind::kCombinational) {
          skippable_[b] = 0;
        }
      }
    }
  }
  rr_next_ = schedule_rr_offset(opts_.seed, n);
  rr_init_ = rr_next_;
}

void Engine::set_external_input(LinkId link, const BitVector& value) {
  check_external_input(model_, link);
  TMSIM_CHECK_MSG(value.width() == model_.link(link).width,
                  "link width mismatch");
  set_external_input(link, value.words()[0]);
}

void Engine::set_external_input(LinkId link, std::uint64_t value) {
  check_external_input(model_, link);
  if (links_.write_word(link, value) && program_) {
    // Wake the quiescence gate: the readers have fresh input, so
    // the next cycle must not skip them.
    settled_ = false;
    for (const Endpoint& reader : model_.link(link).readers) {
      pending_input_[reader.block] = 1;
    }
  }
}

BitVector Engine::link_value(LinkId link) const {
  return links_.read(link);
}

std::uint64_t Engine::link_word(LinkId link) const {
  return links_.word(link);
}

BitVector Engine::block_state(BlockId block) const {
  return state_.read_old(block);
}

void Engine::load_block_state(BlockId block, const BitVector& value) {
  state_.load_old(block, value);
  settled_ = false;
  if (program_) {
    // The committed state changed behind the block's back: any cached
    // fixed-point claim is stale, so force a re-evaluation next cycle.
    state_fixed_[block] = 0;
  }
}

void Engine::load_link_value(LinkId link, const BitVector& value) {
  settled_ = false;
  links_.write(link, value);
}

void Engine::clear_links() {
  settled_ = false;
  links_.clear();
}

SchedulerCheckpoint Engine::scheduler_checkpoint() const {
  SchedulerCheckpoint s;
  if (program_) {
    // An op program never moves the cursor.
    s.state_fixed = state_fixed_;
    s.pending_input = pending_input_;
  } else {
    s.rr_cursor = rr_next_;
  }
  return s;
}

void Engine::restore_scheduler_state(const SchedulerCheckpoint& sched) {
  // A snapshot whose shape does not match (a different model, or empty)
  // canonicalizes: the cursor back to its seeded offset, flags cleared —
  // committed results cannot depend on this by the engine contract, only
  // StepStats can.
  settled_ = false;
  const std::size_t n = model_.num_blocks();
  rr_next_ = sched.rr_cursor && *sched.rr_cursor < n ? *sched.rr_cursor
                                                     : rr_init_;
  if (program_) {
    const bool flags_ok = sched.state_fixed.size() == n &&
                          sched.pending_input.size() == n;
    if (flags_ok) {
      state_fixed_ = sched.state_fixed;
      pending_input_ = sched.pending_input;
    } else {
      std::fill(state_fixed_.begin(), state_fixed_.end(), 0);
      std::fill(pending_input_.begin(), pending_input_.end(), 0);
    }
  }
}

StepStats Engine::step() {
  // Cleared up front so that a cycle that throws (an evaluation error or
  // a ConvergenceError) leaves the engine unsettled.
  settled_ = false;
  stats_ = StepStats{};
  recent_changed_count_ = 0;
  tripped_scc_ = nullptr;
  std::fill(evaluated_.begin(), evaluated_.end(), 0);
  first_evals_ = 0;
  if (!(program_ ? run_program() : settle_round_robin())) {
    fail_cycle();
  }
  // End of system cycle: flip the state pointer of every block evaluated
  // this cycle, and the registered link banks (§4.1). A skipped block is
  // not committed: its old slot already holds its next state. A failed
  // cycle flips nothing, leaving the unsettled values the report
  // describes in the new slots.
  for (BlockId b = 0; b < evaluated_.size(); ++b) {
    if (evaluated_[b]) {
      state_.commit(b);
    }
  }
  links_.swap_registered_banks();

  // Explicit first-evaluation accounting, identical under every
  // scheduler: re-evaluations are delta cycles beyond each block's first.
  stats_.re_evaluations = stats_.delta_cycles - first_evals_;
  total_delta_cycles_ += stats_.delta_cycles;
  ++cycle_;
  if (program_ && stats_.delta_cycles == 0) {
    // No block evaluated: every block was quiescent, so no link and no
    // state moved and no flag changed — the next cycle is this one again.
    settled_ = true;
    idle_stats_ = stats_;
  }
  if (observer_) {
    observer_->on_cycle_commit(*this, stats_);
  }
  return stats_;
}

std::uint64_t Engine::advance_idle(std::uint64_t max) {
  if (!settled_) {
    return 0;
  }
  skipped_cycles_ += max;
  if (observer_ == nullptr) {
    cycle_ += max;
    return max;
  }
  for (std::uint64_t k = 0; k < max; ++k) {
    ++cycle_;
    observer_->on_cycle_commit(*this, idle_stats_);
  }
  return max;
}

void Engine::rebase(SystemCycle cycle, DeltaCycle total_deltas) {
  cycle_ = cycle;
  total_delta_cycles_ = total_deltas;
}

bool Engine::settle_round_robin() {
  // "Every system cycle is started by resetting all status bits to
  //  zero. [...] it is guaranteed that all routers are evaluated at
  //  least once"
  const std::size_t n = unstable_.size();
  links_.reset_all_hbr();
  std::fill(unstable_.begin(), unstable_.end(), 1);
  unstable_count_ = n;
  // The cursor scan is bounded: unstable_count_ > 0 with nothing left to
  // find is a bookkeeping desync, and the cycle fails structurally
  // instead of spinning forever.
  const DeltaCycle budget = opts_.max_evals_per_block * n;
  while (unstable_count_ > 0) {
    // "A simple round-robin scheduler will decide which non-stable
    //  router has to be evaluated."
    std::size_t scanned = 0;
    while (unstable_[rr_next_] == 0) {
      rr_next_ = (rr_next_ + 1) % n;
      if (++scanned > n) {
        return false;
      }
    }
    const BlockId b = rr_next_;
    rr_next_ = (rr_next_ + 1) % n;
    unstable_[b] = 0;
    --unstable_count_;

    evaluate_block(b, nullptr);

    // Self-loop safety of the sweep: re-check the HBR bits directly so a
    // bookkeeping bug cannot end a cycle early.
    if (unstable_[b] == 0 && !inputs_all_read(b)) {
      destabilize(b);
    }
    if (stats_.delta_cycles > budget) {
      return false;
    }
  }
  return true;
}

bool Engine::run_program() {
  for (const analysis::CompiledOp& op : program_->ops) {
    if (op.kind == analysis::CompiledOpKind::kSettle) {
      if (!settle_scc(op.scc)) {
        return false;
      }
      continue;
    }
    const bool drive = op.kind == analysis::CompiledOpKind::kDrive;
    if (quiescent(op.block)) {
      // The activity gate: evaluating a quiescent block would rewrite its
      // outputs with the values they hold and reproduce its old state, so
      // the op is skipped and the block is not committed. Only a
      // committing evaluation clears pending_input or sets state_fixed,
      // so between a block's kDrive and its kEval the block can stop
      // being quiescent but never become so: a block whose drive ran
      // always runs its kEval too.
      stats_.skipped_blocks += drive ? 0 : 1;
      continue;
    }
    // A kDrive needs only the block's outputs (its later kEval commits
    // the state), so it runs G alone; it still writes every output and
    // counts as one delta cycle, exactly like a full evaluation.
    evaluate_block(op.block, nullptr, drive);
  }
  return true;
}

bool Engine::settle_scc(std::uint32_t scc_index) {
  // Scoped round-robin over one strongly connected component, under the
  // same convergence contract as the pickup: each member gets
  // max_evals_per_block evaluations to settle.
  const analysis::CompiledScc& scc = program_->sccs[scc_index];
  const std::size_t m = scc.blocks.size();
  scc_unstable_.assign(m, 1);
  std::size_t remaining = m;
  const DeltaCycle limit = opts_.max_evals_per_block * m;
  CompiledSettleCtx ctx{&scc, scc_index + 1, &scc_unstable_, &remaining};
  std::size_t cursor = 0;
  DeltaCycle spent = 0;
  while (remaining > 0) {
    // Bounded cursor scan, as in settle_round_robin.
    std::size_t scanned = 0;
    while (scc_unstable_[cursor] == 0) {
      cursor = (cursor + 1) % m;
      if (++scanned > m) {
        tripped_scc_ = &scc;
        return false;
      }
    }
    const std::size_t mi = cursor;
    cursor = (cursor + 1) % m;
    scc_unstable_[mi] = 0;
    --remaining;
    evaluate_block(scc.blocks[mi], &ctx);
    if (++spent > limit) {
      tripped_scc_ = &scc;
      return false;
    }
  }
  return true;
}

void Engine::evaluate_block(BlockId b, const CompiledSettleCtx* ctx,
                            bool drive) {
  // Under the §4.2 pickup an evaluation marks its combinational inputs
  // read (HBR) and a changed output destabilizes its reader. An op
  // program does neither: its order already makes every input a
  // committing evaluation consumes final, and marking readers would keep
  // unstable_count_ nonzero forever. Inside a kSettle only the SCC's own
  // readers are re-flagged.
  const bool pickup = !program_;
  const bool inputs_changed = !pickup && pending_input_[b];
  const BlockInstance& blk = model_.block(b);
  const SimBlock& logic = *blk.logic;
  const std::size_t n_in = blk.input_links.size();
  const std::size_t n_out = blk.output_links.size();
  std::uint64_t* const in = in_words_.data();
  std::uint64_t* const out = out_words_.data();

  // Latch inputs: a later changed write to any of them must destabilize
  // us.
  for (std::size_t p = 0; p < n_in; ++p) {
    const LinkId l = blk.input_links[p];
    in[p] = links_.word(l);
    if (pickup && link_comb_[l]) {
      links_.mark_read(l);
    }
  }

  const BlockState& old = state_.old_state(b);
  if (drive) {
    logic.drive(old, {in, n_in}, {out, n_out});
  } else {
    // The last evaluation of the cycle is the committing one: it leaves
    // the block's next state in its new slot.
    logic.step(old, {in, n_in}, state_.new_state(b), {out, n_out});
    if (!pickup) {
      // Everything pending is consumed by this committing evaluation;
      // activity that arrives later (writes below, external inputs)
      // re-marks it. A kDrive consumes nothing, so its kEval still runs.
      pending_input_[b] = 0;
    }
  }

  bool outputs_changed = false;
  for (std::size_t p = 0; p < n_out; ++p) {
    const LinkId l = blk.output_links[p];
    // Registered links never destabilize (§4.1): write_word reports no
    // change for them.
    if (!links_.write_word(l, out[p])) {
      continue;
    }
    outputs_changed = true;
    // "if the router writes a value to a link, which is not equal to
    //  the current value in the memory, it will reset this link's
    //  status bit to zero" — destabilizing the reader.
    ++stats_.link_changes;
    recent_changed_links_[recent_changed_count_++ % kChangedLinkHistory] = l;
    const BlockId reader = comb_reader_[l];
    if (pickup) {
      links_.clear_hbr(l);
      if (reader != kNoBlock) {
        destabilize(reader);
      }
    } else if (reader != kNoBlock) {
      pending_input_[reader] = 1;  // wake its gate
    }
    if (ctx && program_->scc_of_link[l] == ctx->scc_id) {
      // Intra-SCC edge changed mid-settle: wake the (single) reader.
      const auto it = std::lower_bound(ctx->scc->blocks.begin(),
                                       ctx->scc->blocks.end(), reader);
      const std::size_t mi =
          static_cast<std::size_t>(it - ctx->scc->blocks.begin());
      if (!(*ctx->unstable)[mi]) {
        (*ctx->unstable)[mi] = 1;
        ++*ctx->remaining;
      }
    }
  }

  if (!pickup && !drive) {
    // State fixed point: a pure step() that mapped old == new will
    // reproduce this exact evaluation as long as the inputs stay put —
    // the precondition of the quiescence skip. The compare runs only
    // when the evaluation saw no new input and moved no output: a block
    // with activity on its ports is rarely at a fixed point, and a
    // missed one costs one more evaluation, not correctness
    // (state_fixed == 0 never skips anything).
    state_fixed_[b] = !(inputs_changed || outputs_changed) &&
                      state_.new_state(b).equals(old);
  }
  if (!evaluated_[b]) {
    evaluated_[b] = 1;
    ++first_evals_;
  }
  ++stats_.delta_cycles;
  if (trace_) {
    trace_(cycle_, stats_.delta_cycles - 1, b);
  }
}

void Engine::destabilize(BlockId b) {
  if (unstable_[b] == 0) {
    unstable_[b] = 1;
    ++unstable_count_;
  }
}

bool Engine::inputs_all_read(BlockId b) const {
  for (const LinkId l : model_.block(b).input_links) {
    if (link_comb_[l] && !links_.has_been_read(l)) {
      return false;
    }
  }
  return true;
}

void Engine::fail_cycle() {
  ConvergenceReport r;
  r.cycle = cycle_;
  r.delta_cycles = stats_.delta_cycles;
  r.num_blocks = model_.num_blocks();
  r.limit = opts_.max_evals_per_block * r.num_blocks;
  r.link_changes = stats_.link_changes;
  if (tripped_scc_ != nullptr) {
    r.oscillating_blocks = tripped_scc_->blocks;
  } else {
    for (BlockId b = 0; b < unstable_.size(); ++b) {
      if (unstable_[b]) {
        r.oscillating_blocks.push_back(b);
      }
    }
  }
  // Newest first, each link once.
  const std::size_t have =
      std::min(recent_changed_count_, kChangedLinkHistory);
  for (std::size_t i = 0; i < have; ++i) {
    const LinkId l = recent_changed_links_[(recent_changed_count_ - 1 - i) %
                                           kChangedLinkHistory];
    if (std::find(r.last_changed_links.begin(), r.last_changed_links.end(),
                  l) == r.last_changed_links.end()) {
      r.last_changed_links.push_back(l);
    }
  }
  if (observer_) {
    observer_->on_convergence_failure(*this, r);
  }
  throw ConvergenceError(r);
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

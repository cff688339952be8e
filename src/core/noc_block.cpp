#include "core/noc_block.h"

#include <array>
#include <string>

namespace tmsim::core {

using noc::kForwardBits;
using noc::kPorts;
using noc::Port;

namespace {

/// A router's resident registers: the native state the engine banks.
///
/// It also memoizes G. Every router output is a function of the
/// registers alone, and a block's old slot does not change until the
/// block is committed, so the grants and outputs computed by a block's
/// first evaluation (or its kDrive) serve every re-evaluation in that
/// cycle — and, while the block is skipped, every later cycle too: the
/// router pays G at most once per committed state and F once per
/// evaluation, as DirectNocSimulation does. Every write to the registers
/// goes through this class and drops the memo.
class RouterBlockState final : public BlockState {
 public:
  explicit RouterBlockState(std::shared_ptr<const noc::RouterStateCodec> codec)
      : regs_(codec->config()), codec_(std::move(codec)) {}

  BitVector to_word() const override { return codec_->serialize(regs_); }
  void load_word(const BitVector& word) override {
    g_valid_ = false;
    codec_->deserialize_into(word, regs_);
  }
  bool equals(const BlockState& other) const override {
    return regs_ == cast(other).regs_;
  }

  static const RouterBlockState& cast(const BlockState& s) {
    return static_cast<const RouterBlockState&>(s);
  }
  static RouterBlockState& cast(BlockState& s) {
    return static_cast<RouterBlockState&>(s);
  }

  const noc::RouterState& regs() const { return regs_; }
  /// For F to overwrite; drops the memo.
  noc::RouterState& regs_for_write() {
    g_valid_ = false;
    return regs_;
  }

  /// G of the registers: computed on first use, then memoized.
  const noc::Grants& grants(const noc::RouterEnv& env) const {
    fill_g(env);
    return grants_;
  }
  const noc::RouterOutputs& outputs(const noc::RouterEnv& env) const {
    fill_g(env);
    return outputs_;
  }

 private:
  void fill_g(const noc::RouterEnv& env) const {
    if (!g_valid_) {
      grants_ = noc::compute_grants(regs_, env);
      outputs_ = noc::compute_outputs(regs_, grants_, env);
      g_valid_ = true;
    }
  }

  noc::RouterState regs_;
  std::shared_ptr<const noc::RouterStateCodec> codec_;
  // The memo: written only by the thread evaluating this block.
  mutable bool g_valid_ = false;
  mutable noc::Grants grants_;
  mutable noc::RouterOutputs outputs_;
};

/// Output link words of G, in port order (see the header's convention).
void encode_outputs(const noc::RouterOutputs& o,
                    std::span<std::uint64_t> out) {
  for (std::size_t p = 0; p < kPorts; ++p) {
    out[p] = noc::encode_forward(o.fwd_out[p]);
  }
  for (std::size_t p = 1; p < kPorts; ++p) {
    out[kPorts + p - 1] = noc::encode_credit(o.credit_out[p]);
  }
  out[9] = noc::encode_credit(o.credit_out[static_cast<std::size_t>(Port::kLocal)]);
}

}  // namespace

RouterBlock::RouterBlock(std::shared_ptr<const noc::RouterStateCodec> codec,
                         noc::RouterEnv env)
    : codec_(std::move(codec)), env_(env) {
  TMSIM_CHECK_MSG(codec_ != nullptr, "null codec");
  TMSIM_CHECK_MSG(env_.net != nullptr, "null network config");
}

std::size_t RouterBlock::state_width() const { return codec_->state_bits(); }

std::size_t RouterBlock::input_width(std::size_t port) const {
  TMSIM_CHECK_MSG(port < num_inputs(), "input port out of range");
  return port < kPorts ? kForwardBits : codec_->config().num_vcs;
}

std::size_t RouterBlock::output_width(std::size_t port) const {
  TMSIM_CHECK_MSG(port < num_outputs(), "output port out of range");
  return port < kPorts ? kForwardBits : codec_->config().num_vcs;
}

BitVector RouterBlock::reset_state() const { return codec_->reset_word(); }

std::unique_ptr<BlockState> RouterBlock::make_state() const {
  return std::make_unique<RouterBlockState>(codec_);
}

void RouterBlock::step_state(const noc::RouterState& s,
                             std::span<const std::uint64_t> in,
                             noc::RouterState& next,
                             std::span<std::uint64_t> out) const {
  const noc::Grants grants = noc::compute_grants(s, env_);
  step_with_g(s, grants, noc::compute_outputs(s, grants, env_), in, next, out);
}

void RouterBlock::step_with_g(const noc::RouterState& s,
                              const noc::Grants& grants,
                              const noc::RouterOutputs& outs,
                              std::span<const std::uint64_t> in,
                              noc::RouterState& next,
                              std::span<std::uint64_t> out) const {
  const std::size_t num_vcs = codec_->config().num_vcs;
  noc::RouterInputs inputs;
  for (std::size_t p = 0; p < kPorts; ++p) {
    inputs.fwd_in[p] = noc::decode_forward(static_cast<std::uint32_t>(in[p]));
  }
  // Credit inputs for the four grid output ports (NORTH..WEST).
  for (std::size_t o = 1; o < kPorts; ++o) {
    inputs.credit_in[o] = noc::decode_credit(
        static_cast<std::uint32_t>(in[kPorts + o - 1]), num_vcs);
  }
  // Local NI echo: a flit delivered on the local output is consumed
  // unconditionally, returning its credit in the same cycle.
  const noc::LinkForward& delivered =
      outs.fwd_out[static_cast<std::size_t>(Port::kLocal)];
  if (delivered.valid) {
    inputs.credit_in[static_cast<std::size_t>(Port::kLocal)].set(delivered.vc);
  }

  noc::compute_next_state_into(s, grants, inputs, env_, next);
  if (!out.empty()) {
    encode_outputs(outs, out);
  }
}

void RouterBlock::step(const BlockState& old, std::span<const std::uint64_t> in,
                       BlockState& next, std::span<std::uint64_t> out) const {
  const RouterBlockState& o = RouterBlockState::cast(old);
  step_with_g(o.regs(), o.grants(env_), o.outputs(env_), in,
              RouterBlockState::cast(next).regs_for_write(), out);
}

void RouterBlock::drive(const BlockState& old, std::span<const std::uint64_t>,
                        std::span<std::uint64_t> out) const {
  // Every router output is G(state) (output_depends_on_input is false).
  encode_outputs(RouterBlockState::cast(old).outputs(env_), out);
}

void RouterBlock::evaluate(const BitVector& old_state,
                           std::span<const BitVector> inputs,
                           BitVector& new_state,
                           std::span<BitVector> outputs) const {
  // RouterState is a flat value: the word view decodes into two stack
  // locals and allocates nothing per delta cycle. F overwrites `next`
  // whole, so a copy of `old` is only its cheapest correctly shaped seed.
  noc::RouterState old(codec_->config());
  codec_->deserialize_into(old_state, old);
  noc::RouterState next = old;
  std::array<std::uint64_t, 9> in{};
  std::array<std::uint64_t, 10> out{};
  for (std::size_t p = 0; p < in.size(); ++p) {
    in[p] = inputs[p].get_field(0, inputs[p].width());
  }
  step_state(old, in, next, out);
  codec_->serialize_into(next, new_state);
  for (std::size_t p = 0; p < out.size(); ++p) {
    outputs[p].set_field(0, outputs[p].width(), out[p]);
  }
}

NocModel build_noc_model(const noc::NetworkConfig& net) {
  net.validate();
  NocModel nm;
  const std::size_t n = net.num_routers();
  const std::size_t num_vcs = net.router.num_vcs;
  auto codec = std::make_shared<const noc::RouterStateCodec>(net.router);

  for (std::size_t r = 0; r < n; ++r) {
    nm.model.add_block(
        std::make_shared<RouterBlock>(codec,
                                      noc::RouterEnv{&net, router_coord(net, r)}),
        "router" + std::to_string(r));
  }

  const auto rname = [](std::size_t r) { return "r" + std::to_string(r); };

  // Forward links: one per router output port. Grid ports connect to the
  // facing neighbour; unconnected mesh-boundary ports get dangling links
  // (driven, observed by nobody). The facing neighbour's matching input
  // port on a boundary is left as an external input link that is never
  // driven — it reads as the all-zero idle encoding.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t o = 1; o < kPorts; ++o) {
      const auto port = static_cast<Port>(o);
      const LinkId fwd = nm.model.add_link(
          rname(r) + ".fwd." + noc::port_name(port), kForwardBits,
          LinkKind::kCombinational);
      nm.model.bind_output(r, o, fwd);
      const noc::UpstreamPort down = noc::upstream_of(net, r, port);
      if (down.connected) {
        // Our output port `o` feeds the neighbour's input port facing
        // back at us — which is `down.port` (== opposite(o)).
        nm.model.bind_input(down.router, static_cast<std::size_t>(down.port),
                            fwd);
      }
    }
  }

  // Credit links: one per router grid *input* port, driven back upstream.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = 1; p < kPorts; ++p) {
      const auto port = static_cast<Port>(p);
      const LinkId cr = nm.model.add_link(
          rname(r) + ".credit." + noc::port_name(port), num_vcs,
          LinkKind::kCombinational);
      nm.model.bind_output(r, kPorts + p - 1, cr);
      const noc::UpstreamPort up = noc::upstream_of(net, r, port);
      if (up.connected) {
        // The router driving our input port p receives our credits on its
        // credit-in port for its output port `up.port`.
        nm.model.bind_input(up.router,
                            kPorts + static_cast<std::size_t>(up.port) - 1, cr);
      }
    }
  }

  // Tie off unconnected grid input ports (mesh boundaries, degenerate
  // torus dimensions): external links that are never driven read as the
  // all-zero idle encoding.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = 1; p < kPorts; ++p) {
      const auto port = static_cast<Port>(p);
      if (!noc::upstream_of(net, r, port).connected) {
        const LinkId fwd = nm.model.add_link(
            rname(r) + ".fwd." + noc::port_name(port) + ".tieoff",
            kForwardBits, LinkKind::kCombinational);
        nm.model.bind_input(r, p, fwd);
        const LinkId cr = nm.model.add_link(
            rname(r) + ".credit." + noc::port_name(port) + ".tieoff",
            num_vcs, LinkKind::kCombinational);
        nm.model.bind_input(r, kPorts + p - 1, cr);
      }
    }
  }

  // Local-port external links.
  nm.local_fwd_in.resize(n);
  nm.local_fwd_out.resize(n);
  nm.local_credit_out.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    nm.local_fwd_in[r] = nm.model.add_link(rname(r) + ".fwd.local_in",
                                           kForwardBits,
                                           LinkKind::kCombinational);
    nm.model.bind_input(r, static_cast<std::size_t>(Port::kLocal),
                        nm.local_fwd_in[r]);
    nm.local_fwd_out[r] = nm.model.add_link(rname(r) + ".fwd.local_out",
                                            kForwardBits,
                                            LinkKind::kCombinational);
    nm.model.bind_output(r, static_cast<std::size_t>(Port::kLocal),
                         nm.local_fwd_out[r]);
    nm.local_credit_out[r] = nm.model.add_link(
        rname(r) + ".credit.local", num_vcs, LinkKind::kCombinational);
    nm.model.bind_output(r, 9, nm.local_credit_out[r]);
  }

  nm.model.finalize();
  return nm;
}

SeqNocSimulation::SeqNocSimulation(const noc::NetworkConfig& net,
                                   const EngineOptions& opts)
    : net_(net),
      noc_(build_noc_model(net_)),
      sim_(noc_.model, opts) {}

void SeqNocSimulation::set_local_input(std::size_t r,
                                       const noc::LinkForward& f) {
  sim_.set_external_input(noc_.local_fwd_in.at(r),
                          std::uint64_t{noc::encode_forward(f)});
  dirty_inputs_.push_back(r);
}

void SeqNocSimulation::step() {
  last_stats_ = sim_.step();
  // Inputs are per-cycle: reset everything that was driven back to idle.
  for (std::size_t r : dirty_inputs_) {
    sim_.set_external_input(noc_.local_fwd_in[r], std::uint64_t{0});
  }
  dirty_inputs_.clear();
}

std::uint64_t SeqNocSimulation::advance_idle(std::uint64_t max) {
  if (!dirty_inputs_.empty()) {
    return 0;
  }
  // A settled engine's last step() was the idle cycle, so last_stats_
  // already holds the stats of every cycle skipped here.
  return sim_.advance_idle(max);
}

noc::LinkForward SeqNocSimulation::local_output(std::size_t r) const {
  return noc::decode_forward(static_cast<std::uint32_t>(
      sim_.link_word(noc_.local_fwd_out.at(r))));
}

noc::CreditWires SeqNocSimulation::local_input_credits(std::size_t r) const {
  return noc::decode_credit(
      static_cast<std::uint32_t>(
          sim_.link_word(noc_.local_credit_out.at(r))),
      net_.router.num_vcs);
}

BitVector SeqNocSimulation::router_state_word(std::size_t r) const {
  return sim_.block_state(r);
}

void SeqNocSimulation::idle_all_inputs() {
  // Defensive against engine reuse: whatever the previous tenant (or an
  // interrupted cycle) left on the local stimulus links must not bleed
  // into the first resumed cycle.
  for (const LinkId l : noc_.local_fwd_in) {
    sim_.set_external_input(l, std::uint64_t{0});
  }
  dirty_inputs_.clear();
}

void SeqNocSimulation::restore(const EngineCheckpoint& ck) {
  restore_checkpoint(sim_, ck);
  idle_all_inputs();
}

void SeqNocSimulation::reset() {
  reset_engine(sim_);
  idle_all_inputs();
}

}  // namespace tmsim::core

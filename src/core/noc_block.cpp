#include "core/noc_block.h"

#include <string>

namespace tmsim::core {

using noc::kForwardBits;
using noc::kPorts;
using noc::Port;

RouterBlock::RouterBlock(std::shared_ptr<const noc::RouterStateCodec> codec,
                         noc::RouterEnv env)
    : codec_(std::move(codec)),
      env_(env),
      scratch_old_(codec_ ? codec_->config() : noc::RouterConfig{}),
      scratch_new_(codec_ ? codec_->config() : noc::RouterConfig{}) {
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

void RouterBlock::evaluate(const BitVector& old_state,
                           std::span<const BitVector> inputs,
                           BitVector& new_state,
                           std::span<BitVector> outputs) const {
  const std::size_t num_vcs = codec_->config().num_vcs;
  codec_->deserialize_into(old_state, scratch_old_);
  const noc::RouterState& s = scratch_old_;

  noc::RouterInputs in;
  for (std::size_t p = 0; p < kPorts; ++p) {
    in.fwd_in[p] = noc::decode_forward(
        static_cast<std::uint32_t>(inputs[p].get_field(0, kForwardBits)));
  }
  // Credit inputs for the four grid output ports (NORTH..WEST).
  for (std::size_t o = 1; o < kPorts; ++o) {
    in.credit_in[o] = noc::decode_credit(
        static_cast<std::uint32_t>(inputs[kPorts + o - 1].get_field(0, num_vcs)),
        num_vcs);
  }

  const noc::Grants grants = noc::compute_grants(s, env_);
  const noc::RouterOutputs out = noc::compute_outputs(s, grants, env_);

  // Local NI echo: a flit delivered on the local output is consumed
  // unconditionally, returning its credit in the same cycle.
  const noc::LinkForward& delivered =
      out.fwd_out[static_cast<std::size_t>(Port::kLocal)];
  if (delivered.valid) {
    in.credit_in[static_cast<std::size_t>(Port::kLocal)].set(delivered.vc);
  }

  noc::compute_next_state_into(s, grants, in, env_, scratch_new_);
  codec_->serialize_into(scratch_new_, new_state);

  for (std::size_t o = 0; o < kPorts; ++o) {
    outputs[o].set_field(0, kForwardBits, noc::encode_forward(out.fwd_out[o]));
  }
  for (std::size_t p = 1; p < kPorts; ++p) {
    outputs[kPorts + p - 1].set_field(0, num_vcs,
                                      noc::encode_credit(out.credit_out[p]));
  }
  outputs[9].set_field(
      0, num_vcs,
      noc::encode_credit(out.credit_out[static_cast<std::size_t>(Port::kLocal)]));
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
  BitVector v(noc::kForwardBits);
  v.set_field(0, noc::kForwardBits, noc::encode_forward(f));
  sim_.set_external_input(noc_.local_fwd_in.at(r), v);
  dirty_inputs_.push_back(r);
}

void SeqNocSimulation::step() {
  last_stats_ = sim_.step();
  // Inputs are per-cycle: reset everything that was driven back to idle.
  const BitVector idle(noc::kForwardBits);
  for (std::size_t r : dirty_inputs_) {
    sim_.set_external_input(noc_.local_fwd_in[r], idle);
  }
  dirty_inputs_.clear();
}

noc::LinkForward SeqNocSimulation::local_output(std::size_t r) const {
  return noc::decode_forward(static_cast<std::uint32_t>(
      sim_.link_value(noc_.local_fwd_out.at(r))
          .get_field(0, noc::kForwardBits)));
}

noc::CreditWires SeqNocSimulation::local_input_credits(std::size_t r) const {
  return noc::decode_credit(
      static_cast<std::uint32_t>(
          sim_.link_value(noc_.local_credit_out.at(r))
              .get_field(0, net_.router.num_vcs)),
      net_.router.num_vcs);
}

BitVector SeqNocSimulation::router_state_word(std::size_t r) const {
  return sim_.block_state(r);
}

void SeqNocSimulation::idle_all_inputs() {
  // Defensive against engine reuse: whatever the previous tenant (or an
  // interrupted cycle) left on the local stimulus links must not bleed
  // into the first resumed cycle.
  const BitVector idle(noc::kForwardBits);
  for (const LinkId l : noc_.local_fwd_in) {
    sim_.set_external_input(l, idle);
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

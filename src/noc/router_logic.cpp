#include "noc/router_logic.h"

#include <bit>
#include <cstdint>

namespace tmsim::noc {

namespace {

std::size_t in_port_of(std::size_t q, const RouterConfig& cfg) {
  return q / cfg.num_vcs;
}

std::size_t vc_of(std::size_t q, const RouterConfig& cfg) {
  return q % cfg.num_vcs;
}

}  // namespace

QueueRequest request_of(const RouterState& s, std::size_t p, std::size_t v,
                        const RouterEnv& env) {
  const RouterConfig& cfg = env.net->router;
  const QueueState& qs = s.queues[p * cfg.num_vcs + v];
  const Flit& head = qs.fifo.front();
  // Mid-packet: the route is held until the TAIL passes.
  Port o = qs.out_port;
  if (qs.locked) {
    TMSIM_CHECK_MSG(head.type == FlitType::kBody || head.type == FlitType::kTail,
                    "locked queue must hold BODY/TAIL at its head");
    TMSIM_CHECK_MSG(static_cast<std::size_t>(o) < kPorts,
                    "locked queue routes to a nonexistent output port");
  } else {
    TMSIM_CHECK_MSG(head.type == FlitType::kHead,
                    "unlocked queue must hold a HEAD at its head");
    const HeadFields h = decode_head(head.payload);
    o = route_xy(*env.net, env.coord, Coord{h.dest_x, h.dest_y});
  }
  const OutVcState& ovc = s.out_vcs[RouterState::index(cfg, o, v)];
  // Mid-packet flits flow only while this queue owns the output VC; a
  // HEAD may only claim a free one.
  const bool lock_ok = qs.locked ? ovc.busy && ovc.owner_port == p : !ovc.busy;
  return QueueRequest{o, ovc.credits != 0 && lock_ok};
}

std::optional<Port> queue_request(const RouterState& s, std::size_t q,
                                  const RouterEnv& env) {
  if (s.queues[q].fifo.empty()) {
    return std::nullopt;
  }
  const RouterConfig& cfg = env.net->router;
  return request_of(s, in_port_of(q, cfg), vc_of(q, cfg), env).port;
}

bool queue_eligible(const RouterState& s, std::size_t q,
                    const RouterEnv& env) {
  if (s.queues[q].fifo.empty()) {
    return false;
  }
  const RouterConfig& cfg = env.net->router;
  return request_of(s, in_port_of(q, cfg), vc_of(q, cfg), env).eligible;
}

int arbiter_grant(const RouterState& s, Port o, const RouterEnv& env) {
  return compute_grants(s, env).granted[static_cast<std::size_t>(o)];
}

Grants compute_grants(const RouterState& s, const RouterEnv& env) {
  const RouterConfig& cfg = env.net->router;
  const std::size_t nq = cfg.num_queues();
  // Pass 1: bit q of req[o] is set when queue q requests port o and may
  // be granted.
  std::array<std::uint32_t, kPorts> req{};
  std::size_t q = 0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    for (std::size_t v = 0; v < cfg.num_vcs; ++v, ++q) {
      if (s.queues[q].fifo.empty()) {
        continue;
      }
      const QueueRequest r = request_of(s, p, v, env);
      req[static_cast<std::size_t>(r.port)] |= std::uint32_t{r.eligible} << q;
    }
  }
  // Pass 2: the first requester at or after rr_ptr, wrapping around.
  Grants g;
  for (std::size_t o = 0; o < kPorts; ++o) {
    if (req[o] == 0) {
      continue;
    }
    // A decoded pointer may exceed the queue count.
    const std::size_t start = s.rr_ptr[o] % nq;
    const std::uint32_t from_start = req[o] >> start;
    g.granted[o] = from_start != 0
                       ? static_cast<int>(start) + std::countr_zero(from_start)
                       : std::countr_zero(req[o]);
  }
  return g;
}

RouterOutputs compute_outputs(const RouterState& s, const Grants& grants,
                              const RouterEnv& env) {
  const RouterConfig& cfg = env.net->router;
  RouterOutputs out;
  for (std::size_t o = 0; o < kPorts; ++o) {
    const int g = grants.granted[o];
    if (g < 0) {
      continue;
    }
    const std::size_t q = static_cast<std::size_t>(g);
    out.fwd_out[o] = LinkForward{
        /*valid=*/true,
        static_cast<std::uint8_t>(vc_of(q, cfg)),
        s.queues[q].fifo.front(),
    };
    out.credit_out[in_port_of(q, cfg)].set(vc_of(q, cfg));
  }
  return out;
}

RouterOutputs compute_outputs(const RouterState& s, const RouterEnv& env) {
  return compute_outputs(s, compute_grants(s, env), env);
}

RouterState compute_next_state(const RouterState& s, const RouterInputs& in,
                               const RouterEnv& env) {
  return compute_next_state(s, compute_grants(s, env), in, env);
}

RouterState compute_next_state(const RouterState& s, const Grants& grants,
                               const RouterInputs& in, const RouterEnv& env) {
  RouterState next = s;
  compute_next_state_into(s, grants, in, env, next);
  return next;
}

void compute_next_state_into(const RouterState& s, const Grants& grants,
                             const RouterInputs& in, const RouterEnv& env,
                             RouterState& next) {
  const RouterConfig& cfg = env.net->router;
  next = s;

  // 1. Pops: one granted queue per output port forwards its head flit.
  for (std::size_t o = 0; o < kPorts; ++o) {
    const int g = grants.granted[o];
    if (g < 0) {
      continue;
    }
    const std::size_t q = static_cast<std::size_t>(g);
    const std::size_t v = vc_of(q, cfg);
    const std::size_t ovc_idx = RouterState::index(cfg, static_cast<Port>(o), v);
    const Flit flit = next.queues[q].fifo.pop();

    if (flit.type == FlitType::kHead) {
      next.queues[q].locked = true;
      next.queues[q].out_port = static_cast<Port>(o);
      next.out_vcs[ovc_idx].busy = true;
      next.out_vcs[ovc_idx].owner_port =
          static_cast<std::uint8_t>(in_port_of(q, cfg));
    } else if (flit.type == FlitType::kTail) {
      next.queues[q].locked = false;
      next.out_vcs[ovc_idx].busy = false;
    }
    TMSIM_CHECK_MSG(next.out_vcs[ovc_idx].credits > 0,
                    "flit forwarded without a credit");
    --next.out_vcs[ovc_idx].credits;
    next.rr_ptr[o] =
        static_cast<std::uint8_t>(q + 1 == cfg.num_queues() ? 0 : q + 1);
  }

  // 2. Credit returns from downstream routers. The counter wraps at its
  // register width like synthesized hardware: under the dynamic schedule
  // (§4.2) this function can run against stale link values — e.g. last
  // cycle's credit wire still sitting in the link memory because the
  // downstream router has not been evaluated yet this cycle — and the
  // resulting next state is discarded when the block is re-evaluated.
  // Committed states never overflow (checked by check_credit_invariant).
  const std::uint8_t credit_mask =
      static_cast<std::uint8_t>((1u << cfg.credit_bits()) - 1);
  for (std::size_t o = 0; o < kPorts; ++o) {
    for (std::size_t v = 0; v < cfg.num_vcs; ++v) {
      if (in.credit_in[o].get(v)) {
        OutVcState& ovc =
            next.out_vcs[RouterState::index(cfg, static_cast<Port>(o), v)];
        ovc.credits = static_cast<std::uint8_t>((ovc.credits + 1) &
                                                credit_mask);
      }
    }
  }

  // 3. Pushes: flits arriving on the input links land in their VC queue.
  for (std::size_t p = 0; p < kPorts; ++p) {
    const LinkForward& f = in.fwd_in[p];
    if (!f.valid) {
      continue;
    }
    TMSIM_CHECK_MSG(f.flit.type != FlitType::kIdle,
                    "valid link carries an IDLE flit");
    TMSIM_CHECK_MSG(f.vc < cfg.num_vcs, "link vc out of range");
    QueueState& qs =
        next.queues[RouterState::index(cfg, static_cast<Port>(p), f.vc)];
    // push_overwrite, not push: a transient evaluation against a stale
    // forward link can replay last cycle's flit into a queue that is
    // already full; hardware would advance the write pointer regardless,
    // and the re-evaluation discards this state (see the credit comment
    // above). Committed states never overflow.
    qs.fifo.push_overwrite(f.flit);
  }
}

}  // namespace tmsim::noc

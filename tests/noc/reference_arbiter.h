// The scalar crossbar arbiter the router used before compute_grants became
// a request-mask priority encoder, kept verbatim as a test oracle: every
// arbiter probes every queue from its round-robin pointer on, and each
// probe decodes and routes the queue's head again. It shares nothing with
// compute_grants except route_xy and the state types. Calls are qualified
// because argument-dependent lookup also finds the tmsim::noc versions.
#pragma once

#include <optional>

#include "noc/router_logic.h"

namespace tmsim::noc::reference {

inline std::size_t in_port_of(std::size_t q, const RouterConfig& cfg) {
  return q / cfg.num_vcs;
}

inline std::size_t vc_of(std::size_t q, const RouterConfig& cfg) {
  return q % cfg.num_vcs;
}

inline std::optional<Port> queue_request(const RouterState& s, std::size_t q,
                                         const RouterEnv& env) {
  const QueueState& qs = s.queues[q];
  if (qs.fifo.empty()) {
    return std::nullopt;
  }
  const Flit& head = qs.fifo.front();
  if (qs.locked) {
    // Mid-packet: the route is held until the TAIL passes.
    TMSIM_CHECK_MSG(head.type == FlitType::kBody || head.type == FlitType::kTail,
                    "locked queue must hold BODY/TAIL at its head");
    return qs.out_port;
  }
  TMSIM_CHECK_MSG(head.type == FlitType::kHead,
                  "unlocked queue must hold a HEAD at its head");
  const HeadFields h = decode_head(head.payload);
  return route_xy(*env.net, env.coord, Coord{h.dest_x, h.dest_y});
}

inline bool queue_eligible(const RouterState& s, std::size_t q,
                           const RouterEnv& env) {
  const std::optional<Port> req = reference::queue_request(s, q, env);
  if (!req.has_value()) {
    return false;
  }
  const RouterConfig& cfg = env.net->router;
  const std::size_t v = vc_of(q, cfg);
  const OutVcState& ovc = s.out_vcs[RouterState::index(cfg, *req, v)];
  if (ovc.credits == 0) {
    return false;
  }
  if (s.queues[q].locked) {
    // Mid-packet flits flow only while this queue owns the output VC.
    return ovc.busy && ovc.owner_port == in_port_of(q, cfg);
  }
  // A HEAD may only claim a free output VC.
  return !ovc.busy;
}

inline int arbiter_grant(const RouterState& s, Port o, const RouterEnv& env) {
  const RouterConfig& cfg = env.net->router;
  const std::size_t nq = cfg.num_queues();
  const std::size_t start = s.rr_ptr[static_cast<std::size_t>(o)];
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t q = (start + i) % nq;
    if (reference::queue_eligible(s, q, env) &&
        *reference::queue_request(s, q, env) == o) {
      return static_cast<int>(q);
    }
  }
  return -1;
}

inline Grants compute_grants(const RouterState& s, const RouterEnv& env) {
  Grants g;
  for (std::size_t o = 0; o < kPorts; ++o) {
    g.granted[o] = reference::arbiter_grant(s, static_cast<Port>(o), env);
  }
  return g;
}

inline RouterOutputs compute_outputs(const RouterState& s, const Grants& grants,
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

}  // namespace tmsim::noc::reference

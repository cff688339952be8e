// The Kavaldjiev router's combinational logic as pure functions.
//
// This is the reproduction's single source of truth for router behaviour.
// All three simulation engines — the sequential time-multiplexed simulator
// (core/), the coarse-grained SystemC-substitute model (sysc/) and the
// signal-level structural model (rtlsim/) — call these functions, which
// mirrors the paper's premise that the *same RTL* runs under different
// simulation harnesses ("almost unmodified VHDL sources", §4).
//
// Timing model of the router (one system cycle):
//   G(state):  outputs — crossbar grants, forwarded flits, credit returns —
//              are combinational functions of the *registered* state only
//              (queue contents, route locks, credit counters, round-robin
//              pointers). They are stable for the whole system cycle.
//   F(state, inputs): the next registered state consumes the *current*
//              cycle's link values driven by the neighbouring routers'
//              G — the combinational boundary of §4.2.
//
// Microarchitecture (§2.1):
//  - 5 ports × num_vcs input queues; the 20 queue outputs connect directly
//    to a 20×5 asymmetric crossbar (no per-port multiplexing).
//  - 5 round-robin arbiters, one per crossbar output.
//  - wormhole routing: a HEAD flit locks (queue → output port) and
//    (output VC → owner queue) until its TAIL passes.
//  - VC flow control: per-output-VC credit counters track free slots in
//    the downstream queue; invariant: credits + downstream occupancy ==
//    queue depth, every cycle.
#pragma once

#include <array>
#include <optional>

#include "noc/config.h"
#include "noc/link.h"
#include "noc/router_state.h"
#include "noc/topology.h"

namespace tmsim::noc {

/// Per-router constants: where this router sits and in which network.
struct RouterEnv {
  const NetworkConfig* net = nullptr;
  Coord coord;
};

/// Link values arriving at the router this cycle.
struct RouterInputs {
  /// Forward group per *input* port (flit coming in from that direction).
  std::array<LinkForward, kPorts> fwd_in{};
  /// Credit group per *output* port (credits returned by the downstream
  /// router reached through that port).
  std::array<CreditWires, kPorts> credit_in{};

  friend bool operator==(const RouterInputs&, const RouterInputs&) = default;
};

/// Link values the router drives this cycle (all combinational).
struct RouterOutputs {
  /// Forward group per *output* port.
  std::array<LinkForward, kPorts> fwd_out{};
  /// Credit group per *input* port (returned to the upstream router).
  std::array<CreditWires, kPorts> credit_out{};

  friend bool operator==(const RouterOutputs&, const RouterOutputs&) = default;
};

/// Crossbar grant per output port: granted queue index, or -1.
struct Grants {
  std::array<int, kPorts> granted;

  Grants() { granted.fill(-1); }
  friend bool operator==(const Grants&, const Grants&) = default;
};

/// One input queue's line into the crossbar: the output port its head flit
/// requests and whether the request may be granted this cycle.
struct QueueRequest {
  Port port = Port::kLocal;
  bool eligible = false;
};

/// The request of the non-empty queue on (input port `p`, VC `v`): the
/// locked route while a packet is in flight, otherwise the XY route of the
/// HEAD flit. It is eligible when the requested output VC has a credit and
/// the wormhole lock allows it (a free VC for a HEAD, the VC this queue
/// owns for BODY/TAIL). This is the only per-queue arbitration logic:
/// compute_grants evaluates it once per queue, and queue_request /
/// queue_eligible wrap it. Throws when the head flit contradicts the lock
/// or a locked route names a port that does not exist (a decoded word can
/// hold out_port 5..7 in its 3-bit field).
QueueRequest request_of(const RouterState& s, std::size_t p, std::size_t v,
                        const RouterEnv& env);

/// Output port requested by queue `q`'s head flit (request_of's port);
/// nullopt when the queue is empty.
std::optional<Port> queue_request(const RouterState& s, std::size_t q,
                                  const RouterEnv& env);

/// True when queue `q` may send this cycle: it has a flit and request_of
/// finds it eligible.
bool queue_eligible(const RouterState& s, std::size_t q, const RouterEnv& env);

/// Round-robin arbitration for output port `o`: compute_grants(s,
/// env).granted[o].
int arbiter_grant(const RouterState& s, Port o, const RouterEnv& env);

/// All five arbiters, evaluated as the FPGA's request vectors and priority
/// encoders: one request_of per non-empty queue sets bit q of its port's
/// request mask, and each port grants the first set bit at or after its
/// round-robin pointer (taken mod the queue count), wrapping around.
Grants compute_grants(const RouterState& s, const RouterEnv& env);

/// G(state): the link values driven by the router, given `grants`
/// (pass the result of compute_grants; split so the structural model can
/// evaluate arbiters and muxes as separate processes).
RouterOutputs compute_outputs(const RouterState& s, const Grants& grants,
                              const RouterEnv& env);

/// Convenience: compute_outputs(compute_grants(s)).
RouterOutputs compute_outputs(const RouterState& s, const RouterEnv& env);

/// F(state, inputs): the registered state after the clock edge.
RouterState compute_next_state(const RouterState& s, const RouterInputs& in,
                               const RouterEnv& env);

/// F with precomputed grants (shared with compute_outputs in engines that
/// evaluate G and F together, as the FPGA does in one delta cycle).
RouterState compute_next_state(const RouterState& s, const Grants& grants,
                               const RouterInputs& in, const RouterEnv& env);

/// Allocation-free F for the simulation hot path: assigns `next = s` and
/// mutates in place (`next` must have the same shape; its buffers are
/// reused across calls).
void compute_next_state_into(const RouterState& s, const Grants& grants,
                             const RouterInputs& in, const RouterEnv& env,
                             RouterState& next);

}  // namespace tmsim::noc

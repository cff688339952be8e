#include "noc/router_logic.h"

#include <gtest/gtest.h>

#include <string>

namespace tmsim::noc {
namespace {

// A 6×6 torus with the router under test at (2,2).
struct Fixture {
  Fixture() {
    net.width = 6;
    net.height = 6;
    net.topology = Topology::kTorus;
    env.net = &net;
    env.coord = Coord{2, 2};
  }

  /// Pushes a fresh packet head for destination (dx,dy) into queue
  /// (port, vc).
  void push_head(RouterState& s, Port port, unsigned vc, unsigned dx,
                 unsigned dy, unsigned seq = 0) {
    s.queues[RouterState::index(net.router, port, vc)].fifo.push(
        Flit{FlitType::kHead, make_head_payload(dx, dy, vc, seq)});
  }

  NetworkConfig net;
  RouterEnv env;
};

TEST(RouterLogic, EmptyRouterIsSilent) {
  Fixture fx;
  RouterState s(fx.net.router);
  const RouterOutputs out = compute_outputs(s, fx.env);
  for (std::size_t o = 0; o < kPorts; ++o) {
    EXPECT_FALSE(out.fwd_out[o].valid);
    EXPECT_EQ(out.credit_out[o].mask, 0u);
  }
  // Next state with idle inputs is bit-identical.
  const RouterStateCodec codec(fx.net.router);
  const RouterState next = compute_next_state(s, RouterInputs{}, fx.env);
  EXPECT_TRUE(states_equal(codec, s, next));
}

TEST(RouterLogic, HeadRoutesByXY) {
  Fixture fx;
  RouterState s(fx.net.router);
  fx.push_head(s, Port::kLocal, 0, /*dx=*/4, /*dy=*/2);  // 2 east
  EXPECT_EQ(queue_request(s, RouterState::index(fx.net.router, Port::kLocal, 0),
                          fx.env),
            Port::kEast);
  const RouterOutputs out = compute_outputs(s, fx.env);
  EXPECT_TRUE(out.fwd_out[static_cast<std::size_t>(Port::kEast)].valid);
  EXPECT_EQ(out.fwd_out[static_cast<std::size_t>(Port::kEast)].vc, 0u);
  // The pop returns a credit on the local input port, VC 0.
  EXPECT_TRUE(out.credit_out[static_cast<std::size_t>(Port::kLocal)].get(0));
}

TEST(RouterLogic, DestinationHereRoutesLocal) {
  Fixture fx;
  RouterState s(fx.net.router);
  fx.push_head(s, Port::kWest, 1, 2, 2);  // dest == here
  const RouterOutputs out = compute_outputs(s, fx.env);
  EXPECT_TRUE(out.fwd_out[static_cast<std::size_t>(Port::kLocal)].valid);
  EXPECT_EQ(out.fwd_out[static_cast<std::size_t>(Port::kLocal)].vc, 1u);
}

TEST(RouterLogic, HeadGrantLocksRouteAndOutputVc) {
  Fixture fx;
  RouterState s(fx.net.router);
  fx.push_head(s, Port::kLocal, 2, 4, 2);
  s.queues[RouterState::index(fx.net.router, Port::kLocal, 2)].fifo.push(
      Flit{FlitType::kTail, 0xbeef});

  const RouterState s1 = compute_next_state(s, RouterInputs{}, fx.env);
  const std::size_t q = RouterState::index(fx.net.router, Port::kLocal, 2);
  const std::size_t ovc = RouterState::index(fx.net.router, Port::kEast, 2);
  EXPECT_TRUE(s1.queues[q].locked);
  EXPECT_EQ(s1.queues[q].out_port, Port::kEast);
  EXPECT_TRUE(s1.out_vcs[ovc].busy);
  EXPECT_EQ(s1.out_vcs[ovc].owner_port,
            static_cast<std::uint8_t>(Port::kLocal));
  EXPECT_EQ(s1.out_vcs[ovc].credits, fx.net.router.queue_depth - 1);

  // Tail pass releases both locks.
  const RouterState s2 = compute_next_state(s1, RouterInputs{}, fx.env);
  EXPECT_FALSE(s2.queues[q].locked);
  EXPECT_FALSE(s2.out_vcs[ovc].busy);
  EXPECT_EQ(s2.out_vcs[ovc].credits, fx.net.router.queue_depth - 2);
}

TEST(RouterLogic, NoCreditsBlocksQueue) {
  Fixture fx;
  RouterState s(fx.net.router);
  fx.push_head(s, Port::kLocal, 0, 4, 2);
  s.out_vcs[RouterState::index(fx.net.router, Port::kEast, 0)].credits = 0;
  EXPECT_FALSE(queue_eligible(
      s, RouterState::index(fx.net.router, Port::kLocal, 0), fx.env));
  const RouterOutputs out = compute_outputs(s, fx.env);
  EXPECT_FALSE(out.fwd_out[static_cast<std::size_t>(Port::kEast)].valid);
}

TEST(RouterLogic, BusyOutputVcBlocksNewHead) {
  Fixture fx;
  RouterState s(fx.net.router);
  fx.push_head(s, Port::kLocal, 0, 4, 2);
  auto& ovc = s.out_vcs[RouterState::index(fx.net.router, Port::kEast, 0)];
  ovc.busy = true;
  ovc.owner_port = static_cast<std::uint8_t>(Port::kNorth);
  EXPECT_FALSE(queue_eligible(
      s, RouterState::index(fx.net.router, Port::kLocal, 0), fx.env));
}

TEST(RouterLogic, MidPacketRequiresOwnership) {
  Fixture fx;
  RouterState s(fx.net.router);
  const std::size_t q = RouterState::index(fx.net.router, Port::kNorth, 1);
  s.queues[q].fifo.push(Flit{FlitType::kBody, 0x1111});
  s.queues[q].locked = true;
  s.queues[q].out_port = Port::kSouth;
  auto& ovc = s.out_vcs[RouterState::index(fx.net.router, Port::kSouth, 1)];
  // VC owned by someone else: blocked.
  ovc.busy = true;
  ovc.owner_port = static_cast<std::uint8_t>(Port::kEast);
  EXPECT_FALSE(queue_eligible(s, q, fx.env));
  // Owned by us: flows.
  ovc.owner_port = static_cast<std::uint8_t>(Port::kNorth);
  EXPECT_TRUE(queue_eligible(s, q, fx.env));
}

TEST(RouterLogic, RoundRobinRotatesAmongCompetitors) {
  Fixture fx;
  RouterState s(fx.net.router);
  // Two single-flit... two competing heads for the east port on different
  // VCs from different input ports.
  fx.push_head(s, Port::kLocal, 0, 4, 2, 1);
  fx.push_head(s, Port::kNorth, 1, 4, 2, 2);
  const std::size_t q_local = RouterState::index(fx.net.router, Port::kLocal, 0);
  const std::size_t q_north = RouterState::index(fx.net.router, Port::kNorth, 1);

  // rr pointer at 0: lowest eligible from 0 is q_local (index 0).
  EXPECT_EQ(arbiter_grant(s, Port::kEast, fx.env),
            static_cast<int>(q_local));
  // After the grant the pointer moves past q_local; next cycle the north
  // queue wins even though the local queue still has flits.
  RouterState s1 = compute_next_state(s, RouterInputs{}, fx.env);
  // Refill local queue head (it popped its only flit: push body for lock).
  EXPECT_EQ(arbiter_grant(s1, Port::kEast, fx.env),
            static_cast<int>(q_north));
}

TEST(RouterLogic, OneGrantPerOutputPerCycle) {
  Fixture fx;
  RouterState s(fx.net.router);
  for (unsigned vc = 0; vc < 4; ++vc) {
    fx.push_head(s, Port::kLocal, vc, 4, 2, vc);
  }
  const Grants g = compute_grants(s, fx.env);
  int grants = 0;
  for (std::size_t o = 0; o < kPorts; ++o) {
    if (g.granted[o] >= 0) ++grants;
  }
  EXPECT_EQ(grants, 1);  // all four compete for the east port
}

TEST(RouterLogic, DistinctOutputsGrantInParallel) {
  Fixture fx;
  RouterState s(fx.net.router);
  fx.push_head(s, Port::kLocal, 0, 4, 2, 0);   // east
  fx.push_head(s, Port::kNorth, 1, 0, 2, 1);   // west (2 hops)
  fx.push_head(s, Port::kEast, 2, 2, 4, 2);    // south
  const Grants g = compute_grants(s, fx.env);
  EXPECT_GE(g.granted[static_cast<std::size_t>(Port::kEast)], 0);
  EXPECT_GE(g.granted[static_cast<std::size_t>(Port::kWest)], 0);
  EXPECT_GE(g.granted[static_cast<std::size_t>(Port::kSouth)], 0);
}

TEST(RouterLogic, DecodedLockedRouteBeyondPortsThrows) {
  // out_port is a 3-bit field, so a decoded word can lock a queue to port
  // 5, 6 or 7. The arbiter must reject it rather than index the output-VC
  // registers past their end.
  Fixture fx;
  const RouterStateCodec codec(fx.net.router);
  for (unsigned bad = kPorts; bad < 8; ++bad) {
    SCOPED_TRACE("out_port=" + std::to_string(bad));
    RouterState s(fx.net.router);
    const std::size_t q = RouterState::index(fx.net.router, Port::kNorth, 1);
    s.queues[q].fifo.push(Flit{FlitType::kBody, 0x1234});
    s.queues[q].locked = true;
    s.queues[q].out_port = static_cast<Port>(bad);
    const RouterState decoded = codec.deserialize(codec.serialize(s));
    ASSERT_EQ(static_cast<unsigned>(decoded.queues[q].out_port), bad);
    EXPECT_THROW(compute_grants(decoded, fx.env), tmsim::Error);
    EXPECT_THROW(compute_outputs(decoded, fx.env), tmsim::Error);
    EXPECT_THROW(queue_eligible(decoded, q, fx.env), tmsim::Error);
  }
}

TEST(RouterLogic, IncomingFlitIsQueued) {
  Fixture fx;
  RouterState s(fx.net.router);
  RouterInputs in;
  in.fwd_in[static_cast<std::size_t>(Port::kWest)] =
      LinkForward{true, 3, Flit{FlitType::kHead, make_head_payload(2, 2, 3, 9)}};
  const RouterState s1 = compute_next_state(s, in, fx.env);
  const auto& q = s1.queues[RouterState::index(fx.net.router, Port::kWest, 3)];
  EXPECT_EQ(q.fifo.size(), 1u);
  EXPECT_EQ(q.fifo.front().type, FlitType::kHead);
}

TEST(RouterLogic, CreditReturnIncrementsCounter) {
  Fixture fx;
  RouterState s(fx.net.router);
  auto& ovc = s.out_vcs[RouterState::index(fx.net.router, Port::kSouth, 2)];
  ovc.credits = 1;
  RouterInputs in;
  in.credit_in[static_cast<std::size_t>(Port::kSouth)].set(2);
  const RouterState s1 = compute_next_state(s, in, fx.env);
  EXPECT_EQ(s1.out_vcs[RouterState::index(fx.net.router, Port::kSouth, 2)]
                .credits,
            2u);
}

TEST(RouterLogic, TransientCreditOverflowWrapsLikeHardware) {
  // Under the dynamic schedule a stale credit wire can arrive while the
  // counter is already full; the counter must wrap at its register width
  // (the resulting state is discarded on re-evaluation, §4.2) rather than
  // abort the simulation.
  Fixture fx;
  RouterState s(fx.net.router);  // credits already at queue_depth (4)
  RouterInputs in;
  in.credit_in[static_cast<std::size_t>(Port::kSouth)].set(0);
  const RouterState s1 = compute_next_state(s, in, fx.env);
  EXPECT_EQ(s1.out_vcs[RouterState::index(fx.net.router, Port::kSouth, 0)]
                .credits,
            5u);  // 3-bit counter: 4+1 = 5, no trap
}

TEST(RouterLogic, TransientQueueOverflowOverwritesLikeHardware) {
  // Same reasoning for a stale forward link replaying a flit into a full
  // queue: the FIFO pointers advance as synthesized hardware would.
  Fixture fx;
  RouterState s(fx.net.router);
  auto& q = s.queues[RouterState::index(fx.net.router, Port::kWest, 0)];
  for (std::size_t i = 0; i < fx.net.router.queue_depth; ++i) {
    q.fifo.push(Flit{FlitType::kBody, static_cast<std::uint16_t>(i)});
  }
  q.locked = true;
  q.out_port = Port::kEast;
  s.out_vcs[RouterState::index(fx.net.router, Port::kEast, 0)].credits = 0;
  RouterInputs in;
  in.fwd_in[static_cast<std::size_t>(Port::kWest)] =
      LinkForward{true, 0, Flit{FlitType::kBody, 99}};
  const RouterState s1 = compute_next_state(s, in, fx.env);
  const auto& q1 = s1.queues[RouterState::index(fx.net.router, Port::kWest, 0)];
  EXPECT_TRUE(q1.fifo.full());
  EXPECT_EQ(q1.fifo.front(), (Flit{FlitType::kBody, 1}));  // oldest dropped
  EXPECT_EQ(q1.fifo.at(fx.net.router.queue_depth - 1),
            (Flit{FlitType::kBody, 99}));
}

TEST(RouterLogic, OutputsDependOnlyOnRegisteredState) {
  // The §4.2 convergence argument rests on G being a function of state
  // alone: inputs must not alter the same cycle's outputs.
  Fixture fx;
  RouterState s(fx.net.router);
  fx.push_head(s, Port::kLocal, 0, 4, 2);
  s.out_vcs[RouterState::index(fx.net.router, Port::kEast, 3)].credits = 1;
  RouterInputs busy_in;
  busy_in.fwd_in[static_cast<std::size_t>(Port::kNorth)] =
      LinkForward{true, 1, Flit{FlitType::kHead, make_head_payload(0, 0, 1, 5)}};
  busy_in.credit_in[static_cast<std::size_t>(Port::kEast)].set(3);
  const RouterOutputs a = compute_outputs(s, fx.env);
  // compute_outputs has no input parameter at all — this asserts the
  // next-state function with different inputs leaves outputs (recomputed
  // from the same old state) unchanged.
  const RouterOutputs b = compute_outputs(s, fx.env);
  EXPECT_EQ(a, b);
  (void)compute_next_state(s, busy_in, fx.env);
  EXPECT_EQ(compute_outputs(s, fx.env), a);
}

}  // namespace
}  // namespace tmsim::noc

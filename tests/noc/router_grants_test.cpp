// compute_grants (request masks + priority encoder) against the scalar
// arbiter it replaced (reference_arbiter.h), over reachable states of every
// router shape, every value the codec can decode into an arbiter pointer,
// and fully contended arbiters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "noc/router_logic.h"
#include "reference_arbiter.h"
#include "router_shapes.h"

namespace tmsim::noc {
namespace {

using test::kShapeDepths;
using test::kShapeVcs;
using test::shape;

/// Every arbiter-pointer value the codec can decode for `cfg`.
std::size_t rr_values(const RouterConfig& cfg) {
  return std::size_t{1} << cfg.rr_bits();
}

/// Asserts that G (grants, outputs and the per-queue probes) agrees with
/// the reference on `s`; returns the grants.
Grants expect_matches_reference(const RouterState& s, const RouterEnv& env) {
  const Grants g = compute_grants(s, env);
  const Grants ref = reference::compute_grants(s, env);
  EXPECT_EQ(g, ref);
  for (std::size_t o = 0; o < kPorts; ++o) {
    EXPECT_EQ(arbiter_grant(s, static_cast<Port>(o), env), ref.granted[o]);
  }
  EXPECT_EQ(compute_outputs(s, env), reference::compute_outputs(s, ref, env));
  for (std::size_t q = 0; q < s.queues.size(); ++q) {
    EXPECT_EQ(queue_request(s, q, env), reference::queue_request(s, q, env));
    EXPECT_EQ(queue_eligible(s, q, env), reference::queue_eligible(s, q, env));
  }
  return g;
}

TEST(ReferenceArbiter, TrafficStatesEveryShapeEveryPointer) {
  std::size_t grants = 0;
  std::size_t contended = 0;  // arbitrations with two or more requesters
  for (const std::size_t vcs : kShapeVcs) {
    for (const std::size_t depth : kShapeDepths) {
      SCOPED_TRACE("vcs=" + std::to_string(vcs) +
                   " depth=" + std::to_string(depth));
      const RouterConfig cfg = shape(vcs, depth);
      const NetworkConfig net = test::mesh3x3(cfg);
      const std::vector<RouterState> states =
          test::traffic_states(cfg, vcs * 17 + depth);
      const std::size_t values = rr_values(cfg);
      for (std::size_t i = 0; i < states.size(); ++i) {
        const RouterEnv env{&net, router_coord(net, i % net.num_routers())};
        RouterState s = states[i];
        for (std::size_t r = 0; r < values; ++r) {
          // Each port sees every value; the ports differ from each other.
          for (std::size_t o = 0; o < kPorts; ++o) {
            s.rr_ptr[o] = static_cast<std::uint8_t>((r + 7 * o) % values);
          }
          const Grants g = expect_matches_reference(s, env);
          if (::testing::Test::HasFailure()) {
            FAIL() << "state " << i << ", pointer value " << r;
          }
          for (std::size_t o = 0; o < kPorts; ++o) {
            grants += g.granted[o] >= 0 ? 1 : 0;
          }
        }
        for (std::size_t o = 0; o < kPorts; ++o) {
          std::size_t requesters = 0;
          for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
            requesters += queue_eligible(s, q, env) &&
                          *queue_request(s, q, env) == static_cast<Port>(o);
          }
          contended += requesters >= 2 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(grants, 10000u);
  EXPECT_GT(contended, 100u);
}

/// The destination one hop from `here` through `o` (here itself for kLocal).
Coord one_hop(Coord here, Port o) {
  switch (o) {
    case Port::kNorth: return Coord{here.x, here.y - 1};
    case Port::kEast: return Coord{here.x + 1, here.y};
    case Port::kSouth: return Coord{here.x, here.y + 1};
    case Port::kWest: return Coord{here.x - 1, here.y};
    case Port::kLocal: break;
  }
  return here;
}

TEST(ReferenceArbiter, EveryQueueRequestingOnePort) {
  // The centre router of the 3x3 mesh with every queue holding a HEAD for
  // the same port: all num_queues requesters are eligible, so the grant is
  // exactly the pointer mod the queue count.
  for (const std::size_t vcs : kShapeVcs) {
    const RouterConfig cfg = shape(vcs, 2);
    const NetworkConfig net = test::mesh3x3(cfg);
    const RouterEnv env{&net, Coord{1, 1}};
    const std::size_t nq = cfg.num_queues();
    for (std::size_t o = 0; o < kPorts; ++o) {
      SCOPED_TRACE("vcs=" + std::to_string(vcs) + " port=" + std::to_string(o));
      const Coord dest = one_hop(env.coord, static_cast<Port>(o));
      RouterState s(cfg);
      for (std::size_t q = 0; q < nq; ++q) {
        const unsigned v = static_cast<unsigned>(q % vcs);
        s.queues[q].fifo.push(Flit{
            FlitType::kHead,
            make_head_payload(static_cast<unsigned>(dest.x),
                              static_cast<unsigned>(dest.y), v, 0)});
      }
      for (std::size_t r = 0; r < rr_values(cfg); ++r) {
        s.rr_ptr.assign(kPorts, static_cast<std::uint8_t>(r));
        const Grants g = expect_matches_reference(s, env);
        for (std::size_t p = 0; p < kPorts; ++p) {
          ASSERT_EQ(g.granted[p], p == o ? static_cast<int>(r % nq) : -1)
              << "pointer " << r;
        }
      }
    }
  }
}

TEST(ReferenceArbiter, LockedQueuesOnlyTheOwnerIsEligible) {
  // Every queue mid-packet on the same port; output VC v is owned by one
  // input port, so exactly num_vcs of the requesters are eligible.
  for (const std::size_t vcs : kShapeVcs) {
    const RouterConfig cfg = shape(vcs, 2);
    const NetworkConfig net = test::mesh3x3(cfg);
    const RouterEnv env{&net, Coord{1, 1}};
    for (std::size_t o = 0; o < kPorts; ++o) {
      SCOPED_TRACE("vcs=" + std::to_string(vcs) + " port=" + std::to_string(o));
      RouterState s(cfg);
      for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
        const FlitType type = q % 3 == 0 ? FlitType::kTail : FlitType::kBody;
        s.queues[q].fifo.push(Flit{type, static_cast<std::uint16_t>(q)});
        s.queues[q].locked = true;
        s.queues[q].out_port = static_cast<Port>(o);
      }
      for (std::size_t v = 0; v < vcs; ++v) {
        OutVcState& ovc =
            s.out_vcs[RouterState::index(cfg, static_cast<Port>(o), v)];
        ovc.busy = true;
        ovc.owner_port = static_cast<std::uint8_t>((v + o) % kPorts);
      }
      std::size_t eligible = 0;
      for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
        eligible += queue_eligible(s, q, env) ? 1 : 0;
      }
      EXPECT_EQ(eligible, vcs);
      for (std::size_t r = 0; r < rr_values(cfg); ++r) {
        s.rr_ptr.assign(kPorts, static_cast<std::uint8_t>(r));
        const Grants g = expect_matches_reference(s, env);
        ASSERT_GE(g.granted[o], 0) << "pointer " << r;
      }
    }
  }
}

}  // namespace
}  // namespace tmsim::noc

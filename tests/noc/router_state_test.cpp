#include "noc/router_state.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/noc_block.h"
#include "noc/network.h"
#include "noc/router_logic.h"
#include "router_shapes.h"

namespace tmsim::noc {
namespace {

RouterConfig default_cfg() { return RouterConfig{}; }

TEST(RouterState, ResetShape) {
  const RouterConfig cfg = default_cfg();
  RouterState s(cfg);
  EXPECT_EQ(s.queues.size(), 20u);
  EXPECT_EQ(s.out_vcs.size(), 20u);
  EXPECT_EQ(s.rr_ptr.size(), kPorts);
  for (const auto& ovc : s.out_vcs) {
    EXPECT_EQ(ovc.credits, cfg.queue_depth);
    EXPECT_FALSE(ovc.busy);
  }
}

TEST(RouterStateCodec, PaperTable1QueueBits) {
  // Table 1: "Input queues 1440 bits" for 20 queues × 4 flits × 18 bits.
  const RouterStateCodec codec(default_cfg());
  const auto by_cat = codec.layout().bits_by_category();
  EXPECT_EQ(by_cat.at("input queues"), 1440u);
}

TEST(RouterStateCodec, ResetRoundTrip) {
  const RouterStateCodec codec(default_cfg());
  const BitVector word = codec.reset_word();
  const RouterState s = codec.deserialize(word);
  EXPECT_EQ(codec.serialize(s), word);
}

TEST(RouterStateCodec, NonTrivialStateRoundTrip) {
  const RouterConfig cfg = default_cfg();
  const RouterStateCodec codec(cfg);
  RouterState s(cfg);
  // Exercise queue contents, pointers-after-wrap, locks and counters.
  s.queues[3].fifo.push(Flit{FlitType::kHead, 0x1234});
  s.queues[3].fifo.push(Flit{FlitType::kTail, 0x5678});
  s.queues[7].fifo.push(Flit{FlitType::kBody, 0xffff});
  s.queues[7].fifo.pop();
  s.queues[7].fifo.push(Flit{FlitType::kBody, 0xaaaa});
  s.queues[7].locked = true;
  s.queues[7].out_port = Port::kWest;
  s.out_vcs[5].busy = true;
  s.out_vcs[5].owner_port = 3;
  s.out_vcs[5].credits = 1;
  s.rr_ptr[2] = 13;

  const BitVector word = codec.serialize(s);
  const RouterState t = codec.deserialize(word);
  EXPECT_TRUE(states_equal(codec, s, t));
  EXPECT_EQ(t.queues[3].fifo.size(), 2u);
  EXPECT_EQ(t.queues[3].fifo.front(), (Flit{FlitType::kHead, 0x1234}));
  EXPECT_EQ(t.queues[7].fifo.size(), 1u);
  EXPECT_EQ(t.queues[7].fifo.front(), (Flit{FlitType::kBody, 0xaaaa}));
  EXPECT_TRUE(t.queues[7].locked);
  EXPECT_EQ(t.queues[7].out_port, Port::kWest);
  EXPECT_EQ(t.out_vcs[5].credits, 1u);
  EXPECT_EQ(t.rr_ptr[2], 13u);
}

TEST(RouterStateCodec, FullQueueRoundTrip) {
  const RouterConfig cfg = default_cfg();
  const RouterStateCodec codec(cfg);
  RouterState s(cfg);
  for (std::size_t i = 0; i < cfg.queue_depth; ++i) {
    s.queues[0].fifo.push(
        Flit{FlitType::kBody, static_cast<std::uint16_t>(i)});
  }
  const RouterState t = codec.deserialize(codec.serialize(s));
  EXPECT_TRUE(t.queues[0].fifo.full());
  EXPECT_TRUE(states_equal(codec, s, t));
}

TEST(RouterStateCodec, DepthAffectsWidths) {
  RouterConfig d2 = default_cfg();
  d2.queue_depth = 2;
  RouterConfig d8 = default_cfg();
  d8.queue_depth = 8;
  const RouterStateCodec c2(d2), c8(d8);
  EXPECT_LT(c2.state_bits(), c8.state_bits());
  EXPECT_EQ(c2.layout().bits_by_category().at("input queues"),
            20u * 2 * kFlitBits);
  EXPECT_EQ(c8.layout().bits_by_category().at("input queues"),
            20u * 8 * kFlitBits);
}

TEST(RouterStateCodec, RandomizedRoundTrip) {
  // Property: serialize∘deserialize is the identity on the serialized
  // form, for random reachable-ish states.
  const RouterConfig cfg = default_cfg();
  const RouterStateCodec codec(cfg);
  tmsim::SplitMix64 rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    RouterState s(cfg);
    for (auto& q : s.queues) {
      const std::size_t n = rng.next_below(cfg.queue_depth + 1);
      for (std::size_t i = 0; i < n; ++i) {
        q.fifo.push(Flit{static_cast<FlitType>(1 + rng.next_below(3)),
                         static_cast<std::uint16_t>(rng.next())});
      }
      q.locked = rng.next_below(2) == 1;
      q.out_port = static_cast<Port>(rng.next_below(kPorts));
    }
    for (auto& ovc : s.out_vcs) {
      ovc.busy = rng.next_below(2) == 1;
      ovc.owner_port = static_cast<std::uint8_t>(rng.next_below(kPorts));
      ovc.credits = static_cast<std::uint8_t>(
          rng.next_below(cfg.queue_depth + 1));
    }
    for (auto& rr : s.rr_ptr) {
      rr = static_cast<std::uint8_t>(rng.next_below(cfg.num_queues()));
    }
    const BitVector w1 = codec.serialize(s);
    const BitVector w2 = codec.serialize(codec.deserialize(w1));
    ASSERT_EQ(w1, w2);
  }
}

TEST(RouterStateCodec, RejectsWrongWidthWord) {
  const RouterStateCodec codec(default_cfg());
  EXPECT_THROW(codec.deserialize(BitVector(codec.state_bits() + 1)),
               tmsim::Error);
}

// --- The codec against StateLayout, over every router shape ------------

using test::kShapeDepths;
using test::kShapeVcs;
using test::shape;
using test::traffic_states;

/// A random reachable state: every queue's pointers are rotated by a
/// random number of push/pop pairs first, so they wrap and the dead slots
/// hold stale flits, as in a running router.
RouterState random_reachable_state(const RouterConfig& cfg,
                                   tmsim::SplitMix64& rng) {
  const auto random_flit = [&rng] {
    return Flit{static_cast<FlitType>(1 + rng.next_below(3)),
                static_cast<std::uint16_t>(rng.next())};
  };
  RouterState s(cfg);
  for (auto& q : s.queues) {
    const std::size_t rotate = rng.next_below(2 * cfg.queue_depth + 1);
    for (std::size_t i = 0; i < rotate; ++i) {
      q.fifo.push(random_flit());
      q.fifo.pop();
    }
    const std::size_t n = rng.next_below(cfg.queue_depth + 1);
    for (std::size_t i = 0; i < n; ++i) {
      q.fifo.push(random_flit());
    }
    q.locked = rng.next_below(2) == 1;
    q.out_port = static_cast<Port>(rng.next_below(kPorts));
  }
  for (auto& ovc : s.out_vcs) {
    ovc.busy = rng.next_below(2) == 1;
    ovc.owner_port = static_cast<std::uint8_t>(rng.next_below(kPorts));
    ovc.credits =
        static_cast<std::uint8_t>(rng.next_below(cfg.queue_depth + 1));
  }
  for (auto& rr : s.rr_ptr) {
    rr = static_cast<std::uint8_t>(rng.next_below(cfg.num_queues()));
  }
  return s;
}

/// Every register of `s` under its StateLayout field name, derived from
/// the struct alone (independent of the codec's field order).
std::map<std::string, std::uint64_t> registers_by_name(const RouterConfig& cfg,
                                                       const RouterState& s) {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
    const QueueState& qs = s.queues[q];
    const std::string p = "q" + std::to_string(q) + ".";
    for (std::size_t slot = 0; slot < cfg.queue_depth; ++slot) {
      out[p + "slot" + std::to_string(slot)] = encode_flit(qs.fifo.slot(slot));
    }
    out[p + "rd"] = qs.fifo.read_pos();
    out[p + "wr"] = qs.fifo.write_pos();
    out[p + "full"] = qs.fifo.full() ? 1 : 0;
    out[p + "locked"] = qs.locked ? 1 : 0;
    out[p + "out_port"] = static_cast<std::uint64_t>(qs.out_port);
  }
  for (std::size_t o = 0; o < cfg.num_queues(); ++o) {
    const std::string p = "ovc" + std::to_string(o) + ".";
    out[p + "busy"] = s.out_vcs[o].busy ? 1 : 0;
    out[p + "owner"] = s.out_vcs[o].owner_port;
    out[p + "credits"] = s.out_vcs[o].credits;
  }
  for (std::size_t p = 0; p < kPorts; ++p) {
    out["arb" + std::to_string(p) + ".rr"] = s.rr_ptr[p];
  }
  return out;
}

void expect_fields_match(const RouterStateCodec& codec, const RouterState& s,
                         const BitVector& word) {
  const auto regs = registers_by_name(codec.config(), s);
  const StateLayout& layout = codec.layout();
  ASSERT_EQ(regs.size(), layout.fields().size());
  for (std::size_t i = 0; i < layout.fields().size(); ++i) {
    const std::string& name = layout.field(i).name;
    ASSERT_EQ(regs.count(name), 1u) << name;
    ASSERT_EQ(regs.at(name), layout.read(word, i)) << name;
  }
}

std::size_t field_index(const StateLayout& layout, const std::string& name) {
  for (std::size_t i = 0; i < layout.fields().size(); ++i) {
    if (layout.field(i).name == name) {
      return i;
    }
  }
  ADD_FAILURE() << "no field " << name;
  return 0;
}

TEST(RouterStateCodecShapes, SerializeAgreesWithLayoutOnEveryShape) {
  tmsim::SplitMix64 rng(0x5eed);
  for (const std::size_t vcs : kShapeVcs) {
    for (const std::size_t depth : kShapeDepths) {
      SCOPED_TRACE("vcs=" + std::to_string(vcs) +
                   " depth=" + std::to_string(depth));
      const RouterConfig cfg = shape(vcs, depth);
      const RouterStateCodec codec(cfg);
      const std::size_t tail = codec.state_bits() % 64;
      for (int iter = 0; iter < 40; ++iter) {
        const RouterState s = random_reachable_state(cfg, rng);
        const BitVector w = codec.serialize(s);
        expect_fields_match(codec, s, w);
        if (tail != 0) {
          ASSERT_EQ(w.words().back() >> tail, 0u) << "padding bits set";
        }
        ASSERT_EQ(codec.serialize(codec.deserialize(w)), w);
      }
    }
  }
}

TEST(RouterStateCodecShapes, DeserializeAgreesWithLayoutOnArbitraryWords) {
  // Random words: decode must reject exactly the words in which some
  // queue's rd/wr/full registers are inconsistent, and otherwise yield the
  // layout's value for every register.
  tmsim::SplitMix64 rng(0xdec0de);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (const std::size_t vcs : kShapeVcs) {
    for (const std::size_t depth : kShapeDepths) {
      SCOPED_TRACE("vcs=" + std::to_string(vcs) +
                   " depth=" + std::to_string(depth));
      const RouterConfig cfg = shape(vcs, depth);
      const RouterStateCodec codec(cfg);
      const StateLayout& layout = codec.layout();
      for (int iter = 0; iter < 40; ++iter) {
        BitVector w(codec.state_bits());
        for (std::size_t i = 0; i < layout.fields().size(); ++i) {
          const std::size_t width = layout.field(i).width;
          layout.write(w, i, rng.next() >> (64 - width));
        }
        // Most random words have an inconsistent queue; repair every
        // queue in half of them so both outcomes are well covered.
        const bool repair = iter % 2 == 0;
        bool inconsistent = false;
        for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
          const std::string p = "q" + std::to_string(q) + ".";
          const std::size_t f_rd = field_index(layout, p + "rd");
          const std::size_t f_wr = field_index(layout, p + "wr");
          const std::size_t f_full = field_index(layout, p + "full");
          if (repair) {
            layout.write(w, f_rd, layout.read(w, f_rd) % depth);
            layout.write(w, f_wr, layout.read(w, f_wr) % depth);
            if (layout.read(w, f_rd) != layout.read(w, f_wr)) {
              layout.write(w, f_full, 0);
            }
          }
          const std::uint64_t rd = layout.read(w, f_rd);
          const std::uint64_t wr = layout.read(w, f_wr);
          const bool full = layout.read(w, f_full) != 0;
          inconsistent |= rd >= depth || wr >= depth || (full && rd != wr);
        }
        if (inconsistent) {
          ++rejected;
          ASSERT_THROW(codec.deserialize(w), tmsim::Error);
          continue;
        }
        ++accepted;
        const RouterState s = codec.deserialize(w);
        expect_fields_match(codec, s, w);
      }
    }
  }
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(accepted, 100u);
}

// ---------------------------------------------------------------------------
// Typed state vs state word (DESIGN.md §7). The engine keeps router
// registers resident as RouterState and never encodes them per delta
// cycle, so three facts must hold on every shape for that to lose
// nothing: the word round-trips through the resident state, the typed
// fixed-point compare the worklist uses is exactly word equality, and no
// transient evaluation produces a state the codec would refuse.
// ---------------------------------------------------------------------------

/// A flit the links can carry: any non-idle type, any payload.
LinkForward random_forward(const RouterConfig& cfg, tmsim::SplitMix64& rng) {
  if (rng.next_below(3) == 0) {
    return idle_forward();
  }
  return LinkForward{true, static_cast<std::uint8_t>(rng.next_below(cfg.num_vcs)),
                     Flit{static_cast<FlitType>(1 + rng.next_below(3)),
                          static_cast<std::uint16_t>(rng.next())}};
}

TEST(RouterStateCodecShapes, TypedWordAgreement) {
  tmsim::SplitMix64 rng(0x7e9ed);
  std::size_t stale_pairs = 0;
  std::size_t transients = 0;
  for (const std::size_t vcs : kShapeVcs) {
    for (const std::size_t depth : kShapeDepths) {
      SCOPED_TRACE("vcs=" + std::to_string(vcs) +
                   " depth=" + std::to_string(depth));
      const RouterConfig cfg = shape(vcs, depth);
      const auto codec = std::make_shared<const RouterStateCodec>(cfg);
      const NetworkConfig net = test::mesh3x3(cfg);
      const tmsim::core::RouterBlock block(codec,
                                           RouterEnv{&net, Coord{1, 1}});
      const std::unique_ptr<tmsim::core::BlockState> a = block.make_state();
      const std::unique_ptr<tmsim::core::BlockState> b = block.make_state();
      const std::vector<RouterState> states = traffic_states(cfg, vcs * 31 + depth);
      for (std::size_t i = 0; i < states.size(); ++i) {
        const RouterState& s = states[i];
        const BitVector w = codec->serialize(s);

        // 1. The word survives the resident state: to_word(from_word(w)).
        a->load_word(w);
        ASSERT_EQ(a->to_word(), w);

        // 2. Typed equality is word equality, against an unrelated state
        //    and against a copy differing only in one stale queue slot.
        const RouterState& other = states[(i * 7 + 3) % states.size()];
        b->load_word(codec->serialize(other));
        ASSERT_EQ(s == other, w == codec->serialize(other));
        ASSERT_EQ(a->equals(*b), w == codec->serialize(other));
        ASSERT_TRUE(s == codec->deserialize(w));
        for (std::size_t q = 0; q < s.queues.size(); ++q) {
          const QueueState& qs = s.queues[q];
          if (qs.fifo.full()) {
            continue;
          }
          RouterState stale = s;  // rewrite the first dead slot
          Flit& dead = stale.queues[q].fifo.slot(qs.fifo.write_pos());
          dead.payload = static_cast<std::uint16_t>(dead.payload ^ 0x2a5);
          const BitVector sw = codec->serialize(stale);
          b->load_word(sw);
          ASSERT_NE(sw, w);
          ASSERT_FALSE(stale == s);
          ASSERT_FALSE(a->equals(*b));
          ++stale_pairs;
          break;
        }

        // 3. Transient evaluations against stale forward and credit
        //    inputs — what the dynamic schedule does before a block's
        //    inputs settle — leave states the codec encodes.
        for (int t = 0; t < 4; ++t) {
          std::array<std::uint64_t, 9> in{};
          for (std::size_t p = 0; p < kPorts; ++p) {
            in[p] = encode_forward(random_forward(cfg, rng));
          }
          for (std::size_t p = kPorts; p < in.size(); ++p) {
            in[p] = rng.next_below(std::uint64_t{1} << vcs);
          }
          std::array<std::uint64_t, 10> out{};
          RouterState next(cfg);
          block.step_state(s, in, next, out);
          ASSERT_NO_THROW(codec->serialize(next));
          ++transients;
        }
      }
    }
  }
  EXPECT_GT(stale_pairs, 1000u);
  EXPECT_GT(transients, 10000u);
}

/// Encodes `s` and returns the ContextualError it raises.
tmsim::ContextualError overflow_error(const RouterStateCodec& codec,
                                      const RouterState& s) {
  BitVector w(codec.state_bits());
  try {
    codec.serialize_into(s, w);
  } catch (const tmsim::ContextualError& e) {
    return e;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a ContextualError, got: " << e.what();
    return tmsim::ContextualError("", {});
  }
  ADD_FAILURE() << "out-of-range register was encoded without an error";
  return tmsim::ContextualError("", {});
}

TEST(RouterStateCodec, OutOfRangeCreditsNamesItsField) {
  const RouterConfig cfg = default_cfg();  // depth 4: 3-bit credit counter
  const RouterStateCodec codec(cfg);
  RouterState s(cfg);
  s.out_vcs[7].credits = 9;
  const tmsim::ContextualError e = overflow_error(codec, s);
  EXPECT_EQ(e.context_value("field"), "ovc7.credits");
  EXPECT_EQ(e.context_value("value"), "9");
}

TEST(RouterStateCodec, OutOfRangeOwnerPortNamesItsField) {
  const RouterConfig cfg = default_cfg();  // 3-bit owner port
  const RouterStateCodec codec(cfg);
  RouterState s(cfg);
  s.out_vcs[3].owner_port = 8;
  const tmsim::ContextualError e = overflow_error(codec, s);
  EXPECT_EQ(e.context_value("field"), "ovc3.owner");
  EXPECT_EQ(e.context_value("value"), "8");
}

TEST(RouterStateCodec, OutOfRangeRrPointerNamesItsField) {
  const RouterConfig cfg = default_cfg();  // 20 queues: 5-bit rr pointer
  const RouterStateCodec codec(cfg);
  RouterState s(cfg);
  s.rr_ptr[2] = 40;
  const tmsim::ContextualError e = overflow_error(codec, s);
  EXPECT_EQ(e.context_value("field"), "arb2.rr");
  EXPECT_EQ(e.context_value("value"), "40");
}

TEST(StateLayout, CategoriesAndOffsets) {
  StateLayout layout;
  const auto a = layout.add_field("cat1", "a", 5);
  const auto b = layout.add_field("cat2", "b", 7);
  const auto c = layout.add_field("cat1", "c", 64);
  EXPECT_EQ(layout.total_bits(), 76u);
  EXPECT_EQ(layout.field(b).offset, 5u);
  EXPECT_EQ(layout.field(c).offset, 12u);
  const auto by_cat = layout.bits_by_category();
  EXPECT_EQ(by_cat.at("cat1"), 69u);
  EXPECT_EQ(by_cat.at("cat2"), 7u);

  BitVector w(layout.total_bits());
  layout.write(w, a, 0x1f);
  layout.write(w, c, 0xffffffffffffffffull);
  EXPECT_EQ(layout.read(w, a), 0x1fu);
  EXPECT_EQ(layout.read(w, b), 0u);
  EXPECT_EQ(layout.read(w, c), 0xffffffffffffffffull);
}

}  // namespace
}  // namespace tmsim::noc

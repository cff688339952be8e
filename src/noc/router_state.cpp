#include "noc/router_state.h"

#include <array>
#include <string>

namespace tmsim::noc {

namespace {
constexpr const char* kCatQueues = "input queues";
constexpr const char* kCatControl = "control and arbitration";

constexpr std::uint64_t kFlitMask = (std::uint64_t{1} << kFlitBits) - 1;

// Encode scratch, on the stack (the codec is shared across threads).
// RouterConfig::validate() bounds the word at 5845 bits (4 VCs, depth 15),
// i.e. 92 words; the constructor checks every layout against this.
constexpr std::size_t kMaxStateWords = 96;

std::string qname(std::size_t q, const char* what) {
  return "q" + std::to_string(q) + "." + what;
}

/// Visits every register of `s` as its field value, in layout order: the
/// order in which the codec constructor adds the fields.
template <typename Visit>
void for_each_register(const RouterConfig& cfg, const RouterState& s,
                       Visit&& visit) {
  for (const QueueState& qs : s.queues) {
    for (std::size_t slot = 0; slot < cfg.queue_depth; ++slot) {
      visit(encode_flit(qs.fifo.slot(slot)));
    }
  }
  for (const QueueState& qs : s.queues) {
    visit(qs.fifo.read_pos());
    visit(qs.fifo.write_pos());
    visit(qs.fifo.full() ? 1 : 0);
    visit(qs.locked ? 1 : 0);
    visit(static_cast<std::uint64_t>(qs.out_port));
  }
  for (const OutVcState& ovc : s.out_vcs) {
    visit(ovc.busy ? 1 : 0);
    visit(ovc.owner_port);
    visit(ovc.credits);
  }
  for (const std::uint8_t rr : s.rr_ptr) {
    visit(rr);
  }
}

/// Per-call shape checks shared by encode and decode.
void check_shape(const RouterConfig& cfg, const RouterState& s) {
  const std::size_t nq = cfg.num_queues();
  TMSIM_CHECK_MSG(s.queues.size() == nq && s.out_vcs.size() == nq &&
                      s.rr_ptr.size() == kPorts,
                  "router state shape mismatch");
  for (const QueueState& qs : s.queues) {
    TMSIM_CHECK_MSG(qs.fifo.capacity() == cfg.queue_depth,
                    "queue depth mismatch");
  }
}
}  // namespace

RouterState::RouterState(const RouterConfig& cfg) {
  cfg.validate();
  queues.reserve(cfg.num_queues());
  for (std::size_t q = 0; q < cfg.num_queues(); ++q) {
    queues.emplace_back(cfg.queue_depth);
  }
  out_vcs.resize(cfg.num_queues());
  for (auto& ovc : out_vcs) {
    // All downstream queues start empty: full credit.
    ovc.credits = static_cast<std::uint8_t>(cfg.queue_depth);
  }
  rr_ptr.assign(kPorts, 0);
}

RouterStateCodec::RouterStateCodec(const RouterConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  const std::size_t nq = cfg_.num_queues();

  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t s = 0; s < cfg_.queue_depth; ++s) {
      layout_.add_field(kCatQueues,
                        qname(q, ("slot" + std::to_string(s)).c_str()),
                        kFlitBits);
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    layout_.add_field(kCatControl, qname(q, "rd"), cfg_.ptr_bits());
    layout_.add_field(kCatControl, qname(q, "wr"), cfg_.ptr_bits());
    layout_.add_field(kCatControl, qname(q, "full"), 1);
    layout_.add_field(kCatControl, qname(q, "locked"), 1);
    layout_.add_field(kCatControl, qname(q, "out_port"), 3);
  }
  for (std::size_t o = 0; o < nq; ++o) {
    const std::string p = "ovc" + std::to_string(o);
    layout_.add_field(kCatControl, p + ".busy", 1);
    layout_.add_field(kCatControl, p + ".owner", 3);
    layout_.add_field(kCatControl, p + ".credits", cfg_.credit_bits());
  }
  for (std::size_t p = 0; p < kPorts; ++p) {
    layout_.add_field(kCatControl, "arb" + std::to_string(p) + ".rr",
                      cfg_.rr_bits());
  }

  // Compile the plan. Everything checked here holds for every later
  // encode/decode, so the hot path does not check it again.
  const std::size_t words = (layout_.total_bits() + 63) / 64;
  TMSIM_CHECK_MSG(words <= kMaxStateWords, "state word exceeds encode scratch");
  plan_.reserve(layout_.fields().size());
  std::size_t end = 0;
  for (const FieldSlot& f : layout_.fields()) {
    TMSIM_CHECK_MSG(f.width >= 1 && f.width <= 64 &&
                        f.offset + f.width <= layout_.total_bits(),
                    "field outside the state word");
    TMSIM_CHECK_MSG(f.offset == end, "fields not contiguous in offset order");
    end = f.offset + f.width;
    const std::size_t shift = f.offset % 64;
    plan_.push_back(FieldOp{
        f.width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << f.width) - 1,
        static_cast<std::uint16_t>(f.offset / 64),
        static_cast<std::uint8_t>(shift), shift + f.width > 64,
        shift + f.width >= 64});
  }
  std::size_t visited = 0;
  for_each_register(cfg_, RouterState(cfg_), [&](std::uint64_t) { ++visited; });
  TMSIM_CHECK_MSG(visited == plan_.size(), "field plan out of step");
  // Slot fields are exactly one flit wide, so decode masks them with the
  // constant kFlitMask and decode_flit's width check cannot fire.
  for (std::size_t i = 0; i < nq * cfg_.queue_depth; ++i) {
    TMSIM_CHECK_MSG(layout_.field(i).width == kFlitBits,
                    "slot field is not one flit wide");
  }
}

BitVector RouterStateCodec::serialize(const RouterState& s) const {
  BitVector word(layout_.total_bits());
  serialize_into(s, word);
  return word;
}

void RouterStateCodec::serialize_into(const RouterState& s,
                                      BitVector& word) const {
  check_shape(cfg_, s);
  TMSIM_CHECK_MSG(word.width() == layout_.total_bits(),
                  "state word width mismatch");
  // Fields are contiguous and in offset order, so the word under assembly
  // stays in a register and each buffer word is stored exactly once.
  std::array<std::uint64_t, kMaxStateWords> buf{};
  std::size_t k = 0;       // index of the word under assembly
  std::uint64_t acc = 0;   // its bits so far
  std::uint64_t overflow = 0;  // bits of any value above its field width
  const FieldOp* op = plan_.data();
  for_each_register(cfg_, s, [&](std::uint64_t v) {
    overflow |= v & ~op->mask;
    acc |= v << op->shift;
    if (op->ends_word) {
      buf[k++] = acc;
      acc = op->straddles ? v >> (64 - op->shift) : 0;
    }
    ++op;
  });
  const std::size_t words = word.words().size();
  if (k < words) {
    buf[k] = acc;
  }
  if (overflow != 0) {
    throw_field_overflow(s);
  }
  word.store_words({buf.data(), words});
}

void RouterStateCodec::throw_field_overflow(const RouterState& s) const {
  std::size_t i = 0;
  std::size_t bad = plan_.size();
  std::uint64_t value = 0;
  for_each_register(cfg_, s, [&](std::uint64_t v) {
    if (bad == plan_.size() && (v & ~plan_[i].mask) != 0) {
      bad = i;
      value = v;
    }
    ++i;
  });
  const FieldSlot& f = layout_.field(bad);
  throw ContextualError("register value wider than its field",
                        {{"field", f.name},
                         {"value", std::to_string(value)},
                         {"width", std::to_string(f.width)}});
}

RouterState RouterStateCodec::deserialize(const BitVector& word) const {
  RouterState s(cfg_);
  deserialize_into(word, s);
  return s;
}

void RouterStateCodec::deserialize_into(const BitVector& word,
                                        RouterState& s) const {
  TMSIM_CHECK_MSG(word.width() == layout_.total_bits(),
                  "state word width mismatch");
  check_shape(cfg_, s);
  const std::uint64_t* w = word.words().data();
  const FieldOp* op = plan_.data();
  // The next field's bits at the bottom; bits above its width are garbage.
  const auto gather = [&] {
    const FieldOp& f = *op++;
    std::uint64_t v = w[f.word] >> f.shift;
    if (f.straddles) {
      v |= w[f.word + 1] << (64 - f.shift);
    }
    return v;
  };
  const auto next = [&] {
    const std::uint64_t mask = op->mask;
    return gather() & mask;
  };
  const std::size_t depth = cfg_.queue_depth;
  for (QueueState& qs : s.queues) {
    for (std::size_t slot = 0; slot < depth; ++slot) {
      qs.fifo.slot(slot) =
          decode_flit(static_cast<std::uint32_t>(gather() & kFlitMask));
    }
  }
  for (QueueState& qs : s.queues) {
    const auto rd = static_cast<std::size_t>(next());
    const auto wr = static_cast<std::size_t>(next());
    const bool full = next() != 0;
    const std::size_t size = full       ? depth
                             : wr >= rd ? wr - rd
                                        : wr + depth - rd;
    qs.fifo.restore(rd, wr, size);
    qs.locked = next() != 0;
    qs.out_port = static_cast<Port>(next());
  }
  for (OutVcState& ovc : s.out_vcs) {
    ovc.busy = next() != 0;
    ovc.owner_port = static_cast<std::uint8_t>(next());
    ovc.credits = static_cast<std::uint8_t>(next());
  }
  for (std::uint8_t& rr : s.rr_ptr) {
    rr = static_cast<std::uint8_t>(next());
  }
}

BitVector RouterStateCodec::reset_word() const {
  return serialize(RouterState(cfg_));
}

bool states_equal(const RouterStateCodec& codec, const RouterState& a,
                  const RouterState& b) {
  return codec.serialize(a) == codec.serialize(b);
}

}  // namespace tmsim::noc

// RouterState: every register of the Kavaldjiev virtual-channel router,
// plus its bit-accurate serialization (the "memory word" of §5.2).
//
// The register inventory (defaults: 4 VCs, 4-flit queues):
//   - 20 input queues (5 ports × 4 VCs), each: 4 flit slots of 18 bits,
//     read/write pointers, full flag           → the Table 1 "Input queues"
//   - per queue: wormhole route lock (locked bit + output port)
//   - per output VC: busy bit, owner input port, downstream credit counter
//   - per output port: round-robin arbiter pointer
//                                              → Table 1 "control/arbitration"
//
// RouterStateCodec turns the whole struct into one BitVector and back,
// with an explicit StateLayout so the bit cost of every design parameter
// is inspectable (bench/table1_registers prints it). The layout is
// compiled once into a field plan of shifts and masks, which every
// encode/decode walks (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bit_vector.h"
#include "common/ring_buffer.h"
#include "noc/config.h"
#include "noc/flit.h"
#include "noc/state_layout.h"

namespace tmsim::noc {

/// One VC input queue with its wormhole route state.
struct QueueState {
  explicit QueueState(std::size_t depth) : fifo(depth) {}

  RingBuffer<Flit> fifo;
  /// True while a packet (HEAD seen, TAIL not yet forwarded) holds a route.
  bool locked = false;
  /// Output port of the locked route; meaningless when !locked.
  Port out_port = Port::kLocal;
};

/// Per output-port, per-VC state.
struct OutVcState {
  /// True while a packet owns this output VC (wormhole lock).
  bool busy = false;
  /// Input port of the owning queue (the VC index is implied: a packet on
  /// input VC v always requests output VC v).
  std::uint8_t owner_port = 0;
  /// Credits: free flit slots in the downstream router's input queue.
  std::uint8_t credits = 0;

  friend bool operator==(const OutVcState&, const OutVcState&) = default;
};

/// All registers of one router.
struct RouterState {
  explicit RouterState(const RouterConfig& cfg);

  std::vector<QueueState> queues;    ///< kPorts × num_vcs
  std::vector<OutVcState> out_vcs;   ///< kPorts × num_vcs
  std::vector<std::uint8_t> rr_ptr;  ///< per output port, indexes queues

  /// Queue / output-VC index for (port, vc).
  static std::size_t index(const RouterConfig& cfg, Port port,
                           std::size_t vc) {
    return static_cast<std::size_t>(port) * cfg.num_vcs + vc;
  }
};

/// Bit-accurate (de)serializer between RouterState and a state-memory word.
class RouterStateCodec {
 public:
  explicit RouterStateCodec(const RouterConfig& cfg);

  const RouterConfig& config() const { return cfg_; }
  const StateLayout& layout() const { return layout_; }
  std::size_t state_bits() const { return layout_.total_bits(); }

  BitVector serialize(const RouterState& s) const;
  RouterState deserialize(const BitVector& word) const;

  /// Allocation-free variants for the simulation hot path: `out` must
  /// have been constructed for the same RouterConfig (its buffers are
  /// reused). The FPGA reads/writes the state word in place; so do we.
  void serialize_into(const RouterState& s, BitVector& word) const;
  void deserialize_into(const BitVector& word, RouterState& out) const;

  /// Serialized default-constructed (reset) state.
  BitVector reset_word() const;

 private:
  /// One StateLayout field compiled to word-aligned operations: the field
  /// occupies bits [shift, shift + width) of word `word`, spilling into
  /// word + 1 when it straddles a 64-bit boundary.
  struct FieldOp {
    std::uint64_t mask;  ///< low `width` bits set
    std::uint16_t word;
    std::uint8_t shift;
    bool straddles;
    bool ends_word;  ///< the field reaches bit 63 of `word`
  };

  [[noreturn]] void throw_field_overflow(const RouterState& s) const;

  RouterConfig cfg_;
  StateLayout layout_;
  std::vector<FieldOp> plan_;  // one op per layout field, in layout order
};

/// Two router states are equal iff their serializations are bit-identical.
bool states_equal(const RouterStateCodec& codec, const RouterState& a,
                  const RouterState& b);

}  // namespace tmsim::noc

// Packet construction and lifetime records.
//
// Packet sizes follow §2.1's case study: GT packets carry 256 bytes of
// payload, BE packets 10 bytes. With a 16-bit flit payload that is 128
// resp. 5 payload flits, plus the HEAD flit that carries only routing
// information — so a GT packet is 129 flits ending in a TAIL, a BE packet
// 6 flits. (A packet is at least HEAD+TAIL; the last payload flit is the
// TAIL.)
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/flit.h"

namespace tmsim::traffic {

enum class PacketClass : std::uint8_t {
  kGuaranteedThroughput = 0,
  kBestEffort = 1,
};

inline const char* class_name(PacketClass c) {
  return c == PacketClass::kGuaranteedThroughput ? "GT" : "BE";
}

/// Payload flits for a payload of `bytes` bytes (16-bit flits).
inline std::size_t payload_flits_for_bytes(std::size_t bytes) {
  return (bytes * 8 + noc::kPayloadBits - 1) / noc::kPayloadBits;
}

/// Paper defaults.
inline constexpr std::size_t kGtPacketBytes = 256;  // → 129 flits
inline constexpr std::size_t kBePacketBytes = 10;   // → 6 flits

/// Largest payload a packet may carry: 256× the GT packet. The hosted
/// ArmHost builds every flit of a packet when it generates it, so an
/// unbounded size would be an unbounded allocation.
inline constexpr std::size_t kMaxPacketBytes = 64 * 1024;

/// The `index`-th flit (0 == HEAD) of a packet: HEAD(dest, vc, seq)
/// followed by `payload_flits` payload flits, the last of which is the
/// TAIL. Payload words derive deterministically from `fill` (a pattern
/// seed) and the position, so bit-accuracy checks cover payload bits and
/// flits can be materialized lazily at injection time.
noc::Flit packet_flit(unsigned dest_x, unsigned dest_y, unsigned vc,
                      unsigned seq, std::size_t payload_flits,
                      std::uint16_t fill, std::size_t index);

/// All flits of one packet (convenience over packet_flit).
std::vector<noc::Flit> build_packet(unsigned dest_x, unsigned dest_y,
                                    unsigned vc, unsigned seq,
                                    std::size_t payload_flits,
                                    std::uint16_t fill);

/// One packet's life-cycle timestamps, filled in by the harness.
struct PacketRecord {
  PacketClass cls = PacketClass::kBestEffort;
  std::size_t src = 0;
  std::size_t dst = 0;
  unsigned vc = 0;
  /// Sequence tag — allocated when the HEAD enters the network.
  unsigned seq = 0;
  /// Payload pattern seed (drawn at creation; flits derive from it).
  std::uint16_t fill = 0;
  std::size_t flits = 0;
  SystemCycle created = 0;         ///< generated into the source queue
  SystemCycle injected_head = 0;   ///< HEAD driven onto the local link
  SystemCycle delivered_tail = 0;  ///< TAIL observed at the destination
  bool injected = false;
  bool delivered = false;

  /// Head-injection → tail-delivery (the Fig. 1 metric).
  SystemCycle network_latency() const { return delivered_tail - injected_head; }
  /// Source queueing before the HEAD enters the network — the paper's
  /// dedicated "access delay" monitor buffer (§5.2).
  SystemCycle access_delay() const { return injected_head - created; }
  SystemCycle total_latency() const { return delivered_tail - created; }
};

}  // namespace tmsim::traffic

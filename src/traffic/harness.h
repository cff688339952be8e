// TrafficHarness: software side of the simulation — the role the ARM9
// plays in the paper (§5.3): generate stimuli, feed them into the
// simulated network through the local ports, retrieve delivered flits, and
// analyze latency/throughput. It drives any NocSimulation, so the same
// workload runs bit-identically on every engine.
//
// Per-node NodeInterface behaviour (the "stimuli interface" + NI):
//  - packets are flit-ized into per-VC source queues (creation timestamped);
//  - one flit per cycle may enter the network: a round-robin pick over the
//    VCs that have data and an injection credit (credits mirror the free
//    slots of the router's local input queues, replenished by the credit
//    wires the router returns);
//  - delivered flits are reassembled per VC; HEAD flits carry (dst, vc,
//    seq) which the tracker resolves back to the packet record.
//
// Overload: the paper aborts when the network refuses traffic for too long
// (§5.3). The harness records an `overloaded()` flag once any source queue
// exceeds a threshold and can optionally stop.
//
// Idle jump (DESIGN.md §17): with no BE load, no generators and an empty
// backlog, a cycle whose retrieve saw no flit and no credit does nothing
// on the harness side until the next GT submission. run() then asks the
// simulation to skip that stretch (NocSimulation::advance_idle), clamped
// to the cycles left in the call, so a slice boundary falls exactly where
// it would when stepping. A simulation that cannot prove the stretch idle
// skips nothing and the harness steps as before; either way every record,
// counter and committed state is bit-identical.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/stats.h"
#include "common/rng.h"
#include "noc/network.h"
#include "traffic/packet.h"

namespace tmsim::traffic {

/// Aggregated latency results for one packet class.
struct LatencySummary {
  analysis::StatAccumulator network;  ///< head-injection → tail-delivery
  analysis::StatAccumulator access;   ///< creation → head-injection
  analysis::StatAccumulator total;
  std::size_t delivered = 0;
};

/// One guaranteed-throughput stream: a periodic point-to-point connection
/// with a dedicated VC (§2.1: "one single data stream assigned per VC").
struct GtStream {
  std::size_t src = 0;
  std::size_t dst = 0;
  unsigned vc = 0;
  SystemCycle period = 0;   ///< cycles between packet submissions
  SystemCycle phase = 0;    ///< first submission cycle
  std::size_t bytes = kGtPacketBytes;

  friend bool operator==(const GtStream&, const GtStream&) = default;
};

class TrafficHarness {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Re-check every delivered payload flit against what was sent.
    bool verify_payload = false;
    /// Source-queue flit count that flags overload.
    std::size_t overload_threshold = 1u << 16;
    bool stop_on_overload = false;
    /// Packets injected before this cycle are excluded from summaries.
    SystemCycle warmup_cycles = 0;
  };

  TrafficHarness(noc::NocSimulation& sim, Options opt);
  explicit TrafficHarness(noc::NocSimulation& sim)
      : TrafficHarness(sim, Options()) {}

  /// Re-points the harness at a different NocSimulation over an *equal*
  /// NetworkConfig (throws otherwise). All harness-side state — source
  /// queues, credits, packet records, RNG position — carries over
  /// untouched; the new simulation must hold the same committed router
  /// state (restored from a checkpoint) for the handoff to be
  /// bit-identical. This is how a preempted farm session resumes on a
  /// different worker's cached engine.
  void rebind(noc::NocSimulation& sim);

  /// Adds a periodic GT stream.
  void add_gt_stream(const GtStream& stream);

  /// Stops all GT streams (already-submitted packets still drain).
  void clear_gt_streams();

  /// Uniform-random best-effort traffic: every node independently submits
  /// `load` flits per cycle on average (fraction of channel capacity,
  /// Fig. 1's x-axis), as packets of `bytes` payload, on a VC drawn from
  /// `vcs`, to a uniform destination != src.
  void set_be_load(double load, std::vector<unsigned> vcs = {2, 3},
                   std::size_t bytes = kBePacketBytes);

  /// Arbitrary extra generator, called once per cycle before injection.
  using Generator = std::function<void(SystemCycle, TrafficHarness&)>;
  void add_generator(Generator g) { generators_.push_back(std::move(g)); }
  void clear_generators() { generators_.clear(); }

  /// Queues one packet at node `src` for delivery to `dst` on `vc`.
  /// Returns the packet record index.
  std::size_t submit_packet(PacketClass cls, std::size_t src, std::size_t dst,
                            unsigned vc, std::size_t payload_flits);

  /// Runs `cycles` system cycles (generate → inject → step → retrieve).
  void run(std::size_t cycles);

  const std::vector<PacketRecord>& records() const { return records_; }
  LatencySummary summarize(PacketClass cls) const;

  bool overloaded() const { return overloaded_; }
  std::size_t flits_injected() const { return flits_injected_; }
  std::size_t flits_delivered() const { return flits_delivered_; }
  /// Flits currently waiting in source queues (backlog).
  std::size_t source_backlog() const { return backlog_; }
  SystemCycle current_cycle() const { return cycle_; }

  /// Checks each stream's endpoints, VC, period and payload, and that no
  /// two GT streams share a (link, VC) pair along their XY paths — the
  /// condition under which the round-robin arbitration gives a hard
  /// latency bound (§2.1). Throws on violation.
  static void validate_gt_streams(const noc::NetworkConfig& net,
                                  const std::vector<GtStream>& streams);

 private:
  /// A packet waiting in a source queue. Flits are materialized lazily at
  /// injection time — in particular the HEAD's sequence tag is allocated
  /// only when the packet actually enters the network, so a deep source
  /// backlog (saturation) exerts backpressure instead of exhausting the
  /// 6-bit tag space.
  struct PendingPacket {
    std::size_t record = 0;
    std::size_t dst = 0;
    unsigned vc = 0;
    std::size_t payload_flits = 0;
    std::uint16_t fill = 0;
  };
  struct Node {
    std::vector<std::deque<PendingPacket>> src_q;  // per vc
    std::vector<std::size_t> credits;              // per vc
    std::size_t rr_vc = 0;
    // Sending side: flit cursor of the packet in flight per VC (the HEAD
    // has been injected; 0 = next is payload flit 0).
    std::vector<bool> sending;             // per vc
    std::vector<std::size_t> send_pos;     // per vc: next payload index
    std::vector<std::size_t> send_record;  // per vc: record in flight
    std::vector<std::size_t> receiving;  // per vc: packet being reassembled
    std::vector<bool> receiving_active;  // per vc
    std::vector<std::size_t> recv_pos;   // per vc: payload index
  };

  /// The i-th flit (0 == HEAD) of a pending packet — the same formula
  /// build_packet() uses, computed on demand.
  noc::Flit flit_of(const PendingPacket& p, unsigned seq,
                    std::size_t i) const;

  /// First GT submission cycle at or after `now` (kNever without
  /// streams). Kept per stream and recomputed only when `now` leaves the
  /// range the kept values were computed for.
  SystemCycle next_gt_submission(SystemCycle now);
  void generate(SystemCycle cycle);
  void inject();
  void retrieve();
  std::uint32_t flight_key(std::size_t dst, unsigned vc, unsigned seq) const;

  noc::NocSimulation* sim_;  // never null; rebindable (see rebind())
  // Own copy of the bound network's config: rebind() must validate the
  // new engine without dereferencing sim_ — after a detach the old
  // engine may live in another worker's cache (concurrently reused or
  // already evicted and freed).
  noc::NetworkConfig net_;
  Options opt_;
  SplitMix64 rng_;
  std::vector<Node> nodes_;
  std::vector<PacketRecord> records_;
  std::vector<GtStream> gt_streams_;
  static constexpr SystemCycle kNever = std::numeric_limits<SystemCycle>::max();
  // gt_due_[i]: stream i's first submission at or after gt_due_from_;
  // valid for every cycle in [gt_due_from_, next_gt_due_ == min(gt_due_)].
  std::vector<SystemCycle> gt_due_;
  SystemCycle gt_due_from_ = kNever;
  SystemCycle next_gt_due_ = kNever;
  std::vector<Generator> generators_;
  double be_load_ = 0.0;
  std::vector<unsigned> be_vcs_;
  std::size_t be_payload_flits_ = 0;
  std::unordered_map<std::uint32_t, std::size_t> in_flight_;  // key → record
  std::vector<std::uint16_t> next_seq_;  // per (dst * num_vcs + vc)
  // verify_payload: (fill, seq) per record so delivered flits can be
  // recomputed and compared.
  std::unordered_map<std::size_t, std::pair<std::uint16_t, unsigned>>
      expected_;
  bool overloaded_ = false;
  std::size_t backlog_ = 0;  // flits submitted and not yet injected
  // The last retrieve() saw no delivered flit and no returned credit.
  bool retrieve_quiet_ = false;
  std::size_t flits_injected_ = 0;
  std::size_t flits_delivered_ = 0;
  SystemCycle cycle_ = 0;
};

}  // namespace tmsim::traffic

#include "traffic/harness.h"

#include <algorithm>
#include <set>
#include <string>

namespace tmsim::traffic {

using noc::Coord;
using noc::LinkForward;
using noc::Port;

namespace {

/// The per-stream preconditions every GT stream must meet to inject.
void check_gt_stream(const noc::NetworkConfig& net, const GtStream& s) {
  TMSIM_CHECK_MSG(s.src < net.num_routers() && s.dst < net.num_routers(),
                  "GT stream endpoint out of range");
  TMSIM_CHECK_MSG(s.src != s.dst, "GT stream src == dst");
  TMSIM_CHECK_MSG(s.vc < net.router.num_vcs, "GT stream vc out of range");
  TMSIM_CHECK_MSG(s.period >= 1, "GT stream period must be >= 1");
  TMSIM_CHECK_MSG(s.bytes >= 1 && s.bytes <= kMaxPacketBytes,
                  "GT packet payload must be 1..kMaxPacketBytes bytes");
}

}  // namespace

TrafficHarness::TrafficHarness(noc::NocSimulation& sim, Options opt)
    : sim_(&sim), net_(sim.config()), opt_(opt), rng_(opt.seed) {
  const noc::NetworkConfig& net = net_;
  const std::size_t n = net.num_routers();
  const std::size_t vcs = net.router.num_vcs;
  nodes_.resize(n);
  for (Node& node : nodes_) {
    node.src_q.resize(vcs);
    node.credits.assign(vcs, net.router.queue_depth);
    node.sending.assign(vcs, false);
    node.send_pos.assign(vcs, 0);
    node.send_record.assign(vcs, 0);
    node.receiving.assign(vcs, 0);
    node.receiving_active.assign(vcs, false);
    node.recv_pos.assign(vcs, 0);
  }
  next_seq_.assign(n * vcs, 0);
}

void TrafficHarness::rebind(noc::NocSimulation& sim) {
  // Validate against our own config copy — the previously bound engine
  // must not be dereferenced here (another worker may own it by now).
  if (!(sim.config() == net_)) {
    throw ContextualError(
        "rebind target simulates a different network configuration",
        {{"have_routers", std::to_string(net_.num_routers())},
         {"want_routers", std::to_string(sim.config().num_routers())}});
  }
  sim_ = &sim;
}

void TrafficHarness::add_gt_stream(const GtStream& s) {
  check_gt_stream(net_, s);
  gt_streams_.push_back(s);
  gt_due_from_ = kNever;  // recompute at the next cycle
}

void TrafficHarness::clear_gt_streams() {
  gt_streams_.clear();
  gt_due_from_ = kNever;
}

void TrafficHarness::set_be_load(double load, std::vector<unsigned> vcs,
                                 std::size_t bytes) {
  TMSIM_CHECK_MSG(load >= 0.0 && load <= 1.0, "BE load must be in [0,1]");
  TMSIM_CHECK_MSG(!vcs.empty(), "BE traffic needs at least one VC");
  for (unsigned v : vcs) {
    TMSIM_CHECK_MSG(v < net_.router.num_vcs, "BE vc out of range");
  }
  be_load_ = load;
  be_vcs_ = std::move(vcs);
  be_payload_flits_ = payload_flits_for_bytes(bytes);
}

std::uint32_t TrafficHarness::flight_key(std::size_t dst, unsigned vc,
                                         unsigned seq) const {
  return static_cast<std::uint32_t>((dst << 8) | (vc << 6) | seq);
}

std::size_t TrafficHarness::submit_packet(PacketClass cls, std::size_t src,
                                          std::size_t dst, unsigned vc,
                                          std::size_t payload_flits) {
  const noc::NetworkConfig& net = net_;
  TMSIM_CHECK_MSG(src < net.num_routers() && dst < net.num_routers(),
                  "packet endpoint out of range");
  TMSIM_CHECK_MSG(src != dst, "local loopback packets are not modeled");
  TMSIM_CHECK_MSG(vc < net.router.num_vcs, "packet vc out of range");
  TMSIM_CHECK_MSG(payload_flits >= 1, "packet needs a payload flit");

  PacketRecord rec;
  rec.cls = cls;
  rec.src = src;
  rec.dst = dst;
  rec.vc = vc;
  rec.fill = static_cast<std::uint16_t>(rng_.next());
  rec.flits = payload_flits + 1;
  rec.created = cycle_;
  records_.push_back(rec);
  const std::size_t id = records_.size() - 1;
  // The sequence tag is allocated at injection time (see inject()).
  nodes_[src].src_q[vc].push_back(
      PendingPacket{id, dst, vc, payload_flits, rec.fill});
  backlog_ += rec.flits;
  return id;
}

noc::Flit TrafficHarness::flit_of(const PendingPacket& p, unsigned seq,
                                  std::size_t i) const {
  const Coord dc = router_coord(net_, p.dst);
  return packet_flit(static_cast<unsigned>(dc.x), static_cast<unsigned>(dc.y),
                     p.vc, seq, p.payload_flits, p.fill, i);
}

SystemCycle TrafficHarness::next_gt_submission(SystemCycle now) {
  if (now < gt_due_from_ || now > next_gt_due_) {
    // A stream submits at phase + k * period, k >= 0.
    gt_due_.resize(gt_streams_.size());
    next_gt_due_ = kNever;
    for (std::size_t i = 0; i < gt_streams_.size(); ++i) {
      const GtStream& s = gt_streams_[i];
      const SystemCycle periods =
          now <= s.phase ? 0 : (now - s.phase + s.period - 1) / s.period;
      gt_due_[i] = s.phase + periods * s.period;
      next_gt_due_ = std::min(next_gt_due_, gt_due_[i]);
    }
    gt_due_from_ = now;
  }
  return next_gt_due_;
}

void TrafficHarness::generate(SystemCycle cycle) {
  if (next_gt_submission(cycle) == cycle) {
    next_gt_due_ = kNever;
    for (std::size_t i = 0; i < gt_streams_.size(); ++i) {
      const GtStream& s = gt_streams_[i];
      if (gt_due_[i] == cycle) {
        submit_packet(PacketClass::kGuaranteedThroughput, s.src, s.dst, s.vc,
                      payload_flits_for_bytes(s.bytes));
        gt_due_[i] += s.period;
      }
      next_gt_due_ = std::min(next_gt_due_, gt_due_[i]);
    }
  }
  gt_due_from_ = cycle + 1;
  if (be_load_ > 0.0) {
    const noc::NetworkConfig& net = net_;
    const std::size_t n = net.num_routers();
    // `load` is flits/cycle; a packet is HEAD + payload flits, and only
    // payload+head flits consume channel capacity — we count all flits of
    // the packet against the load, matching "fraction of channel capacity".
    const double p_packet = be_load_ / static_cast<double>(be_payload_flits_ + 1);
    for (std::size_t src = 0; src < n; ++src) {
      if (rng_.next_double() < p_packet) {
        std::size_t dst = rng_.next_below(n - 1);
        if (dst >= src) ++dst;  // uniform over nodes != src
        const unsigned vc = be_vcs_[rng_.next_below(be_vcs_.size())];
        submit_packet(PacketClass::kBestEffort, src, dst, vc,
                      be_payload_flits_);
      }
    }
  }
  for (Generator& g : generators_) {
    g(cycle, *this);
  }
}

void TrafficHarness::inject() {
  if (backlog_ == 0) {
    return;
  }
  const std::size_t vcs = net_.router.num_vcs;
  for (std::size_t r = 0; r < nodes_.size(); ++r) {
    Node& node = nodes_[r];
    // Round-robin over VCs with data and a credit; one flit per cycle.
    for (std::size_t i = 0; i < vcs; ++i) {
      const std::size_t vc = (node.rr_vc + i) % vcs;
      if (node.credits[vc] == 0) {
        continue;
      }
      noc::Flit flit;
      if (node.sending[vc]) {
        // Mid-packet: next payload flit of the record in flight.
        PacketRecord& rec = records_[node.send_record[vc]];
        const PendingPacket proxy{node.send_record[vc], rec.dst, rec.vc,
                                  rec.flits - 1, rec.fill};
        flit = flit_of(proxy, rec.seq, node.send_pos[vc] + 1);
        ++node.send_pos[vc];
        if (node.send_pos[vc] == rec.flits - 1) {
          node.sending[vc] = false;
        }
      } else if (!node.src_q[vc].empty()) {
        PendingPacket& p = node.src_q[vc].front();
        // Allocate a sequence tag unique among packets currently in the
        // network towards (dst, vc); if all 64 are taken, the packet
        // waits — backpressure, not an error.
        std::uint16_t& ctr = next_seq_[p.dst * vcs + vc];
        unsigned seq = 0;
        bool found = false;
        for (unsigned attempt = 0; attempt < 64; ++attempt) {
          seq = (ctr + attempt) % 64;
          if (!in_flight_.contains(flight_key(p.dst, vc, seq))) {
            found = true;
            break;
          }
        }
        if (!found) {
          continue;
        }
        ctr = static_cast<std::uint16_t>((seq + 1) % 64);
        PacketRecord& rec = records_[p.record];
        rec.seq = seq;
        rec.injected = true;
        rec.injected_head = cycle_;
        in_flight_.emplace(flight_key(p.dst, vc, seq), p.record);
        flit = flit_of(p, seq, 0);
        node.sending[vc] = true;
        node.send_pos[vc] = 0;
        node.send_record[vc] = p.record;
        node.src_q[vc].pop_front();
      } else {
        continue;
      }
      --node.credits[vc];
      node.rr_vc = (vc + 1) % vcs;
      sim_->set_local_input(
          r, LinkForward{true, static_cast<std::uint8_t>(vc), flit});
      ++flits_injected_;
      --backlog_;
      break;
    }
  }
}

void TrafficHarness::retrieve() {
  const std::size_t vcs = net_.router.num_vcs;
  retrieve_quiet_ = true;
  for (std::size_t r = 0; r < nodes_.size(); ++r) {
    Node& node = nodes_[r];
    // Credits the router returned for its local input queues.
    const noc::CreditWires cr = sim_->local_input_credits(r);
    for (std::size_t vc = 0; vc < vcs; ++vc) {
      if (cr.get(vc)) {
        TMSIM_CHECK_MSG(node.credits[vc] < net_.router.queue_depth,
                        "NI credit counter overflow");
        ++node.credits[vc];
        retrieve_quiet_ = false;
      }
    }
    // Delivered flit, if any.
    const LinkForward f = sim_->local_output(r);
    if (!f.valid) {
      continue;
    }
    retrieve_quiet_ = false;
    ++flits_delivered_;
    const unsigned vc = f.vc;
    if (f.flit.type == noc::FlitType::kHead) {
      const noc::HeadFields h = noc::decode_head(f.flit.payload);
      TMSIM_CHECK_MSG(h.vc == vc, "HEAD delivered on a different VC than "
                                  "its header says");
      const std::size_t dst =
          router_index(net_, Coord{h.dest_x, h.dest_y});
      TMSIM_CHECK_MSG(dst == r, "flit delivered to the wrong node");
      const auto it = in_flight_.find(flight_key(r, vc, h.seq));
      TMSIM_CHECK_MSG(it != in_flight_.end(),
                      "delivered HEAD matches no packet in flight");
      TMSIM_CHECK_MSG(!node.receiving_active[vc],
                      "HEAD arrived while a packet is still being "
                      "reassembled on this VC (wormhole interleaving bug)");
      node.receiving[vc] = it->second;
      node.receiving_active[vc] = true;
      node.recv_pos[vc] = 0;
    } else {
      TMSIM_CHECK_MSG(node.receiving_active[vc],
                      "BODY/TAIL arrived with no packet open on this VC");
    }
    const std::size_t id = node.receiving[vc];
    if (opt_.verify_payload) {
      const PacketRecord& rec = records_[id];
      const std::size_t pos = node.recv_pos[vc];
      TMSIM_CHECK_MSG(pos < rec.flits, "more flits delivered than sent");
      const Coord dc = router_coord(net_, rec.dst);
      const noc::Flit exp = packet_flit(
          static_cast<unsigned>(dc.x), static_cast<unsigned>(dc.y), rec.vc,
          rec.seq, rec.flits - 1, rec.fill, pos);
      TMSIM_CHECK_MSG(exp == f.flit,
                      "delivered flit differs from the one sent "
                      "(bit-accuracy violation)");
    }
    ++node.recv_pos[vc];
    if (f.flit.type == noc::FlitType::kTail) {
      PacketRecord& rec = records_[id];
      TMSIM_CHECK_MSG(node.recv_pos[vc] == rec.flits,
                      "packet delivered with wrong flit count");
      rec.delivered = true;
      rec.delivered_tail = cycle_;
      node.receiving_active[vc] = false;
      in_flight_.erase(flight_key(r, vc, rec.seq));
    }
  }
}

void TrafficHarness::run(std::size_t cycles) {
  for (std::size_t i = 0; i < cycles;) {
    if (overloaded_ && opt_.stop_on_overload) {
      return;
    }
    const SystemCycle now = sim_->cycle();
    if (retrieve_quiet_ && backlog_ == 0 && be_load_ == 0.0 &&
        generators_.empty()) {
      // Until the next GT submission every generate, inject and retrieve
      // would do nothing, so the stretch is idle on this side; the
      // simulation skips it if it can prove the same of its own side.
      const SystemCycle due = next_gt_submission(now);
      if (due > now) {
        const std::uint64_t skipped = sim_->advance_idle(
            std::min<std::uint64_t>(due - now, cycles - i));
        if (skipped > 0) {
          i += skipped;
          cycle_ = sim_->cycle() - 1;  // the last skipped cycle, as stepping
          continue;
        }
      }
    }
    cycle_ = now;
    generate(cycle_);
    inject();
    sim_->step();
    retrieve();
    if (!overloaded_ && backlog_ > opt_.overload_threshold) {
      overloaded_ = true;
    }
    ++i;
  }
}

LatencySummary TrafficHarness::summarize(PacketClass cls) const {
  LatencySummary s;
  for (const PacketRecord& r : records_) {
    if (r.cls != cls || !r.delivered || r.injected_head < opt_.warmup_cycles) {
      continue;
    }
    ++s.delivered;
    s.network.add(static_cast<double>(r.network_latency()));
    s.access.add(static_cast<double>(r.access_delay()));
    s.total.add(static_cast<double>(r.total_latency()));
  }
  return s;
}

void TrafficHarness::validate_gt_streams(const noc::NetworkConfig& net,
                                         const std::vector<GtStream>& streams) {
  // Walk each stream's XY path and record the (directed link, VC) pairs it
  // occupies; any pair claimed twice breaks the one-stream-per-VC rule.
  std::set<std::tuple<std::size_t, int, unsigned>> claimed;  // (router,port,vc)
  for (const GtStream& s : streams) {
    check_gt_stream(net, s);
    Coord here = router_coord(net, s.src);
    const Coord dest = router_coord(net, s.dst);
    std::size_t guard = 0;
    while (!(here == dest)) {
      const Port p = route_xy(net, here, dest);
      TMSIM_CHECK_MSG(p != Port::kLocal, "routing stalled mid-path");
      const std::size_t r = router_index(net, here);
      const auto key = std::make_tuple(r, static_cast<int>(p), s.vc);
      TMSIM_CHECK_MSG(claimed.insert(key).second,
                      "two GT streams share link (router " +
                          std::to_string(r) + ", " + noc::port_name(p) +
                          ") on VC " + std::to_string(s.vc));
      const auto next = neighbour(net, here, p);
      TMSIM_CHECK_MSG(next.has_value(), "route left the grid");
      here = *next;
      TMSIM_CHECK_MSG(++guard <= net.num_routers(), "routing loop");
    }
  }
}

}  // namespace tmsim::traffic

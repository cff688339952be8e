#include "fpga/fpga_design.h"

#include <string>

#include "obs/metrics.h"

namespace tmsim::fpga {

using noc::LinkForward;
using noc::Port;

static_assert(kStimuliPayloadBits == noc::kForwardBits,
              "guarded-push tag bits must sit above the flit encoding");

FpgaDesign::FpgaDesign(const FpgaBuildConfig& build) : build_(build) {
  build_.router.validate();
  TMSIM_CHECK_MSG(build_.max_routers >= 2 && build_.max_routers <= 256,
                  "max_routers must be 2..256");
  TMSIM_CHECK_MSG(build_.stimuli_buffer_depth >= 2, "stimuli buffer too small");
  TMSIM_CHECK_MSG(build_.output_buffer_depth >= build_.stimuli_buffer_depth,
                  "output buffers must cover a full simulation period");
  if (build_.engine.policy != core::SchedulePolicy::kDynamic) {
    // Every router link is combinational (§4.2), so the static schedule
    // cannot run and the two-phase ablation has no place in the design.
    throw ContextualError(
        "the FPGA design runs the dynamic schedule only",
        {{"policy",
          std::to_string(static_cast<int>(build_.engine.policy))}});
  }
}

FpgaDesign::~FpgaDesign() = default;

void FpgaDesign::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (!registry) {
    m_link_samples_ = m_link_drops_ = m_access_samples_ = m_access_drops_ =
        m_rejects_ = m_cycles_ = m_deltas_ = m_clk_ = nullptr;
    return;
  }
  m_link_samples_ = &registry->counter("fpga.monitor.link_probe.samples");
  m_link_drops_ = &registry->counter("fpga.monitor.link_probe.drops");
  m_access_samples_ = &registry->counter("fpga.monitor.access_delay.samples");
  m_access_drops_ = &registry->counter("fpga.monitor.access_delay.drops");
  m_rejects_ = &registry->counter("fpga.stimuli.rejects");
  m_cycles_ = &registry->counter("fpga.system_cycles");
  m_deltas_ = &registry->counter("fpga.delta_cycles");
  m_clk_ = &registry->counter("fpga.clock_cycles");
}

void FpgaDesign::set_engine_observer(core::SimObserver* observer) {
  engine_observer_ = observer;
  if (sim_) {
    sim_->set_observer(observer);
  }
}

const noc::NetworkConfig& FpgaDesign::network() const {
  TMSIM_CHECK_MSG(sim_ != nullptr, "design not configured");
  return net_;
}

void FpgaDesign::configure() {
  net_ = noc::NetworkConfig{};
  net_.width = reg_width_;
  net_.height = reg_height_;
  net_.topology = reg_topology_ == 0 ? noc::Topology::kTorus
                                     : noc::Topology::kMesh;
  net_.router = build_.router;
  net_.validate();
  TMSIM_CHECK_MSG(net_.num_routers() <= build_.max_routers,
                  "network larger than the BRAM provisioning");

  sim_ = std::make_unique<core::SeqNocSimulation>(net_, build_.engine);
  if (engine_observer_) {
    sim_->set_observer(engine_observer_);
  }

  const std::size_t n = net_.num_routers();
  const std::size_t vcs = net_.router.num_vcs;
  stimuli_.clear();
  output_.clear();
  for (std::size_t i = 0; i < n * vcs; ++i) {
    stimuli_.emplace_back(build_.stimuli_buffer_depth);
  }
  for (std::size_t i = 0; i < n; ++i) {
    output_.emplace_back(build_.output_buffer_depth);
  }
  link_monitor_ = std::make_unique<CyclicBuffer>(build_.monitor_buffer_depth);
  access_monitor_ =
      std::make_unique<CyclicBuffer>(build_.monitor_buffer_depth);
  inject_credits_.assign(n * vcs,
                         static_cast<std::uint8_t>(net_.router.queue_depth));
  inject_rr_.assign(n, 0);
  staged_ts_.assign(n * vcs, 0);
  staged_valid_.assign(n * vcs, 0);
  stimuli_commits_.assign(n * vcs, 0);
  output_pops_.assign(n, 0);
  link_monitor_pops_ = 0;
  access_monitor_pops_ = 0;
  cycles_simulated_ = 0;
  delta_cycles_ = 0;
  fpga_clock_cycles_ = 0;
  monitor_drops_ = 0;
  output_overrun_ = false;
  load_fault_ = false;
  stimuli_rejects_ = 0;
  ++config_generation_;
}

void FpgaDesign::step_one_cycle() {
  const std::size_t n = net_.num_routers();
  const std::size_t vcs = net_.router.num_vcs;

  // Stimuli interfaces: per router, inject at most one due flit whose VC
  // has an injection credit, round-robin over the VCs (§5.2).
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < vcs; ++i) {
      const std::size_t vc = (inject_rr_[r] + i) % vcs;
      CyclicBuffer& buf = stimuli_[r * vcs + vc];
      if (inject_credits_[r * vcs + vc] == 0 || buf.empty() ||
          buf.front().timestamp > cycles_simulated_) {
        continue;
      }
      const TimedWord w = buf.pop();
      const LinkForward f = noc::decode_forward(w.data);
      TMSIM_CHECK_MSG(f.valid && f.vc == vc,
                      "stimuli entry does not match its VC buffer");
      sim_->set_local_input(r, f);
      --inject_credits_[r * vcs + vc];
      inject_rr_[r] = static_cast<std::uint8_t>((vc + 1) % vcs);
      // Access-delay monitor: how long the flit waited past its intended
      // injection time. Dropped when full — monitors may not stall.
      if (f.flit.type == noc::FlitType::kHead) {
        if (access_monitor_->full()) {
          ++monitor_drops_;
          if (metrics_) {
            m_access_drops_->add(1);
          }
        } else {
          access_monitor_->push(TimedWord{
              cycles_simulated_,
              static_cast<std::uint32_t>(cycles_simulated_ - w.timestamp)});
          if (metrics_) {
            m_access_samples_->add(1);
          }
        }
      }
      break;
    }
  }

  sim_->step();
  delta_cycles_ += sim_->last_step_stats().delta_cycles;
  // 2 FPGA clock cycles per delta cycle (memory read; evaluate + write),
  // plus one turnaround cycle per system cycle (HBR reset, bank swap).
  fpga_clock_cycles_ += 2 * sim_->last_step_stats().delta_cycles + 1;

  // Retrieve local outputs and returned credits.
  const std::size_t probe_router = reg_link_probe_ >> 8;
  for (std::size_t r = 0; r < n; ++r) {
    const noc::CreditWires cr = sim_->local_input_credits(r);
    for (std::size_t vc = 0; vc < vcs; ++vc) {
      if (cr.get(vc)) {
        TMSIM_CHECK_MSG(inject_credits_[r * vcs + vc] < net_.router.queue_depth,
                        "stimuli interface credit overflow");
        ++inject_credits_[r * vcs + vc];
      }
    }
    const LinkForward out = sim_->local_output(r);
    if (out.valid) {
      // Output buffers are per router, not per VC (§5.2). Overrun means
      // the ARM did not drain in time; the design flags it — the NI
      // cannot back-pressure the network.
      if (output_[r].full()) {
        output_overrun_ = true;
      } else {
        output_[r].push(TimedWord{cycles_simulated_, encode_forward(out)});
      }
      // Link probe monitor on the local output of the probed router.
      if (r == probe_router && (reg_link_probe_ & 0xff) ==
                                   static_cast<std::uint32_t>(Port::kLocal)) {
        if (link_monitor_->full()) {
          ++monitor_drops_;
          if (metrics_) {
            m_link_drops_->add(1);
          }
        } else {
          link_monitor_->push(TimedWord{cycles_simulated_,
                                        encode_forward(out)});
          if (metrics_) {
            m_link_samples_->add(1);
          }
        }
      }
    }
  }
  ++cycles_simulated_;
  if (metrics_) {
    m_cycles_->add(1);
    m_deltas_->add(sim_->last_step_stats().delta_cycles);
    m_clk_->add(2 * sim_->last_step_stats().delta_cycles + 1);
  }
}

void FpgaDesign::run_period(std::size_t cycles) {
  TMSIM_CHECK_MSG(sim_ != nullptr, "design not configured");
  // "To prevent buffer underrun, the simulation period is fixed to the
  //  size of the VC stimuli buffers in the FPGA." (§5.3)
  TMSIM_CHECK_MSG(cycles >= 1 && cycles <= build_.stimuli_buffer_depth,
                  "period must be 1..stimuli_buffer_depth");
  for (std::size_t i = 0; i < cycles; ++i) {
    step_one_cycle();
  }
}

std::uint32_t FpgaDesign::consumer_read(CyclicBuffer& buf,
                                        std::uint32_t& pops, Addr sub) {
  switch (sub) {
    case kPortFill:
      return static_cast<std::uint32_t>(buf.fill());
    case kPortPopTs:
      return static_cast<std::uint32_t>(buf.front().timestamp);
    case kPortPopData: {
      const std::uint32_t data = buf.pop().data;
      ++pops;  // legacy destructive pop advances the sequence too
      return data;
    }
    case kPortPeekData:
      return buf.empty() ? 0u : buf.front().data;
    case kPortTag:
      // Never throws: an empty buffer reads as the (invalid) zero tag, so
      // the host can probe without risking a bus exception mid-recovery.
      if (buf.empty()) {
        return 0;
      }
      return entry_tag(buf.front().data,
                       static_cast<std::uint32_t>(buf.front().timestamp),
                       pops);
    default:
      throw Error("bad consumer port sub-register");
  }
}

void FpgaDesign::consumer_ack(CyclicBuffer& buf, std::uint32_t& pops,
                              std::uint32_t value) {
  // Pop only when the ack names the current front entry; a stale or
  // corrupted ack is ignored, which makes re-acking idempotent.
  if (!buf.empty() && (value & 63u) == (pops & 63u)) {
    buf.pop();
    ++pops;
  }
}

std::uint32_t FpgaDesign::read32(Addr addr) {
  ++bus_.reads;
  TMSIM_CHECK_MSG(addr < kAddrSpaceWords, "address beyond the 17-bit bus");
  switch (addr) {
    case kRegStatus:
      // Never busy: run is synchronous in this functional model. The
      // sticky fault bits persist until a W1C status write.
      return (output_overrun_ ? kStatusOverrun : 0u) |
             (load_fault_ ? kStatusLoadFault : 0u);
    case kRegRandom:
      return rng_.next();
    case kRegSimCycles:
      return reg_sim_cycles_;
    case kRegNetWidth:
      return reg_width_;
    case kRegNetHeight:
      return reg_height_;
    case kRegTopology:
      return reg_topology_;
    case kRegLinkProbe:
      return reg_link_probe_;
    case kRegRngSeed:
      return rng_.state();
    case kRegConfigGen:
      return config_generation_;
    case kRegGuard:
      return reg_guard_;
    case kRegFaults:
      return static_cast<std::uint32_t>(stimuli_rejects_);
    case kRegCycleLo:
      return static_cast<std::uint32_t>(cycles_simulated_);
    case kRegCycleHi:
      return static_cast<std::uint32_t>(cycles_simulated_ >> 32);
    case kRegDeltaLo:
      return static_cast<std::uint32_t>(delta_cycles_);
    case kRegDeltaHi:
      return static_cast<std::uint32_t>(delta_cycles_ >> 32);
    case kRegFpgaClkLo:
      return static_cast<std::uint32_t>(fpga_clock_cycles_);
    case kRegFpgaClkHi:
      return static_cast<std::uint32_t>(fpga_clock_cycles_ >> 32);
    default:
      break;
  }
  TMSIM_CHECK_MSG(sim_ != nullptr, "design not configured");
  const std::size_t vcs = net_.router.num_vcs;
  if (addr >= kStimuliBase && addr < kOutputBase) {
    const Addr off = addr - kStimuliBase;
    const std::size_t r = off / 16;
    const std::size_t vc = (off % 16) / 4;
    const Addr sub = off % 4;
    TMSIM_CHECK_MSG(r < net_.num_routers() && vc < vcs &&
                        (sub == kPortFree || sub == kPortCommits),
                    "bad stimuli port read");
    const std::size_t port = r * vcs + vc;
    if (sub == kPortCommits) {
      return stimuli_commits_[port];
    }
    return static_cast<std::uint32_t>(stimuli_[port].free_space());
  }
  if (addr >= kOutputBase && addr < kLinkMonitorBase) {
    const Addr off = addr - kOutputBase;
    const std::size_t r = off / 8;
    const Addr sub = off % 8;
    TMSIM_CHECK_MSG(r < net_.num_routers(), "bad output port read");
    return consumer_read(output_[r], output_pops_[r], sub);
  }
  if (addr >= kLinkMonitorBase && addr < kAccessMonitorBase) {
    return consumer_read(*link_monitor_, link_monitor_pops_,
                         addr - kLinkMonitorBase);
  }
  if (addr >= kAccessMonitorBase && addr < kAccessMonitorBase + kPortAck) {
    return consumer_read(*access_monitor_, access_monitor_pops_,
                         addr - kAccessMonitorBase);
  }
  throw Error("unmapped read at address " + std::to_string(addr));
}

void FpgaDesign::write32(Addr addr, std::uint32_t value) {
  ++bus_.writes;
  TMSIM_CHECK_MSG(addr < kAddrSpaceWords, "address beyond the 17-bit bus");
  switch (addr) {
    case kRegCtrl:
      if (value & 1u) {
        run_period(reg_sim_cycles_);
      }
      return;
    case kRegStatus:
      // Write-one-to-clear for the sticky fault bits, so a recovered
      // fault cannot poison later periods' status polling.
      if (value & kStatusOverrun) {
        output_overrun_ = false;
      }
      if (value & kStatusLoadFault) {
        load_fault_ = false;
      }
      return;
    case kRegGuard:
      reg_guard_ = value & 1u;
      return;
    case kRegSimCycles:
      reg_sim_cycles_ = value;
      return;
    case kRegNetWidth:
      reg_width_ = value;
      return;
    case kRegNetHeight:
      reg_height_ = value;
      return;
    case kRegTopology:
      reg_topology_ = value;
      return;
    case kRegConfigure:
      configure();
      return;
    case kRegLinkProbe:
      reg_link_probe_ = value;
      return;
    case kRegRngSeed:
      rng_ = Lfsr32(value);
      return;
    default:
      break;
  }
  TMSIM_CHECK_MSG(sim_ != nullptr, "design not configured");
  const std::size_t vcs = net_.router.num_vcs;
  if (addr >= kStimuliBase && addr < kOutputBase) {
    const Addr off = addr - kStimuliBase;
    const std::size_t r = off / 16;
    const std::size_t vc = (off % 16) / 4;
    const Addr sub = off % 4;
    TMSIM_CHECK_MSG(r < net_.num_routers() && vc < vcs, "bad stimuli port");
    const std::size_t port = r * vcs + vc;
    if (sub == kPortPushTs) {
      staged_ts_[port] = value;
      staged_valid_[port] = 1;
      return;
    }
    if (sub == kPortPushData) {
      if (reg_guard_ & 1u) {
        // Guarded push: the high bits carry a sequence + checksum tag
        // (guard_stimulus()). A word whose tag does not match the port's
        // commit count, whose checksum fails, whose timestamp write was
        // lost, or that would overrun the buffer is rejected: counted,
        // flagged sticky in kRegStatus, and *not* committed — so the
        // commit count exposes exactly the accepted prefix for replay.
        const bool ts_present = staged_valid_[port] != 0;
        staged_valid_[port] = 0;
        const std::uint32_t payload = value & kStimuliPayloadMask;
        const std::uint32_t seq = (value >> kStimuliPayloadBits) & 63u;
        const std::uint32_t cks = (value >> 27) & 3u;
        const std::uint32_t ts32 =
            static_cast<std::uint32_t>(staged_ts_[port]);
        const bool ok = ts_present && seq == (stimuli_commits_[port] & 63u) &&
                        cks == word_checksum(payload, ts32) &&
                        !stimuli_[port].full();
        if (!ok) {
          ++stimuli_rejects_;
          load_fault_ = true;
          if (metrics_) {
            m_rejects_->add(1);
          }
          return;
        }
        stimuli_[port].push(TimedWord{staged_ts_[port], payload});
        ++stimuli_commits_[port];
        return;
      }
      // Unguarded: the stimuli entry register is kForwardBits wide;
      // higher bus bits are simply not connected in hardware.
      staged_valid_[port] = 0;
      stimuli_[port].push(TimedWord{
          staged_ts_[port], value & ((1u << noc::kForwardBits) - 1)});
      ++stimuli_commits_[port];
      return;
    }
    throw Error("bad stimuli port sub-register");
  }
  if (addr >= kOutputBase && addr < kLinkMonitorBase) {
    const Addr off = addr - kOutputBase;
    const std::size_t r = off / 8;
    const Addr sub = off % 8;
    TMSIM_CHECK_MSG(r < net_.num_routers() && sub == kPortAck,
                    "bad output port write");
    consumer_ack(output_[r], output_pops_[r], value);
    return;
  }
  if (addr == kLinkMonitorBase + kPortAck) {
    consumer_ack(*link_monitor_, link_monitor_pops_, value);
    return;
  }
  if (addr == kAccessMonitorBase + kPortAck) {
    consumer_ack(*access_monitor_, access_monitor_pops_, value);
    return;
  }
  throw Error("unmapped write at address " + std::to_string(addr));
}

}  // namespace tmsim::fpga

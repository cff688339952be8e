#include "farm/session.h"

#include <algorithm>
#include <sstream>

#include "fpga/arm_host.h"
#include "fpga/faulty_bus.h"
#include "fpga/fpga_design.h"

namespace tmsim::farm {

core::EngineOptions effective_engine_options(const JobSpec& spec,
                                             bool canonical_seed) {
  core::EngineOptions opts = spec.engine;
  if (canonical_seed) {
    opts.seed = 1;
  } else if (opts.seed == 1) {
    opts.seed = derive_seed(spec.seed, "schedule");
  }
  return opts;
}

std::string engine_cache_key(const JobSpec& spec) {
  const core::EngineOptions opts = effective_engine_options(spec, true);
  std::ostringstream os;
  os << spec.net.width << "x" << spec.net.height << ":"
     << static_cast<int>(spec.net.topology) << ":" << spec.net.router.num_vcs
     << ":" << spec.net.router.queue_depth << ":"
     << static_cast<int>(opts.policy) << ":" << opts.num_shards << ":"
     << static_cast<int>(opts.partition) << ":"
     << static_cast<int>(opts.scheduler);
  return os.str();
}

std::uint64_t engine_cache_key_hash(const JobSpec& spec) {
  const std::string key = engine_cache_key(spec);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, as in fingerprint()
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h == 0 ? 0xcbf29ce484222325ull : h;
}

SimSession::SimSession(const JobSpec& spec) : spec_(spec) {
  spec_.validate();
  if (spec_.kind != JobKind::kHostedFpga) {
    return;
  }
  fpga::FpgaBuildConfig build;
  build.router = spec_.net.router;
  build.engine = effective_engine_options(spec_, false);
  design_ = std::make_unique<fpga::FpgaDesign>(build);

  fpga::ArmHost::Workload wl;
  wl.be_load = spec_.workload.be_load;
  wl.be_vcs = spec_.workload.be_vcs;
  wl.be_bytes = spec_.workload.be_bytes;
  wl.gt_streams = spec_.resolved_gt_streams();
  wl.rng_on_fpga = true;
  wl.rng_seed =
      static_cast<std::uint32_t>(derive_seed(spec_.seed, "host-rng"));

  fpga::BusInterface* bus = design_.get();
  const fpga::FaultRates& fr = spec_.faults;
  if (fr.read_flip + fr.write_flip + fr.dropped_write + fr.stuck_busy +
          fr.spurious_overrun >
      0.0) {
    faulty_bus_ = std::make_unique<fpga::FaultyBus>(
        *design_, fr, derive_seed(spec_.seed, "faults"));
    bus = faulty_bus_.get();
  }
  host_ = std::make_unique<fpga::ArmHost>(*bus, build, wl);
  host_->configure_network(spec_.net.width, spec_.net.height,
                           spec_.net.topology);
}

SimSession::~SimSession() = default;

void SimSession::attach_first(core::SeqNocSimulation& sim) {
  sim.reset();
  traffic::TrafficHarness::Options opt;
  opt.seed = derive_seed(spec_.seed, "stimuli");
  opt.verify_payload = spec_.workload.verify_payload;
  opt.overload_threshold = spec_.workload.overload_threshold;
  opt.stop_on_overload = spec_.workload.stop_on_overload;
  opt.warmup_cycles = spec_.workload.warmup_cycles;
  harness_ = std::make_unique<traffic::TrafficHarness>(sim, opt);
  for (const traffic::GtStream& s : spec_.resolved_gt_streams()) {
    harness_->add_gt_stream(s);
  }
  if (spec_.workload.be_load > 0.0) {
    harness_->set_be_load(spec_.workload.be_load, spec_.workload.be_vcs,
                          spec_.workload.be_bytes);
  }
  started_ = true;
}

void SimSession::attach(core::SeqNocSimulation& sim, bool paranoid) {
  TMSIM_CHECK_MSG(needs_engine(), "hosted sessions own their stack; "
                                  "attach() is core-traffic only");
  TMSIM_CHECK_MSG(sim_ == nullptr, "session is already attached");
  if (!(sim.config() == spec_.net)) {
    throw ContextualError(
        "attach target simulates a different network than the job spec",
        {{"job", spec_.name}});
  }
  if (!started_) {
    attach_first(sim);
  } else {
    sim.restore(checkpoint_);
    harness_->rebind(sim);
    if (paranoid) {
      // restore() already digest-verified the load; re-derive both
      // counters from scratch as an independent witness (the farm's
      // equivalent of the host's commit-counter mirror cross-check).
      TMSIM_CHECK_MSG(sim.cycle() == checkpoint_.cycle,
                      "resumed engine cycle disagrees with the checkpoint");
      TMSIM_CHECK_MSG(core::engine_state_digest(sim.engine()) ==
                          checkpoint_.digest,
                      "resumed engine digest disagrees with the checkpoint");
    }
  }
  sim_ = &sim;
}

void SimSession::detach() {
  TMSIM_CHECK_MSG(sim_ != nullptr, "session is not attached");
  checkpoint_ = sim_->checkpoint();
  sim_ = nullptr;
}

void SimSession::bind_cancel(
    std::shared_ptr<const std::atomic<bool>> token) {
  cancel_ = std::move(token);
  if (host_) {
    if (cancel_) {
      auto token_copy = cancel_;
      host_->set_cancel_check([token_copy] {
        return token_copy->load(std::memory_order_relaxed);
      });
    } else {
      host_->set_cancel_check({});
    }
  }
}

bool SimSession::aborted() const {
  return host_ != nullptr && host_->aborted();
}

std::string SimSession::abort_reason() const {
  return aborted() ? host_->fault_report().abort_reason : std::string();
}

SystemCycle SimSession::advance(SystemCycle quantum) {
  TMSIM_CHECK_MSG(quantum >= 1, "quantum must be positive");
  if (done()) {
    return 0;
  }
  if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
    return 0;  // cooperative cancellation: no work past the token
  }
  const SystemCycle before = cycles_done_;
  if (spec_.kind == JobKind::kHostedFpga) {
    const DeltaCycle deltas_before =
        design_->configured()
            ? design_->simulation().engine().total_delta_cycles()
            : 0;
    const SystemCycle target =
        std::min<SystemCycle>(cycles_done_ + quantum, spec_.cycles);
    // Incremental so that slicing adds no bus accesses of its own: the
    // access (and fault-injection) sequence is identical however the
    // budget is cut. The counter sync runs exactly once, at completion.
    host_->run_incremental(target);
    cycles_done_ = host_->cycles_simulated();
    last_slice_deltas_ =
        design_->configured()
            ? design_->simulation().engine().total_delta_cycles() -
                  deltas_before
            : 0;
    if (done() && !hw_synced_) {
      host_->sync_hw_counters();
      hw_synced_ = true;
    }
  } else {
    TMSIM_CHECK_MSG(sim_ != nullptr, "advance() needs an attached engine");
    const DeltaCycle deltas_before = sim_->total_delta_cycles();
    const SystemCycle n =
        std::min<SystemCycle>(quantum, spec_.cycles - cycles_done_);
    harness_->run(n);
    cycles_done_ = sim_->cycle();
    last_slice_deltas_ = sim_->total_delta_cycles() - deltas_before;
  }
  return cycles_done_ - before;
}

bool SimSession::done() const {
  if (spec_.kind == JobKind::kHostedFpga) {
    return cycles_done_ >= spec_.cycles || host_->overloaded() ||
           host_->aborted();
  }
  if (cycles_done_ >= spec_.cycles) {
    return true;
  }
  return started_ && harness_->overloaded() &&
         spec_.workload.stop_on_overload;
}

void SimSession::finalize(JobResult& out) const {
  out.spec_fingerprint = spec_.fingerprint();
  out.name = spec_.name;
  out.cycles_simulated = cycles_done_;
  if (spec_.kind == JobKind::kHostedFpga) {
    const auto fill = [&](traffic::PacketClass cls, ClassResult& cr) {
      const analysis::StatAccumulator& acc = host_->latency(cls);
      cr.delivered = acc.count();
      cr.total = acc;
    };
    fill(traffic::PacketClass::kGuaranteedThroughput, out.gt);
    fill(traffic::PacketClass::kBestEffort, out.be);
    out.overloaded = host_->overloaded();
    out.fault_report = host_->fault_report();
    out.access_delay = host_->access_delay();
    if (design_->configured()) {
      out.state_digest =
          core::engine_state_digest(design_->simulation().engine());
    }
    return;
  }
  if (!started_) {
    return;  // never ran: all-zero result
  }
  const auto fill = [&](traffic::PacketClass cls, ClassResult& cr) {
    const traffic::LatencySummary s = harness_->summarize(cls);
    cr.delivered = s.delivered;
    cr.network = s.network;
    cr.access = s.access;
    cr.total = s.total;
  };
  fill(traffic::PacketClass::kGuaranteedThroughput, out.gt);
  fill(traffic::PacketClass::kBestEffort, out.be);
  out.flits_injected = harness_->flits_injected();
  out.flits_delivered = harness_->flits_delivered();
  out.overloaded = harness_->overloaded();
  out.state_digest = sim_ != nullptr
                         ? core::engine_state_digest(sim_->engine())
                         : checkpoint_.digest;
}

JobResult run_job_standalone(const JobSpec& spec) {
  JobResult r;
  r.spec_fingerprint = spec.fingerprint();
  r.name = spec.name;
  try {
    SimSession session(spec);
    std::unique_ptr<core::SeqNocSimulation> sim;
    if (session.needs_engine()) {
      sim = std::make_unique<core::SeqNocSimulation>(
          spec.net, effective_engine_options(spec, /*canonical_seed=*/false));
      session.attach(*sim);
    }
    while (!session.done()) {
      session.advance(spec.cycles);
    }
    if (session.aborted()) {
      // Fault-report escalation: the hardened host stopped gracefully,
      // so its statistics are consistent — finalize them, but the job
      // *failed*, with the same classification the farm applies.
      session.finalize(r);
      r.status = JobStatus::kFailed;
      r.error = session.abort_reason();
      r.failure.kind = FailureKind::kFaultAbort;
      r.failure.message = r.error;
      r.failure.at_cycle = session.cycles_done();
      r.failure.replay = spec.serialize();
    } else {
      session.finalize(r);
      r.status = JobStatus::kDone;
    }
    r.slices = 1;
  } catch (const std::exception& e) {
    r.status = JobStatus::kFailed;
    r.error = e.what();
    r.failure.kind = classify_failure(e);
    r.failure.message = e.what();
    r.failure.replay = spec.serialize();
  }
  return r;
}

}  // namespace tmsim::farm

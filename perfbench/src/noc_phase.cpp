#include "noc_phase.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/noc_block.h"
#include "noc/network.h"
#include "timed_noc.h"
#include "traffic/harness.h"
#include "traffic/workloads.h"

namespace perfbench {

namespace core = tmsim::core;
namespace noc = tmsim::noc;
namespace traffic = tmsim::traffic;
using tmsim::BitVector;

namespace {

// Sum check on the noc replay: decode + G + F + encode against the
// decorator-timed evaluation. The evaluation also pays RouterBlock's link
// decode/encode; the replay pays cache misses on 2048 distinct sampled
// states where the engine reuses one scratch state. Full-length runs
// measure 0.8-1.2, but the two clocks run at different moments on a host
// whose speed moves by up to 1.7x, so the band only catches a stage that
// is missing or counted twice.
constexpr double kPartsMinShare = 0.5;
constexpr double kPartsMaxShare = 2.0;

constexpr std::size_t kReplaySampleEvery = 16;
constexpr std::size_t kReplayMaxSamples = 2048;

std::size_t sharded_shards() {
  return std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
}

std::unique_ptr<traffic::TrafficHarness> make_harness(
    noc::NocSimulation& sim, const EngineWorkload& w, std::uint64_t seed) {
  traffic::TrafficHarness::Options opt;
  opt.seed = seed;
  auto h = std::make_unique<traffic::TrafficHarness>(sim, opt);
  if (w.traffic.fig1_gt) {
    for (const traffic::GtStream& s :
         traffic::fig1_gt_streams(w.net, w.traffic.gt_period)) {
      h->add_gt_stream(s);
    }
  }
  if (w.traffic.be_load > 0.0) {
    h->set_be_load(w.traffic.be_load);
  }
  return h;
}

core::EngineOptions engine_options(core::SchedulerKind kind,
                                   std::size_t shards = 1) {
  core::EngineOptions o;
  o.scheduler = kind;
  o.num_shards = shards;
  return o;
}

/// One simulation under measurement.
struct Lane {
  std::string name;
  noc::NocSimulation* sim = nullptr;         // what the harness drives
  const core::Engine* engine = nullptr;      // null for the golden model
  std::function<void()> reset;               // back to power-on
  std::function<void()> on_reference;        // end of the first episode
  std::unique_ptr<traffic::TrafficHarness> harness;
  // Timed chunk durations by position within the episode: every episode
  // repeats the same work, so chunk c of any episode matches chunk c of
  // every other.
  std::vector<std::vector<double>> chunk_ns;
  std::uint64_t run_ns = 0;  // every harness.run(), warm-up included
  std::uint64_t cycles = 0;
  // State at the end of the first episode (the oracle's reference point).
  bool have_ref = false;
  std::uint64_t digest = 0;
  std::vector<BitVector> words;
  std::size_t flits = 0;
};

// `position` is the chunk's index within the episode (-1: warm-up).
void timed_run(Lane& lane, std::uint64_t cycles, int position) {
  if (cycles == 0) {
    return;
  }
  const std::uint64_t t0 = now_ns();
  lane.harness->run(cycles);
  const std::uint64_t dt = now_ns() - t0;
  lane.run_ns += dt;
  lane.cycles += cycles;
  if (position >= 0) {
    if (lane.chunk_ns.size() <= static_cast<std::size_t>(position)) {
      lane.chunk_ns.resize(position + 1);
    }
    lane.chunk_ns[position].push_back(static_cast<double>(dt));
  }
}

// Best-of-N rate: the episode's timed cycles over the sum, by position,
// of the fastest repetition of that chunk (see fast_time in report.h).
double best_cps(const Lane& lane, const EngineWorkload& w) {
  double ns = 0.0;
  for (const std::vector<double>& reps : lane.chunk_ns) {
    ns += fast_time(reps);
  }
  return ns > 0.0 ? static_cast<double>(w.chunk * lane.chunk_ns.size()) * 1e9 / ns
                  : 0.0;
}

// Median chunk rate, for the record.
double median_cps(const Lane& lane, const EngineWorkload& w) {
  std::vector<double> rates;
  for (const std::vector<double>& reps : lane.chunk_ns) {
    for (double ns : reps) {
      rates.push_back(static_cast<double>(w.chunk) * 1e9 / ns);
    }
  }
  return median(rates);
}

bool credit_invariant_holds(const noc::NocSimulation& sim) {
  try {
    noc::check_credit_invariant(sim);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// Every lane must agree with lanes[0] on the committed state right now.
void check_lanes_agree(std::vector<Lane*>& lanes, Report& rep) {
  const Lane& first = *lanes.front();
  for (Lane* lane : lanes) {
    rep.check(credit_invariant_holds(*lane->sim),
              "credit invariant: " + lane->name);
    if (lane == &first) {
      continue;
    }
    if (lane->engine != nullptr && first.engine != nullptr) {
      rep.check(core::engine_state_digest(*lane->engine) ==
                    core::engine_state_digest(*first.engine),
                "digest " + lane->name + " == " + first.name);
    }
    rep.check(lane->harness->flits_delivered() ==
                  first.harness->flits_delivered(),
              "delivered flits " + lane->name + " == " + first.name);
  }
}

void take_reference(Lane& lane) {
  lane.have_ref = true;
  lane.digest = lane.engine ? core::engine_state_digest(*lane.engine) : 0;
  lane.words.clear();
  for (std::size_t r = 0; r < lane.sim->config().num_routers(); ++r) {
    lane.words.push_back(lane.sim->router_state_word(r));
  }
  lane.flits = lane.harness->flits_delivered();
  if (lane.on_reference) {
    lane.on_reference();
  }
}

// Runs identical episodes until `seconds` have passed (at least one whole
// episode); after the first episode a run may stop at any chunk boundary.
// `before_episode` (optional) runs untimed ahead of every episode.
void run_lanes(std::vector<Lane*> lanes, const EngineWorkload& w,
               std::uint64_t seed, double seconds, Report& rep,
               const std::function<void()>& before_episode = {}) {
  const double deadline = now_s() + seconds;
  for (std::size_t episode = 0;; ++episode) {
    if (before_episode) {
      before_episode();
    }
    for (Lane* lane : lanes) {
      lane->reset();
      lane->harness = make_harness(*lane->sim, w, seed);
      timed_run(*lane, w.warmup, -1);
    }
    for (std::size_t c = 0; c < w.chunks; ++c) {
      for (Lane* lane : lanes) {
        timed_run(*lane, w.chunk, static_cast<int>(c));
      }
      if (episode > 0 && now_s() >= deadline) {
        break;
      }
    }
    check_lanes_agree(lanes, rep);
    if (episode == 0) {
      for (Lane* lane : lanes) {
        take_reference(*lane);
      }
    }
    if (now_s() >= deadline) {
      return;
    }
  }
}

// Oracle: `lane` reached the same committed state as `ref` at the end of
// the first episode — router by router, by digest, and in delivered flits.
void check_against(const Lane& ref, const Lane& lane, Report& rep) {
  std::size_t bad_routers = 0;
  for (std::size_t r = 0; r < ref.words.size(); ++r) {
    if (r >= lane.words.size() || lane.words[r] != ref.words[r]) {
      ++bad_routers;
    }
  }
  rep.check(lane.have_ref && bad_routers == 0,
            lane.name + ": " + std::to_string(bad_routers) +
                " router states differ from " + ref.name);
  if (lane.engine != nullptr && ref.engine != nullptr) {
    rep.check(lane.digest == ref.digest,
              "episode digest " + lane.name + " == " + ref.name);
  }
  rep.check(lane.flits == ref.flits,
            "episode delivered flits " + lane.name + " == " + ref.name);
}

Lane seq_lane(const std::string& name, core::SeqNocSimulation& sim) {
  Lane lane;
  lane.name = name;
  lane.sim = &sim;
  lane.engine = &sim.engine();
  lane.reset = [&sim] { sim.reset(); };
  return lane;
}

// The golden model has no reset: every episode builds a fresh one.
void make_direct_lane(Lane& lane, const noc::NetworkConfig& net,
                      std::unique_ptr<noc::DirectNocSimulation>& holder) {
  lane.name = "direct";
  lane.reset = [&lane, &net, &holder] {
    holder = std::make_unique<noc::DirectNocSimulation>(net);
    lane.sim = holder.get();
  };
}

/// on_superstep sink for the sharded executor (called from shard threads).
class BarrierClock : public core::SimObserver {
 public:
  void on_superstep(std::size_t, std::uint64_t, std::uint64_t settle_ns,
                    std::uint64_t barrier_ns) override {
    settle_ns_.fetch_add(settle_ns, std::memory_order_relaxed);
    barrier_ns_.fetch_add(barrier_ns, std::memory_order_relaxed);
  }
  double barrier_share() const {
    const double s = static_cast<double>(settle_ns_.load());
    const double b = static_cast<double>(barrier_ns_.load());
    return s + b > 0.0 ? b / (s + b) : 0.0;
  }

 private:
  std::atomic<std::uint64_t> settle_ns_{0};
  std::atomic<std::uint64_t> barrier_ns_{0};
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double setup_once(const EngineWorkload& w, std::uint64_t seed) {
  const double t0 = now_s();
  core::SeqNocSimulation rr(w.net, engine_options(core::SchedulerKind::kRoundRobin));
  core::SeqNocSimulation cmp(w.net, engine_options(core::SchedulerKind::kCompiled));
  auto h_rr = make_harness(rr, w, seed);
  auto h_cmp = make_harness(cmp, w, seed);
  return now_s() - t0;
}

// Returns the set-up time: fast_time over two samples per episode.
double run_untraced(const EngineWorkload& w, std::uint64_t seed, double seconds,
                    Report& rep) {
  core::SeqNocSimulation rr(w.net, engine_options(core::SchedulerKind::kRoundRobin));
  core::SeqNocSimulation cmp(w.net, engine_options(core::SchedulerKind::kCompiled));
  Lane l_rr = seq_lane("rr", rr);
  Lane l_cmp = seq_lane("compiled", cmp);
  std::vector<double> setups;
  run_lanes({&l_rr, &l_cmp}, w, seed, seconds, rep,
            [&] {
              for (int i = 0; i < 2; ++i) {
                setups.push_back(setup_once(w, seed));
              }
            });
  rep.metric("cps_rr", best_cps(l_rr, w), "cycles/s");
  rep.metric("cps_compiled", best_cps(l_cmp, w), "cycles/s");
  rep.note("noc.episodes", static_cast<double>(l_rr.chunk_ns.front().size()));
  rep.note("noc.rr.median_cps", median_cps(l_rr, w));
  rep.note("noc.compiled.median_cps", median_cps(l_cmp, w));
  rep.note("setup.engine_reps", static_cast<double>(setups.size()));
  rep.note("setup.engine_median_s", median(setups));

  // Oracle: the other schedulers and the golden model, one episode each.
  core::SeqNocSimulation wl(w.net, engine_options(core::SchedulerKind::kWorklist));
  core::SeqNocSimulation sh(
      w.net, engine_options(core::SchedulerKind::kRoundRobin, sharded_shards()));
  std::unique_ptr<noc::DirectNocSimulation> golden;
  Lane l_wl = seq_lane("worklist", wl);
  Lane l_sh = seq_lane("sharded" + std::to_string(sharded_shards()), sh);
  Lane l_direct;
  make_direct_lane(l_direct, w.net, golden);
  run_lanes({&l_wl, &l_sh, &l_direct}, w, seed, 0.0, rep);
  for (const Lane* lane : {&l_cmp, &l_wl, &l_sh, &l_direct}) {
    check_against(l_rr, *lane, rep);
  }
  return fast_time(setups);
}

double run_traced(const EngineWorkload& w, std::uint64_t seed, double seconds,
                  Report& rep) {
  const std::size_t blocks = w.net.num_routers();

  // Group A: both measured schedulers on the timed netlist copy, next to
  // the plain round-robin engine (the tracing-overhead baseline, and the
  // digest every timed episode is checked against).
  core::SeqNocSimulation plain_a(w.net, engine_options(core::SchedulerKind::kRoundRobin));
  Lane l_plain_a = seq_lane("rr", plain_a);
  EvalLog log_rr;
  log_rr.sample_every = kReplaySampleEvery;
  log_rr.max_samples = kReplayMaxSamples;
  EvalLog log_cmp;
  TimedNocSimulation t_rr(w.net, core::SchedulerKind::kRoundRobin, &log_rr);
  TimedNocSimulation t_cmp(w.net, core::SchedulerKind::kCompiled, &log_cmp);
  StepTap tap_rr(t_rr, [&]() -> const core::StepStats& { return t_rr.last_step_stats(); }, blocks);
  StepTap tap_cmp(t_cmp, [&]() -> const core::StepStats& { return t_cmp.last_step_stats(); }, blocks);
  StepTotals ref_rr, ref_cmp;
  auto timed_lane = [](const std::string& name, TimedNocSimulation& t,
                       StepTap& tap, StepTotals& ref) {
    Lane lane;
    lane.name = name;
    lane.sim = &tap;
    lane.engine = &t.engine();
    lane.reset = [&t] { t.reset(); };
    lane.on_reference = [&tap, &ref] { ref = tap.totals; };
    return lane;
  };
  Lane l_rr = timed_lane("rr.timed", t_rr, tap_rr, ref_rr);
  Lane l_cmp = timed_lane("compiled.timed", t_cmp, tap_cmp, ref_cmp);
  // One replay pass ahead of every episode once the sample is complete, so
  // the replay sees the same mix of host conditions as core.rr.eval_ns;
  // per-episode eval_ns alongside, for the sum check.
  std::vector<ReplayResult> passes;
  std::vector<double> episode_eval_ns;
  std::uint64_t seen_ns = 0, seen_evals = 0;
  auto close_episode = [&] {
    if (log_rr.evals > seen_evals) {
      episode_eval_ns.push_back(static_cast<double>(log_rr.ns - seen_ns) /
                                static_cast<double>(log_rr.evals - seen_evals));
      seen_ns = log_rr.ns;
      seen_evals = log_rr.evals;
    }
  };
  auto replay_pass = [&] {
    close_episode();
    if (log_rr.samples.size() == log_rr.max_samples || !passes.empty()) {
      passes.push_back(replay_samples(log_rr.samples, w.net.router));
    }
  };
  run_lanes({&l_plain_a, &l_rr, &l_cmp}, w, seed, seconds * 0.5, rep, replay_pass);
  close_episode();
  if (passes.empty()) {
    passes.push_back(replay_samples(log_rr.samples, w.net.router));
  }

  // Group B: the other executors, next to the plain engine again.
  core::SeqNocSimulation plain(w.net, engine_options(core::SchedulerKind::kRoundRobin));
  core::SeqNocSimulation wl(w.net, engine_options(core::SchedulerKind::kWorklist));
  const std::size_t shards = sharded_shards();
  core::SeqNocSimulation sh(
      w.net, engine_options(core::SchedulerKind::kRoundRobin, shards));
  BarrierClock barrier;
  sh.set_observer(&barrier);
  StepTap tap_wl(wl, [&]() -> const core::StepStats& { return wl.last_step_stats(); }, blocks);
  StepTap tap_sh(sh, [&]() -> const core::StepStats& { return sh.last_step_stats(); }, blocks);
  StepTotals ref_wl, ref_sh;
  Lane l_plain = seq_lane("rr", plain);
  Lane l_wl = seq_lane("worklist", wl);
  l_wl.sim = &tap_wl;
  l_wl.on_reference = [&] { ref_wl = tap_wl.totals; };
  Lane l_sh = seq_lane("sharded" + std::to_string(shards), sh);
  l_sh.sim = &tap_sh;
  l_sh.on_reference = [&] { ref_sh = tap_sh.totals; };
  run_lanes({&l_plain, &l_wl, &l_sh}, w, seed, seconds * 0.5, rep);
  sh.set_observer(nullptr);

  std::unique_ptr<noc::DirectNocSimulation> golden;
  Lane l_direct;
  make_direct_lane(l_direct, w.net, golden);
  run_lanes({&l_direct}, w, seed, 0.0, rep);
  // The traced digests must equal the untraced engine's.
  for (const Lane* lane : {&l_rr, &l_cmp, &l_wl, &l_sh, &l_direct}) {
    check_against(l_plain, *lane, rep);
  }

  // --- noc: replay of sampled real evaluations.
  ReplayResult rp;
  double parts_fast = 0.0;  // best pass per stage, for the sum check
  {
    std::vector<double> dec, g, f, enc;
    for (const ReplayResult& r : passes) {
      dec.push_back(r.decode_ns);
      g.push_back(r.g_ns);
      f.push_back(r.f_ns);
      enc.push_back(r.encode_ns);
      rp.mismatches += r.mismatches;
    }
    rp = ReplayResult{median(dec), median(g), median(f), median(enc),
                      passes.front().samples, rp.mismatches};
    parts_fast = fast_time(dec) + fast_time(g) + fast_time(f) + fast_time(enc);
  }
  rep.note("noc.replay_passes", static_cast<double>(passes.size()));
  rep.check(rp.samples > 0, "noc replay has samples");
  rep.check(rp.mismatches == 0, std::to_string(rp.mismatches) +
                                    " replayed state words differ from the "
                                    "real evaluation");
  const double parts = rp.decode_ns + rp.g_ns + rp.f_ns + rp.encode_ns;
  rep.metric("noc.decode_ns", rp.decode_ns, "ns");
  rep.metric("noc.encode_ns", rp.encode_ns, "ns");
  rep.metric("noc.g_ns", rp.g_ns, "ns");
  rep.metric("noc.f_ns", rp.f_ns, "ns");
  rep.metric("noc.codec_share", per(rp.decode_ns + rp.encode_ns, parts), "ratio");
  rep.note("noc.replay_samples", static_cast<double>(rp.samples));

  // --- core: per scheduler, over the timed netlist copy.
  struct Sched {
    const char* name;
    const Lane* lane;
    const EvalLog* log;
    const StepTap* tap;
    const StepTotals* ref;
  };
  for (const Sched& s : {Sched{"rr", &l_rr, &log_rr, &tap_rr, &ref_rr},
                         Sched{"compiled", &l_cmp, &log_cmp, &tap_cmp, &ref_cmp}}) {
    const std::string p = std::string("core.") + s.name + ".";
    const auto steps = static_cast<double>(s.tap->totals.steps);
    const double eval_ns = per(static_cast<double>(s.log->ns),
                               static_cast<double>(s.log->evals));
    const double step_ns = per(static_cast<double>(s.tap->totals.step_ns), steps);
    const double evals_per_step = per(static_cast<double>(s.log->evals), steps);
    const double sched_ns = step_ns - evals_per_step * eval_ns;
    // sched_ns is the residual of step_ns after the evaluations, so the
    // identity holds by construction; what can fail is a negative residual
    // (evaluations timed outside the step) or an evaluation count that
    // differs from the engine's own.
    rep.check(s.log->evals == s.tap->totals.delta_cycles,
              p + "decorator evaluations == StepStats delta cycles");
    rep.check(sched_ns >= 0.0, p + "sched_ns >= 0");
    rep.metric(p + "eval_ns", eval_ns, "ns");
    rep.metric(p + "eval_share", per(static_cast<double>(s.log->ns),
                                     static_cast<double>(s.tap->totals.step_ns)),
               "ratio");
    rep.metric(p + "evals_per_cycle",
               per(static_cast<double>(s.ref->delta_cycles),
                   static_cast<double>(s.ref->steps)),
               "count");
    rep.metric(p + "reevals_per_cycle",
               per(static_cast<double>(s.ref->re_evaluations),
                   static_cast<double>(s.ref->steps)),
               "count");
    rep.metric(p + "step_ns", step_ns, "ns");
    rep.metric(p + "sched_ns", sched_ns, "ns");
  }
  // Sum check in the fast mode on both sides (best replay pass per stage
  // against the best episode's mean evaluation): medians and means mix
  // host conditions in proportions that differ between the two clocks.
  const double parts_share = per(parts_fast, fast_time(episode_eval_ns));
  rep.note("sumcheck.noc_parts_over_eval", parts_share);
  rep.check(parts_share >= kPartsMinShare && parts_share <= kPartsMaxShare,
            "decode + G + F + encode within [" + std::to_string(kPartsMinShare) +
                ", " + std::to_string(kPartsMaxShare) + "] of the evaluation (" +
                std::to_string(parts_share) + ")");

  const double wl_steps = static_cast<double>(ref_wl.steps);
  rep.metric("core.active_block_frac",
             1.0 - per(static_cast<double>(ref_wl.skipped_blocks),
                       wl_steps * static_cast<double>(blocks)),
             "ratio");
  rep.metric("core.idle_cycle_frac",
             per(static_cast<double>(ref_wl.idle_cycles), wl_steps), "ratio");
  rep.metric("core.worklist.cps", best_cps(l_wl, w), "cycles/s");
  rep.metric("core.worklist.evals_per_cycle",
             per(static_cast<double>(ref_wl.delta_cycles), wl_steps), "count");

  const double cps_plain = best_cps(l_plain, w);
  const double sh_steps = static_cast<double>(ref_sh.steps);
  rep.metric("core.sharded4.cps", best_cps(l_sh, w), "cycles/s");
  rep.metric("core.sharded4.speedup", per(best_cps(l_sh, w), cps_plain), "ratio");
  rep.metric("core.sharded4.supersteps_per_cycle",
             per(static_cast<double>(ref_sh.settle_rounds), sh_steps), "count");
  rep.metric("core.sharded4.barrier_share", barrier.barrier_share(), "ratio");
  rep.metric("core.sharded4.cut_publishes_per_cycle",
             per(static_cast<double>(ref_sh.cut_publishes), sh_steps), "count");
  rep.note("core.sharded4.shards", static_cast<double>(shards));

  // --- traffic: harness time per cycle = run time − step time (a residual
  // again: checked for one step per cycle and a non-negative remainder).
  const double cycles_rr = static_cast<double>(l_rr.cycles);
  const double run_ns = per(static_cast<double>(l_rr.run_ns), cycles_rr);
  const double step_ns = per(static_cast<double>(tap_rr.totals.step_ns), cycles_rr);
  const double harness_ns = run_ns - step_ns;
  rep.check(tap_rr.totals.steps == l_rr.cycles, "core.rr steps == cycles run");
  rep.check(harness_ns >= 0.0, "traffic.harness_ns >= 0");
  rep.metric("traffic.harness_ns", harness_ns, "ns");
  const double episode_cycles =
      static_cast<double>(w.warmup + w.chunk * w.chunks);
  rep.metric("traffic.flits_per_cycle",
             per(static_cast<double>(l_plain.flits), episode_cycles), "count");

  const double cps_timed = best_cps(l_rr, w);
  const double cps_plain_a = best_cps(l_plain_a, w);
  rep.note("core.rr.timed_cps", cps_timed);
  rep.note("core.rr.plain_cps", cps_plain_a);
  return 1.0 - per(cps_timed, cps_plain_a);
}

}  // namespace

NocPhaseResult run_noc_phase(const EngineWorkload& w, std::uint64_t seed,
                             double seconds, bool traced, Report& rep) {
  NocPhaseResult res;
  if (traced) {
    res.overhead_frac = run_traced(w, seed, seconds, rep);
  } else {
    res.setup_s = run_untraced(w, seed, seconds, rep);
  }
  return res;
}

bool noc_selftest(Report& rep) {
  EngineWorkload w;
  w.net.width = 4;
  w.net.height = 4;
  w.net.topology = noc::Topology::kMesh;
  w.traffic.be_load = 0.2;
  w.traffic.fig1_gt = true;
  w.traffic.gt_period = 300;
  w.warmup = 100;
  w.chunk = 100;
  w.chunks = 4;
  const std::size_t before = rep.failed();
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::kRoundRobin, core::SchedulerKind::kCompiled}) {
    const std::string name = core::scheduler_kind_name(kind);
    EvalLog log;
    log.sample_every = 7;
    log.max_samples = 256;
    TimedNocSimulation timed(w.net, kind, &log);
    core::SeqNocSimulation seq(w.net, engine_options(kind));
    Lane l_seq = seq_lane(name, seq);
    Lane l_timed;
    l_timed.name = name + ".timed";
    l_timed.sim = &timed;
    l_timed.engine = &timed.engine();
    l_timed.reset = [&timed] { timed.reset(); };
    run_lanes({&l_seq, &l_timed}, w, /*seed=*/7, 0.0, rep);
    check_against(l_seq, l_timed, rep);
    const ReplayResult rp = replay_samples(log.samples, w.net.router);
    rep.check(rp.samples > 0 && rp.mismatches == 0,
              name + ": replay reproduces every sampled state word");
  }
  return rep.failed() == before;
}

}  // namespace perfbench

#include "farm_phase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "farm/session.h"
#include "farmd/server.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace farm = tmsim::farm;
namespace farmd = tmsim::farmd;
namespace net = tmsim::net;
namespace obs = tmsim::obs;

namespace {

constexpr int kSetupReps = 12;
/// Open-loop send rate of the interactive probes.
constexpr double kProbeRateHz = 30.0;
/// Batch completions in the first tenth of the window (the ramp while the
/// first jobs run) do not count toward jobs_per_s.
constexpr double kWarmFrac = 0.1;
constexpr double kDrainTimeoutS = 60.0;
constexpr std::size_t kRerunBatch = 2;
constexpr std::size_t kRerunProbes = 3;
/// Probes the re-run sample draws from (always sent in a full-length run).
constexpr std::size_t kRerunProbeRange = 40;
/// Traced runs: the share of the phase served with the tracer attached;
/// the rest is the same service without it, which gives the service
/// figures and the tracer's overhead.
constexpr double kTracedShare = 0.4;

// Spans with a duration. farm.submit and admission.enqueue are recorded
// as instants (start == end), so their self time is always zero.
const char* const kSpans[] = {"farm.job",   "farm.exec",    "farm.attach",
                              "farm.slice", "farm.publish", "admission.dequeue"};

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

farmd::FarmdOptions daemon_options(std::size_t workers,
                                   obs::MetricsRegistry* metrics,
                                   obs::Tracer* tracer,
                                   const std::string& spill_dir) {
  farmd::FarmdOptions opt;
  opt.port = 0;
  opt.spill_dir = spill_dir;
  opt.farm.num_workers = workers;
  opt.farm.memo_capacity = 0;
  opt.farm.metrics = metrics;
  opt.farm.tracer = tracer;
  return opt;
}

/// One probe's timeline (seconds on the steady clock).
struct ProbeSlot {
  double scheduled = 0.0;
  double sent = 0.0;
  double rtt_us = 0.0;
  double received = 0.0;
  double turnaround = 0.0;
  bool accepted = false;
  bool done = false;
};

struct Session {
  double jobs_per_s = 0.0;
  double wall_s = 0.0;              // daemon start → shutdown done
  std::vector<double> probe_ms;     // scheduled send → result received
  std::vector<double> late_ms;      // sender lateness per probe
  std::vector<double> rtt_us;       // submit_async → wait_submit_reply
  std::vector<double> delivery_ms;  // receipt − (send + turnaround)
};

std::size_t index_of(const std::string& name) {
  return static_cast<std::size_t>(std::stoull(name.substr(1)));
}

std::string rerun_key(char kind, std::size_t i) {
  return std::string(1, kind) + std::to_string(i);
}

// Serves the workload for `seconds` through a fresh daemon and checks
// every result, the ingress ledger, and a seeded re-run sample.
Session serve(const ServiceWorkload& w, std::uint64_t seed, double seconds,
              obs::Tracer* tracer, obs::MetricsRegistry& metrics,
              const std::string& spill_dir, Report& rep) {
  const std::size_t workers = worker_count();
  const std::size_t outstanding = 2 * workers;
  const std::size_t max_probes =
      static_cast<std::size_t>(seconds * kProbeRateHz) + 1;

  // Seeded re-run sample, drawn before anything runs.
  std::set<std::string> rerun;
  tmsim::SplitMix64 pick(seed ^ 0x5eed);
  while (rerun.size() < kRerunBatch) {
    rerun.insert(rerun_key('b', pick.next_below(outstanding)));
  }
  for (std::size_t i = 0; i < kRerunProbes; ++i) {
    rerun.insert(rerun_key('p', pick.next_below(kRerunProbeRange)));
  }

  Session out;
  std::map<std::string, farm::JobResult> kept;
  std::vector<ProbeSlot> probes(max_probes);
  std::mutex probes_mu;
  std::size_t submitted = 0;
  std::size_t received = 0;
  std::string sender_error;
  const double t_start = now_s();
  {
    farmd::FarmdServer server(daemon_options(workers, &metrics, tracer, spill_dir));
    net::FarmClient client(server.port(), "perfbench");
    client.subscribe();

    const double t0 = now_s();
    const double t_warm = t0 + kWarmFrac * seconds;
    const double t_end = t0 + seconds;
    std::size_t next_batch = 0;
    std::size_t batch_outstanding = 0;
    std::vector<double> batch_done;  // completion times inside the window
    auto submit_batch = [&] {
      const farm::JobSpec spec = w.batch(seed, next_batch++);
      const net::SubmitReplyMsg reply =
          client.wait_submit_reply(client.submit_async(spec));
      ++submitted;
      if (rep.check(reply.accepted == 1, "batch " + spec.name + " accepted")) {
        ++batch_outstanding;
      }
    };
    for (std::size_t i = 0; i < outstanding; ++i) {
      submit_batch();
    }

    std::atomic<std::size_t> probes_sent{0};
    std::atomic<bool> sender_done{false};
    std::atomic<bool> stop_sender{false};
    std::thread sender([&] {
      try {
        for (std::size_t k = 0; k < max_probes; ++k) {
          const double sched = t0 + static_cast<double>(k) / kProbeRateHz;
          if (sched >= t_end || stop_sender.load()) {
            break;
          }
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::max(0.0, sched - now_s())));
          const double sent = now_s();
          const std::uint64_t req = client.submit_async(probe_spec(seed, k));
          const net::SubmitReplyMsg reply = client.wait_submit_reply(req);
          const double replied = now_s();
          {
            std::lock_guard<std::mutex> lock(probes_mu);
            ProbeSlot& slot = probes[k];
            slot.scheduled = sched;
            slot.sent = sent;
            slot.rtt_us = (replied - sent) * 1e6;
            slot.accepted = reply.accepted == 1;
          }
          probes_sent.fetch_add(1);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(probes_mu);
        sender_error = e.what();
      }
      sender_done.store(true);
    });

    std::size_t probes_received = 0;
    bool drained = false;
    try {
      while (true) {
        const double now = now_s();
        if (now >= t_end && sender_done.load() && batch_outstanding == 0 &&
            probes_received == probes_sent.load()) {
          drained = true;
          break;
        }
        if (now >= t_end + kDrainTimeoutS || !client.alive()) {
          break;
        }
        std::optional<net::ResultMsg> msg;
        try {
          msg = client.next_result(std::chrono::milliseconds(50));
        } catch (const std::exception&) {
          break;
        }
        if (!msg) {
          continue;
        }
        const double recv = now_s();
        ++received;
        farm::JobResult& r = msg->result;
        rep.check(r.status == farm::JobStatus::kDone,
                  "job " + r.name + " finished " + farm::job_status_name(r.status) +
                      (r.error.empty() ? "" : ": " + r.error));
        if (r.name.empty() || (r.name[0] != 'b' && r.name[0] != 'p')) {
          rep.check(false, "unexpected result name '" + r.name + "'");
          continue;
        }
        if (r.name[0] == 'b') {
          --batch_outstanding;
          if (recv >= t_warm && recv <= t_end) {
            batch_done.push_back(recv);
          }
          if (recv < t_end) {
            submit_batch();
          }
        } else {
          const std::size_t k = index_of(r.name);
          std::lock_guard<std::mutex> lock(probes_mu);
          if (k < probes.size()) {
            probes[k].received = recv;
            probes[k].turnaround = r.turnaround_seconds;
            probes[k].done = true;
          }
          ++probes_received;
        }
        if (rerun.count(r.name) != 0) {
          kept.emplace(r.name, std::move(r));
        }
      }
    } catch (const std::exception& e) {
      rep.check(false, std::string("service loop: ") + e.what());
    }
    stop_sender.store(true);
    sender.join();
    rep.check(drained, "every submitted job returned a result before the "
                       "drain timeout");
    rep.check(sender_error.empty(), "probe sender: " + sender_error);
    submitted += probes_sent.load();
    // Completions per second between the first and last completion in
    // the window (a count over a fixed window would be quantized).
    if (batch_done.size() >= 2) {
      out.jobs_per_s = static_cast<double>(batch_done.size() - 1) /
                       (batch_done.back() - batch_done.front());
    }
    rep.check(batch_done.size() >= 2, "at least two batch jobs completed in "
                                      "the measurement window");
    client.close();
    server.shutdown();
  }
  out.wall_s = now_s() - t_start;

  for (const ProbeSlot& p : probes) {
    if (!p.done) {
      continue;
    }
    rep.check(p.accepted, "probe accepted");
    out.probe_ms.push_back((p.received - p.scheduled) * 1e3);
    out.late_ms.push_back((p.sent - p.scheduled) * 1e3);
    out.rtt_us.push_back(p.rtt_us);
    out.delivery_ms.push_back((p.received - (p.sent + p.turnaround)) * 1e3);
  }

  // Ingress ledger: nothing rejected or dropped, every submit accounted.
  const auto accepted = metrics.counter_value("net.submits.accepted");
  const auto spilled = metrics.counter_value("net.submits.spilled");
  rep.check(accepted + spilled == submitted,
            "net ledger: accepted " + std::to_string(accepted) + " + spilled " +
                std::to_string(spilled) + " == submitted " +
                std::to_string(submitted));
  rep.check(metrics.counter_value("net.submits.rejected") == 0,
            "net ledger: zero rejects");
  rep.check(metrics.counter_value("net.outbox.dropped") == 0,
            "net ledger: zero outbox drops");
  rep.check(received == submitted, "results received " +
                                       std::to_string(received) +
                                       " == submitted " + std::to_string(submitted));

  // Seeded sample re-run standalone, after timing ended.
  for (const auto& [name, result] : kept) {
    const farm::JobSpec spec = name[0] == 'b' ? w.batch(seed, index_of(name))
                                              : probe_spec(seed, index_of(name));
    std::string why;
    rep.check(farm::results_equivalent(result, farm::run_job_standalone(spec), &why),
              "standalone re-run of " + name + ": " + why);
  }
  rep.note("farm.rerun_checked", static_cast<double>(kept.size()));
  return out;
}

// Sum of a per-worker counter over the pool.
double worker_sum(const obs::MetricsRegistry& m, const std::string& name,
                  std::size_t workers) {
  double s = 0.0;
  for (std::size_t w = 0; w < workers; ++w) {
    s += static_cast<double>(m.counter_value(name, "worker=" + std::to_string(w)));
  }
  return s;
}

// Mean self time per span name: duration minus the union of its
// children's intervals (clipped to the parent).
std::map<std::string, double> span_self_ms(const std::vector<obs::SpanRecord>& spans) {
  // (trace, parent span) → children.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<const obs::SpanRecord*>>
      children;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_span_id != 0) {
      children[{s.trace_id, s.parent_span_id}].push_back(&s);
    }
  }
  std::map<std::string, std::pair<double, std::size_t>> acc;
  for (const obs::SpanRecord& s : spans) {
    std::vector<std::pair<double, double>> iv;
    const auto it = children.find({s.trace_id, s.span_id});
    if (it != children.end()) {
      for (const obs::SpanRecord* c : it->second) {
        const double a = std::max(c->start_us, s.start_us);
        const double b = std::min(c->end_us, s.end_us);
        if (b > a) {
          iv.emplace_back(a, b);
        }
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += std::max(0.0, cur_b - cur_a);
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += std::max(0.0, cur_b - cur_a);
    auto& [sum, n] = acc[s.name];
    sum += (s.end_us - s.start_us - covered) * 1e-3;
    ++n;
  }
  std::map<std::string, double> out;
  for (const auto& [name, sn] : acc) {
    out[name] = sn.first / static_cast<double>(sn.second);
  }
  return out;
}

void emit_layers(const obs::MetricsRegistry& m, const obs::Tracer& tracer,
                 const Session& s, Report& rep) {
  const std::size_t workers = worker_count();
  const double jobs = worker_sum(m, "farm.worker.jobs", workers);
  const double slices = worker_sum(m, "farm.worker.slices", workers);
  const double busy_us = worker_sum(m, "farm.worker.busy_us", workers);
  auto per_job_ms = [&](const char* counter) {
    return jobs > 0 ? worker_sum(m, counter, workers) / jobs * 1e-3 : 0.0;
  };
  const double hits = worker_sum(m, "farm.worker.cache_hits", workers);
  const double misses = worker_sum(m, "farm.worker.cache_misses", workers);
  rep.metric("farm.run_ms", per_job_ms("farm.stage.run_us"), "ms");
  rep.metric("farm.slice_ms", slices > 0 ? busy_us / slices * 1e-3 : 0.0, "ms");
  rep.metric("farm.worker_util",
             busy_us * 1e-6 / (static_cast<double>(workers) * s.wall_s), "ratio");
  rep.metric("farm.queue_wait_ms", per_job_ms("farm.stage.queue_wait_us"), "ms");
  rep.metric("farm.attach_ms", per_job_ms("farm.stage.attach_us"), "ms");
  rep.metric("farm.publish_ms", per_job_ms("farm.stage.publish_us"), "ms");
  rep.metric("farm.engine_cache_hit_frac",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  rep.metric("farm.preemptions_per_job",
             jobs > 0 ? static_cast<double>(m.counter_value("farm.preemptions")) / jobs
                      : 0.0,
             "count");
  rep.metric("net.submit_rtt_us", median(s.rtt_us), "us");
  rep.metric("net.delivery_ms", median(s.delivery_ms), "ms");
  const std::map<std::string, double> self = span_self_ms(tracer.snapshot());
  for (const char* name : kSpans) {
    const auto it = self.find(name);
    rep.check(it != self.end(), std::string("trace has ") + name + " spans");
    rep.metric(std::string("trace.") + name + ".self_ms",
               it == self.end() ? 0.0 : it->second, "ms");
  }
  rep.note("trace.spans", static_cast<double>(tracer.spans_recorded()));
  rep.note("trace.spans_dropped", static_cast<double>(tracer.spans_dropped()));
}

// The service's user-facing figures. Host load moves them by more than a
// bound could absorb, so they are layer metrics (see service_figures in
// perfbench/metric_map.json).
void emit_service(const Session& s, Report& rep) {
  rep.metric("jobs_per_s", s.jobs_per_s, "jobs/s");
  rep.metric("probe_p50_ms", quantile(s.probe_ms, 0.50), "ms");
  rep.metric("probe_p95_ms", quantile(s.probe_ms, 0.95), "ms");
}

void note_service(const Session& s, Report& rep) {
  rep.note("service.jobs_per_s", s.jobs_per_s);
  rep.note("service.probe_p50_ms", quantile(s.probe_ms, 0.50));
  rep.note("service.probe_p95_ms", quantile(s.probe_ms, 0.95));
  rep.note("probe.count", static_cast<double>(s.probe_ms.size()));
  rep.note("probe.sender_late_p50_ms", quantile(s.late_ms, 0.50));
  rep.note("probe.sender_late_p95_ms", quantile(s.late_ms, 0.95));
  rep.note("probe.sender_late_max_ms", quantile(s.late_ms, 1.0));
}

}  // namespace

farm::JobSpec probe_spec(std::uint64_t seed, std::size_t k) {
  farm::JobSpec spec;
  spec.name = "p" + std::to_string(k);
  spec.priority = farm::Priority::kInteractive;
  spec.net.width = 2;
  spec.net.height = 2;
  spec.net.topology = tmsim::noc::Topology::kMesh;
  spec.net.router.queue_depth = 2;
  spec.workload.be_load = 0.10;
  spec.seed = farm::derive_seed(seed, "probe-" + std::to_string(k));
  spec.cycles = 300;
  return spec;
}

ServicePhaseResult run_service_phase(const ServiceWorkload& w,
                                     std::uint64_t seed, double seconds,
                                     bool traced,
                                     const std::string& scratch_dir,
                                     Report& rep) {
  namespace fs = std::filesystem;
  ServicePhaseResult res;
  const std::size_t workers = worker_count();
  // Set-up samples, taken before and after the measured service.
  std::vector<double> setups;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const std::string dir = scratch_dir + "/setup" + std::to_string(setups.size());
      const double t0 = now_s();
      farmd::FarmdServer server(daemon_options(workers, nullptr, nullptr, dir));
      net::FarmClient client(server.port(), "setup");
      setups.push_back(now_s() - t0);
      client.close();
      server.shutdown();
    }
  };
  sample_setup();
  rep.note("farm.workers", static_cast<double>(workers));

  if (!traced) {
    obs::MetricsRegistry metrics;
    note_service(serve(w, seed, seconds, nullptr, metrics, scratch_dir + "/serve", rep),
                 rep);
  } else {
    obs::Tracer tracer(obs::Tracer::Options{.sample_every = 1});
    obs::MetricsRegistry traced_metrics;
    const Session t = serve(w, seed, seconds * kTracedShare, &tracer,
                            traced_metrics, scratch_dir + "/traced", rep);
    obs::MetricsRegistry plain_metrics;
    const Session p = serve(w, seed, seconds * (1.0 - kTracedShare), nullptr,
                            plain_metrics, scratch_dir + "/plain", rep);
    emit_service(p, rep);
    note_service(p, rep);
    emit_layers(traced_metrics, tracer, t, rep);
    rep.note("farm.traced_jobs_per_s", t.jobs_per_s);
    res.overhead_frac = p.jobs_per_s > 0 ? 1.0 - t.jobs_per_s / p.jobs_per_s : 0.0;
  }
  sample_setup();
  res.setup_s = fast_time(setups);
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);
  return res;
}

}  // namespace perfbench

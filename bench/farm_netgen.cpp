// Network load generator for tmsim-farmd (DESIGN.md §16): real separate
// client *processes* — not threads — feed one daemon over TCP, the
// deployment shape the wire protocol exists for. The parent forks the
// clients first (while still single-threaded, so fork is safe), then
// starts an in-process FarmdServer on an ephemeral port and hands the
// port to each child over a pipe. Each child runs a FarmClient:
// subscribe, pipeline every submit (submit_async), then stream results
// on a consumer thread, timestamping submit→result end-to-end latency
// per job. Children report their latency samples back over a pipe; the
// parent aggregates, cross-checks the daemon's net.* ledger (accepted +
// spilled == jobs, zero rejects, zero outbox drops), and emits
// BENCH_farm_netgen.json with sustained submit/result throughput and
// e2e latency quantiles.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "farm/farm.h"
#include "farmd/server.h"
#include "net/client.h"
#include "obs/metrics.h"

namespace {

using tmsim::farm::JobSpec;
using tmsim::farm::Priority;

constexpr std::size_t kDistinct = 64;

JobSpec tiny_job(std::size_t distinct_index) {
  JobSpec spec;
  spec.name = "netgen-" + std::to_string(distinct_index);
  spec.net.width = 2;
  spec.net.height = 2;
  spec.net.topology = tmsim::noc::Topology::kMesh;
  spec.workload.be_load = 0.02 * static_cast<double>(distinct_index % 8);
  spec.priority = static_cast<Priority>(distinct_index % 3);
  spec.seed = 0x4e47 + distinct_index;
  spec.cycles = 60;
  return spec;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// Full-buffer pipe I/O (pipes deliver short reads/writes freely).
bool write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* buf, std::size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Child → parent report header, followed by `jobs` e2e latency doubles.
/// Sized so the whole blob fits a default 64 KiB pipe buffer — the
/// parent may read the children sequentially without deadlock.
struct ChildReport {
  std::uint64_t jobs = 0;
  std::uint64_t spilled = 0;
  std::uint64_t duplicates = 0;
  double submit_wall = 0.0;
  double total_wall = 0.0;
  std::int32_t failed = 0;
};

/// One client process: pipeline all submits, stream every result on a
/// consumer thread, report per-job e2e latency. Never returns.
[[noreturn]] void child_main(std::size_t child_index, std::size_t jobs,
                             int port_fd, int report_fd) {
  using Clock = std::chrono::steady_clock;
  ChildReport rep;
  std::vector<double> e2e;
  try {
    std::uint16_t port = 0;
    if (!read_all(port_fd, &port, sizeof port)) {
      throw std::runtime_error("netgen child: no port from parent");
    }
    ::close(port_fd);

    tmsim::net::FarmClient client(
        port, "netgen-" + std::to_string(child_index));
    client.subscribe();

    // Consumer thread: timestamp every streamed result on arrival.
    std::mutex mu;
    std::map<std::uint64_t, Clock::time_point> t_recv;
    std::atomic<std::uint64_t> received{0};
    std::atomic<bool> submits_done{false};
    std::uint64_t dup = 0;
    std::thread consumer([&] {
      while (true) {
        const auto res = client.next_result(std::chrono::milliseconds(250));
        if (res) {
          std::lock_guard<std::mutex> lock(mu);
          if (t_recv.emplace(res->result.job_id, Clock::now()).second) {
            received.fetch_add(1, std::memory_order_relaxed);
          } else {
            ++dup;  // at-least-once redelivery; harmless, counted
          }
        } else if (submits_done.load(std::memory_order_acquire) &&
                   received.load(std::memory_order_acquire) >= rep.jobs) {
          return;
        }
      }
    });

    const auto t0 = Clock::now();
    std::vector<std::pair<std::uint64_t, Clock::time_point>> reqs;
    reqs.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      const JobSpec spec =
          tiny_job((child_index * 7919 + i) % kDistinct);
      reqs.emplace_back(client.submit_async(spec), Clock::now());
    }
    std::map<std::uint64_t, Clock::time_point> t_submit;
    for (const auto& [req_id, t] : reqs) {
      const auto reply = client.wait_submit_reply(req_id);
      if (!reply.accepted) {
        throw std::runtime_error("netgen child: submit rejected: " +
                                 reply.detail);
      }
      rep.spilled += reply.spilled ? 1 : 0;
      t_submit.emplace(reply.remote_id, t);
    }
    rep.jobs = t_submit.size();
    rep.submit_wall = std::chrono::duration<double>(Clock::now() - t0).count();
    submits_done.store(true, std::memory_order_release);

    consumer.join();
    rep.total_wall = std::chrono::duration<double>(Clock::now() - t0).count();
    rep.duplicates = dup;

    e2e.reserve(rep.jobs);
    for (const auto& [remote_id, t_sub] : t_submit) {
      const auto it = t_recv.find(remote_id);
      if (it == t_recv.end()) {
        throw std::runtime_error("netgen child: job never streamed back");
      }
      e2e.push_back(std::chrono::duration<double>(it->second - t_sub).count());
    }
    client.close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[netgen child %zu] %s\n", child_index, e.what());
    rep.failed = 1;
    rep.jobs = 0;
    e2e.clear();
  }
  write_all(report_fd, &rep, sizeof rep);
  if (!e2e.empty()) {
    write_all(report_fd, e2e.data(), e2e.size() * sizeof(double));
  }
  ::close(report_fd);
  ::_exit(rep.failed ? 1 : 0);
}

}  // namespace

int main() {
  const bool quick = tmsim::bench::quick_mode();
  const std::size_t kClients = quick ? 2 : 3;
  const std::size_t jobs_per_client = quick ? 300 : 2000;
  const std::size_t total_jobs = kClients * jobs_per_client;

  tmsim::bench::print_header(
      "farm_netgen",
      "multi-process ingest: client processes vs one tmsim-farmd socket");
  std::printf("%zu client processes x %zu jobs, memo on, 2 workers\n\n",
              kClients, jobs_per_client);

  const std::string spill_dir = "farmd_netgen_spill";
  std::filesystem::remove_all(spill_dir);

  // Fork every client before the server exists: the parent is still
  // single-threaded here, so fork() cannot duplicate a held lock.
  std::fflush(nullptr);
  struct Child {
    pid_t pid = -1;
    int port_wr = -1;   // parent → child: the daemon's port
    int report_rd = -1; // child → parent: ChildReport + latencies
  };
  std::vector<Child> children(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    int port_pipe[2];
    int report_pipe[2];
    if (::pipe(port_pipe) != 0 || ::pipe(report_pipe) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::close(port_pipe[1]);
      ::close(report_pipe[0]);
      for (std::size_t prev = 0; prev < c; ++prev) {
        ::close(children[prev].port_wr);
        ::close(children[prev].report_rd);
      }
      child_main(c, jobs_per_client, port_pipe[0], report_pipe[1]);
    }
    ::close(port_pipe[0]);
    ::close(report_pipe[1]);
    children[c] = {pid, port_pipe[1], report_pipe[0]};
  }

  tmsim::obs::MetricsRegistry metrics;
  tmsim::farmd::FarmdOptions opt;
  opt.farm.num_workers = 2;
  opt.farm.queue_capacity = 256;  // small enough that bursts spill
  opt.farm.memo_capacity = 2 * kDistinct;
  opt.farm.metrics = &metrics;
  opt.spill_dir = spill_dir;
  opt.outbox_capacity = total_jobs + 64;

  std::vector<ChildReport> reports(kClients);
  std::vector<double> e2e;
  e2e.reserve(total_jobs);
  {
    tmsim::farmd::FarmdServer server(std::move(opt));
    const std::uint16_t port = server.port();
    for (Child& child : children) {
      write_all(child.port_wr, &port, sizeof port);
      ::close(child.port_wr);
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      ChildReport& rep = reports[c];
      if (!read_all(children[c].report_rd, &rep, sizeof rep)) {
        std::fprintf(stderr, "child %zu: report pipe broke\n", c);
        rep.failed = 1;
      }
      std::vector<double> lat(rep.jobs);
      if (rep.jobs > 0 &&
          !read_all(children[c].report_rd, lat.data(),
                    lat.size() * sizeof(double))) {
        std::fprintf(stderr, "child %zu: latency blob truncated\n", c);
        rep.failed = 1;
      }
      ::close(children[c].report_rd);
      e2e.insert(e2e.end(), lat.begin(), lat.end());
    }
    for (const Child& child : children) {
      int status = 0;
      ::waitpid(child.pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "a netgen child failed (status %d)\n", status);
      }
    }
    server.shutdown();
  }
  std::filesystem::remove_all(spill_dir);

  std::uint64_t jobs_ok = 0;
  std::uint64_t spilled_client = 0;
  std::uint64_t duplicates = 0;
  double max_submit_wall = 0.0;
  double max_total_wall = 0.0;
  bool any_failed = false;
  for (const ChildReport& rep : reports) {
    jobs_ok += rep.jobs;
    spilled_client += rep.spilled;
    duplicates += rep.duplicates;
    max_submit_wall = std::max(max_submit_wall, rep.submit_wall);
    max_total_wall = std::max(max_total_wall, rep.total_wall);
    any_failed = any_failed || rep.failed != 0;
  }

  // The daemon's own ledger must agree with the clients' books.
  const auto accepted = metrics.counter_value("net.submits.accepted");
  const auto spilled = metrics.counter_value("net.submits.spilled");
  const auto rejected = metrics.counter_value("net.submits.rejected");
  const auto streamed = metrics.counter_value("net.results.streamed");
  const auto dropped = metrics.counter_value("net.outbox.dropped");
  const bool ledger_ok = !any_failed && jobs_ok == total_jobs &&
                         accepted + spilled == total_jobs && rejected == 0 &&
                         dropped == 0 && streamed >= total_jobs;

  const double submits_per_sec =
      max_submit_wall > 0.0 ? static_cast<double>(jobs_ok) / max_submit_wall
                            : 0.0;
  const double results_per_sec =
      max_total_wall > 0.0 ? static_cast<double>(jobs_ok) / max_total_wall
                           : 0.0;
  const double p50 = quantile(e2e, 0.50);
  const double p99 = quantile(e2e, 0.99);

  std::printf("submitted:   %llu jobs across %zu processes in %.3fs "
              "(%.0f submits/sec over the wire)\n",
              static_cast<unsigned long long>(jobs_ok), kClients,
              max_submit_wall, submits_per_sec);
  std::printf("streamed:    %llu results in %.3fs (%.0f results/sec e2e)\n",
              static_cast<unsigned long long>(streamed), max_total_wall,
              results_per_sec);
  std::printf("e2e latency: p50 %.1fms  p99 %.1fms\n", p50 * 1e3, p99 * 1e3);
  std::printf("daemon:      accepted %llu + spilled %llu, rejected %llu, "
              "outbox drops %llu, dup redeliveries %llu\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(spilled),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(duplicates));
  std::printf("ledger:      %s\n", ledger_ok ? "consistent" : "MISMATCH");

  tmsim::bench::emit_bench_json(
      "farm_netgen",
      {{"clients", std::to_string(kClients)},
       {"jobs_per_client", std::to_string(jobs_per_client)},
       {"distinct_specs", std::to_string(kDistinct)},
       {"queue_capacity", "256"},
       {"workers", "2"},
       {"quick", quick ? "1" : "0"}},
      {{"submits_per_sec", submits_per_sec, "jobs/s"},
       {"results_per_sec", results_per_sec, "jobs/s"},
       {"p50_e2e", p50, "seconds"},
       {"p99_e2e", p99, "seconds"},
       {"jobs", static_cast<double>(jobs_ok), "count"},
       {"clients", static_cast<double>(kClients), "count"},
       {"spilled", static_cast<double>(spilled), "count"},
       {"rejects", static_cast<double>(rejected), "count"},
       {"outbox_dropped", static_cast<double>(dropped), "count"},
       {"ledger_ok", ledger_ok ? 1.0 : 0.0, "bool"}});
  return ledger_ok ? 0 : 1;
}

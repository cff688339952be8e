// The remote differential (DESIGN.md §16): a farm driven through
// tmsim-farmd's wire protocol produces results bit-identical to
// in-process standalone runs — across clean runs, chaos worker kills,
// a client that disconnects and reconnects mid-stream, and a
// queue-capacity-1 farm that admits ten thousand specs through the
// spill segment with zero losses. Runs under TSan via the `net` ctest
// label (tsan preset), which makes the daemon's reader/writer/pump/
// refill locking discipline a checked property.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "farm/farm.h"
#include "farm/session.h"
#include "farmd/server.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tmsim::farmd {
namespace {

using namespace std::chrono_literals;

/// Same family as farm_chaos_test: 2x2..3x3 meshes, 60..200 cycles,
/// mixed BE/GT, ~1 in 4 hosted (some with recoverable fault rates).
farm::JobSpec random_spec(std::uint64_t index) {
  SplitMix64 rng(0xfa4bd5ull + index);
  farm::JobSpec spec;
  spec.name = "remote-" + std::to_string(index);
  spec.net.width = 2 + rng.next_below(2);
  spec.net.height = 2 + rng.next_below(2);
  spec.net.topology = noc::Topology::kMesh;
  spec.net.router.queue_depth = 2 + rng.next_below(2);
  spec.priority = static_cast<farm::Priority>(
      rng.next_below(farm::kNumPriorities));
  spec.seed = rng.next();
  spec.cycles = 60 + rng.next_below(141);
  // Spare draw (the shard count specs once carried), so every later
  // draw, and every other field, is unchanged.
  (void)rng.next_below(2);
  // Three-way draw from when a third scheduler existed; its share now
  // runs the compiled program that replaced it.
  spec.scheduler = rng.next_below(3) == 0 ? core::SchedulerKind::kRoundRobin
                                          : core::SchedulerKind::kCompiled;
  spec.workload.be_load = 0.05 * static_cast<double>(rng.next_below(5));
  spec.max_retries = 2;
  if (rng.next_below(4) == 0) {
    spec.kind = farm::JobKind::kHostedFpga;
    if (rng.next_below(2) == 0) {
      spec.faults.read_flip = 1e-3;
      spec.faults.stuck_busy = 1e-3;
    }
  } else {
    spec.workload.verify_payload = rng.next_below(2) == 0;
  }
  const std::size_t routers = spec.net.width * spec.net.height;
  const std::uint64_t num_gt = rng.next_below(3);
  for (std::uint64_t g = 0; g < num_gt; ++g) {
    traffic::GtStream s;
    s.src = rng.next_below(routers);
    s.dst = (s.src + 1 + rng.next_below(routers - 1)) % routers;
    s.vc = static_cast<unsigned>(g);
    s.period = 40 + 10 * rng.next_below(4);
    s.phase = rng.next_below(20);
    spec.workload.gt_streams.push_back(s);
  }
  return spec;
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = "farmd_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Streams results until `want` distinct remote ids arrived (or the
/// deadline passes). Duplicates (possible across reconnect replays) are
/// collapsed; each id keeps its first-seen result.
void drain_results(net::FarmClient& client, std::size_t want,
                   std::map<std::uint64_t, farm::JobResult>& results,
                   std::chrono::seconds deadline_s = 120s) {
  const auto deadline = std::chrono::steady_clock::now() + deadline_s;
  while (results.size() < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::optional<net::ResultMsg> msg = client.next_result(200ms);
    if (!msg.has_value()) {
      continue;
    }
    EXPECT_EQ(msg->result.job_id, msg->remote_id)
        << "results must carry the client-visible id";
    results.emplace(msg->remote_id, std::move(msg->result));
  }
}

TEST(FarmdRemote, HundredSpecDifferentialIsBitIdenticalOverTheSocket) {
  constexpr std::size_t kSpecs = 100;
  std::vector<farm::JobSpec> specs;
  specs.reserve(kSpecs);
  for (std::size_t i = 0; i < kSpecs; ++i) {
    specs.push_back(random_spec(i));
    ASSERT_NO_THROW(specs.back().validate()) << specs.back().serialize();
  }
  // The in-process truth: every spec, undisturbed, on this thread.
  std::vector<farm::JobResult> standalone;
  standalone.reserve(kSpecs);
  for (const farm::JobSpec& spec : specs) {
    standalone.push_back(farm::run_job_standalone(spec));
    ASSERT_EQ(standalone.back().status, farm::JobStatus::kDone)
        << spec.name << ": " << standalone.back().error;
  }

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  FarmdOptions opt;
  opt.spill_dir = scratch_dir("differential");
  opt.farm.num_workers = 2;
  opt.farm.queue_capacity = 16;  // small on purpose: some specs spill
  opt.farm.metrics = &metrics;
  opt.farm.tracer = &tracer;
  FarmdServer server(opt);

  net::FarmClient client(server.port(), "differential-client");
  EXPECT_FALSE(client.resumed_session());
  client.subscribe();

  // Pipelined submits with a client-side trace context on every spec:
  // the wire must carry it and the server must link it.
  std::map<std::uint64_t, std::size_t> remote_to_spec;
  std::vector<std::uint64_t> reqs;
  reqs.reserve(kSpecs);
  for (const farm::JobSpec& spec : specs) {
    obs::TraceContext ctx;
    ctx.trace_id = 0x1000 + reqs.size();
    ctx.span_id = 0x2000 + reqs.size();
    reqs.push_back(client.submit_async(spec, &ctx));
  }
  std::size_t spilled = 0;
  for (std::size_t i = 0; i < kSpecs; ++i) {
    const net::SubmitReplyMsg reply = client.wait_submit_reply(reqs[i]);
    ASSERT_TRUE(reply.accepted) << specs[i].name << ": " << reply.detail;
    ASSERT_NE(reply.remote_id, 0u);
    // Remote submissions are always sampled, so directly-admitted specs
    // report their server trace id in the reply. Spilled specs get
    // theirs at readmit time — the reply can only say 0.
    if (!reply.spilled) {
      EXPECT_NE(reply.server_trace_id, 0u) << specs[i].name;
    }
    spilled += reply.spilled;
    remote_to_spec.emplace(reply.remote_id, i);
  }
  ASSERT_EQ(remote_to_spec.size(), kSpecs);

  std::map<std::uint64_t, farm::JobResult> results;
  drain_results(client, kSpecs, results);
  ASSERT_EQ(results.size(), kSpecs) << "jobs left behind over the wire";
  for (const auto& [remote_id, result] : results) {
    const std::size_t i = remote_to_spec.at(remote_id);
    ASSERT_EQ(result.status, farm::JobStatus::kDone)
        << specs[i].name << ": " << result.error;
    std::string why;
    EXPECT_TRUE(farm::results_equivalent(standalone[i], result, &why))
        << specs[i].name << ": " << why << "\n" << specs[i].serialize();
  }

  // The daemon's ingress state rides on the same introspection snapshot
  // as the farm internals.
  const std::string snapshot = client.introspect();
  EXPECT_NE(snapshot.find("\"net\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"differential-client\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"spill\""), std::string::npos);

  client.close();
  server.shutdown();

  // The wire carried the client trace context: every submit span links
  // back to the client-side ids the SubmitMsg carried.
  std::ostringstream os;
  tracer.write_jsonl(os);
  EXPECT_NE(os.str().find("link.client_trace"), std::string::npos);
  EXPECT_EQ(metrics.counter_value("net.submits.accepted") +
                metrics.counter_value("net.submits.spilled"),
            kSpecs);
  EXPECT_EQ(metrics.counter_value("net.results.streamed"), kSpecs);
  EXPECT_EQ(metrics.counter_value("net.spill.readmitted"),
            metrics.counter_value("net.submits.spilled"));
  // queue_capacity 16 with 100 pipelined submits: the spill path really
  // ran in this differential.
  EXPECT_GT(spilled, 0u);
}

TEST(FarmdRemote, ChaosWorkerKillsStayBitIdenticalOverTheWire) {
  constexpr std::size_t kSpecs = 40;
  std::vector<farm::JobSpec> specs;
  std::vector<farm::JobResult> standalone;
  for (std::size_t i = 0; i < kSpecs; ++i) {
    specs.push_back(random_spec(1000 + i));
    standalone.push_back(farm::run_job_standalone(specs.back()));
    ASSERT_EQ(standalone.back().status, farm::JobStatus::kDone);
  }

  // Kill a worker once per victim job (graceful and hard flavors, keyed
  // by farm job id) — the supervisor reclaims/respawns, and the results
  // that cross the socket must still be bit-identical.
  std::vector<std::atomic<bool>> tripped(4 * kSpecs + 1);
  FarmdOptions opt;
  opt.spill_dir = scratch_dir("chaos");
  opt.farm.num_workers = 2;
  opt.farm.queue_capacity = kSpecs;
  opt.farm.preempt_quantum = 24;
  opt.farm.supervisor_interval_ms = 2.0;
  opt.farm.chaos = [&](const farm::ChaosEvent& ev) {
    if (ev.job_id % 3 == 0 && ev.slice == 1 &&
        ev.job_id < tripped.size() && !tripped[ev.job_id].exchange(true)) {
      return ev.job_id % 2 == 0 ? farm::ChaosAction::kKillWorker
                                : farm::ChaosAction::kKillWorkerLoseSession;
    }
    return farm::ChaosAction::kNone;
  };
  FarmdServer server(opt);

  net::FarmClient client(server.port(), "chaos-client");
  client.subscribe();
  std::map<std::uint64_t, std::size_t> remote_to_spec;
  for (std::size_t i = 0; i < kSpecs; ++i) {
    const net::SubmitReplyMsg reply = client.submit(specs[i]);
    ASSERT_TRUE(reply.accepted) << reply.detail;
    remote_to_spec.emplace(reply.remote_id, i);
  }
  std::map<std::uint64_t, farm::JobResult> results;
  drain_results(client, kSpecs, results);
  ASSERT_EQ(results.size(), kSpecs);
  for (const auto& [remote_id, result] : results) {
    const std::size_t i = remote_to_spec.at(remote_id);
    ASSERT_EQ(result.status, farm::JobStatus::kDone)
        << specs[i].name << ": " << result.error;
    std::string why;
    EXPECT_TRUE(farm::results_equivalent(standalone[i], result, &why))
        << specs[i].name << ": " << why;
  }
  EXPECT_GT(server.farm().jobs_reclaimed(), 0u)
      << "the chaos quietly stopped killing workers";
  client.close();
  server.shutdown();
}

TEST(FarmdRemote, DisconnectReconnectResumesStreamWithFetchFallback) {
  constexpr std::size_t kSpecs = 30;
  FarmdOptions opt;
  opt.spill_dir = scratch_dir("reconnect");
  opt.farm.num_workers = 2;
  opt.farm.queue_capacity = kSpecs;
  FarmdServer server(opt);

  std::set<std::uint64_t> submitted;
  std::map<std::uint64_t, farm::JobResult> merged;
  {
    net::FarmClient first(server.port(), "flaky-client");
    EXPECT_FALSE(first.resumed_session());
    first.subscribe();
    for (std::size_t i = 0; i < kSpecs; ++i) {
      const net::SubmitReplyMsg reply = first.submit(random_spec(2000 + i));
      ASSERT_TRUE(reply.accepted) << reply.detail;
      submitted.insert(reply.remote_id);
    }
    // Take delivery of part of the stream, then vanish mid-stream.
    drain_results(first, kSpecs / 3, merged);
    EXPECT_GE(merged.size(), kSpecs / 3);
    first.close();
  }

  // Same name, new connection: the session resumes — the server kept
  // the undelivered outbox and streams the rest to the new socket.
  net::FarmClient second(server.port(), "flaky-client");
  EXPECT_TRUE(second.resumed_session());
  second.subscribe();
  drain_results(second, kSpecs, merged, 60s);

  // Results already inside the dead socket's buffers are gone from the
  // *stream* — that's the documented disconnect loss model — but never
  // from the server: Fetch recovers them.
  for (const std::uint64_t id : submitted) {
    if (merged.count(id) != 0) {
      continue;
    }
    const net::FetchReplyMsg reply = second.fetch(id);
    ASSERT_EQ(reply.state,
              static_cast<std::uint8_t>(net::RemoteJobState::kTerminal))
        << "job " << id << " unrecoverable after reconnect";
    ASSERT_TRUE(reply.result.has_value());
    EXPECT_EQ(reply.result->job_id, id);
    merged.emplace(id, *reply.result);
  }
  ASSERT_EQ(merged.size(), kSpecs);
  for (const auto& [id, result] : merged) {
    EXPECT_EQ(result.status, farm::JobStatus::kDone) << result.error;
  }
  second.close();
  server.shutdown();
}

TEST(FarmdRemote, CapacityOneQueueAdmitsTenThousandSpecsThroughSpill) {
  // The headline spill guarantee: a farm whose admission queue holds
  // ONE fresh job still admits 10k pipelined remote submissions — the
  // segment file is the queue — and every single one resolves and
  // streams back. Zero losses, zero rejects.
  constexpr std::size_t kJobs = 10'000;
  constexpr std::size_t kDistinct = 32;

  obs::MetricsRegistry metrics;
  FarmdOptions opt;
  opt.spill_dir = scratch_dir("tenk");
  opt.outbox_capacity = kJobs + 64;
  opt.farm.num_workers = 2;
  opt.farm.queue_capacity = 1;
  opt.farm.memo_capacity = kDistinct * 2;  // repeats served from the memo
  opt.farm.completion_feed_depth = 4096;
  opt.farm.metrics = &metrics;
  FarmdServer server(opt);

  // A small family of tiny specs, cycled: the farm memoizes the repeats
  // so the test measures the admission/spill/stream machinery, not 10k
  // simulations.
  std::vector<farm::JobSpec> family;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    farm::JobSpec spec;
    spec.name = "tiny-" + std::to_string(i);
    spec.net.width = 2;
    spec.net.height = 2;
    spec.net.topology = noc::Topology::kMesh;
    spec.seed = 0x5eed + i;
    spec.cycles = 40;
    spec.workload.be_load = 0.1;
    family.push_back(spec);
  }

  net::FarmClient client(server.port(), "firehose");
  client.subscribe();
  std::vector<std::uint64_t> reqs;
  reqs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    reqs.push_back(client.submit_async(family[i % kDistinct]));
  }
  std::set<std::uint64_t> remote_ids;
  std::size_t spilled = 0;
  for (const std::uint64_t req : reqs) {
    const net::SubmitReplyMsg reply = client.wait_submit_reply(req);
    ASSERT_TRUE(reply.accepted) << reply.detail;
    spilled += reply.spilled;
    remote_ids.insert(reply.remote_id);
  }
  ASSERT_EQ(remote_ids.size(), kJobs) << "remote ids must be distinct";
  EXPECT_GT(spilled, kJobs / 2) << "capacity 1 must push the bulk to disk";

  std::map<std::uint64_t, farm::JobResult> results;
  drain_results(client, kJobs, results, 300s);
  ASSERT_EQ(results.size(), kJobs) << "spilled specs were lost";
  for (const auto& [id, result] : results) {
    ASSERT_NE(remote_ids.count(id), 0u);
    ASSERT_EQ(result.status, farm::JobStatus::kDone) << result.error;
  }
  client.close();
  server.shutdown();

  // The ledger: everything admitted (direct or via disk), nothing
  // rejected, nothing dropped from the outbox, the spill fully drained.
  EXPECT_EQ(metrics.counter_value("net.submits.accepted") +
                metrics.counter_value("net.submits.spilled"),
            kJobs);
  EXPECT_EQ(metrics.counter_value("net.submits.rejected"), 0u);
  EXPECT_EQ(metrics.counter_value("net.results.streamed"), kJobs);
  EXPECT_EQ(metrics.counter_value("net.outbox.dropped"), 0u);
  EXPECT_EQ(metrics.counter_value("net.spill.readmitted"),
            metrics.counter_value("net.submits.spilled"));
  EXPECT_TRUE(server.spill().empty());
}

TEST(FarmdRemote, RestartRecoveryReadmitsSpilledRecordsToTheirClient) {
  // A daemon that dies with spilled-but-unadmitted records must, on
  // restart, (a) run them and route their results to the client name
  // each record stores, and (b) never hand a recovered remote id to a
  // fresh submission — a collision would rewire the new job's result
  // to the recovered one's farm id. Simulate the crashed run by
  // writing records through SpillQueue directly into the daemon's
  // spill dir (graceful shutdown always drains, so only a crash leaves
  // records behind).
  const std::string dir = scratch_dir("restart");
  constexpr std::size_t kRecovered = 6;
  std::vector<farm::JobSpec> specs;
  std::vector<farm::JobResult> standalone;
  std::map<std::uint64_t, std::size_t> recovered_to_spec;
  std::uint64_t max_recovered = 0;
  {
    SpillQueue crashed(dir);
    for (std::size_t i = 0; i < kRecovered; ++i) {
      specs.push_back(random_spec(5000 + i));
      standalone.push_back(farm::run_job_standalone(specs.back()));
      ASSERT_EQ(standalone.back().status, farm::JobStatus::kDone);
      SpillRecord rec;
      rec.remote_id = 40 + 3 * i;  // the previous run's id space
      rec.client = "phoenix";
      rec.spec_text = specs.back().serialize();
      crashed.append(specs.back().priority, rec);
      recovered_to_spec.emplace(rec.remote_id, i);
      max_recovered = std::max(max_recovered, rec.remote_id);
    }
  }  // "crash": the records stay on disk

  obs::MetricsRegistry metrics;
  FarmdOptions opt;
  opt.spill_dir = dir;  // NOT scratched again: this is the restart
  opt.farm.num_workers = 2;
  opt.farm.queue_capacity = 16;
  opt.farm.metrics = &metrics;
  FarmdServer server(opt);

  net::FarmClient client(server.port(), "phoenix");
  client.subscribe();

  // Fresh remote ids are seeded above the recovered ones.
  const farm::JobSpec fresh_spec = random_spec(5100);
  const farm::JobResult fresh_standalone =
      farm::run_job_standalone(fresh_spec);
  const net::SubmitReplyMsg fresh = client.submit(fresh_spec);
  ASSERT_TRUE(fresh.accepted) << fresh.detail;
  EXPECT_GT(fresh.remote_id, max_recovered)
      << "a fresh submission collided with the recovered id space";

  std::map<std::uint64_t, farm::JobResult> results;
  drain_results(client, kRecovered + 1, results);
  ASSERT_EQ(results.size(), kRecovered + 1) << "recovered jobs were lost";
  for (const auto& [remote_id, i] : recovered_to_spec) {
    ASSERT_NE(results.count(remote_id), 0u)
        << "recovered job " << remote_id << " never streamed";
    const farm::JobResult& result = results.at(remote_id);
    ASSERT_EQ(result.status, farm::JobStatus::kDone)
        << specs[i].name << ": " << result.error;
    std::string why;
    EXPECT_TRUE(farm::results_equivalent(standalone[i], result, &why))
        << specs[i].name << ": " << why;
  }
  ASSERT_NE(results.count(fresh.remote_id), 0u);
  std::string why;
  EXPECT_TRUE(
      farm::results_equivalent(fresh_standalone, results.at(fresh.remote_id),
                               &why))
      << why;
  // At least the recovered records went through readmit (the fresh
  // submit may also have spilled behind them, per FIFO-through-spill).
  EXPECT_GE(metrics.counter_value("net.spill.readmitted"), kRecovered);
  client.close();
  server.shutdown();
  EXPECT_TRUE(server.spill().empty());
}

TEST(FarmdRemote, RecoveredRecordsThisDaemonCannotRunFailToTheirClient) {
  // Spill segments outlive the daemon that wrote them, and an older
  // daemon decoded and admitted specs this one does not: a `two_phase`
  // policy token (still decoded: results do not depend on the schedule),
  // a `static` one (never admitted, no longer decodes), a BE packet with
  // no payload (admitted, then failed on a worker), and the deleted
  // worklist scheduler (decoded as compiled, and run). Each record must
  // end in exactly one terminal result for its client — never a dead
  // daemon, never a job that hangs without a result.
  const std::string dir = scratch_dir("refused");
  farm::JobSpec base;
  base.name = "legacy";
  base.net.width = 3;
  base.net.height = 3;
  base.workload.be_load = 0.1;
  base.cycles = 40;
  const farm::JobResult base_standalone = farm::run_job_standalone(base);
  ASSERT_EQ(base_standalone.status, farm::JobStatus::kDone);
  farm::JobSpec payloadless = base;
  payloadless.workload.be_bytes = 0;
  farm::JobSpec compiled = base;
  compiled.scheduler = core::SchedulerKind::kCompiled;
  std::string worklist = compiled.serialize();
  const std::string token = "scheduler=compiled";
  worklist.replace(worklist.find(token), token.size(), "scheduler=worklist");
  const std::map<std::uint64_t, std::string> legacy = {
      {10, base.serialize() + " policy=two_phase"},
      {11, base.serialize() + " policy=static"},
      {12, payloadless.serialize()},
      {13, worklist},
  };
  {
    SpillQueue crashed(dir);
    for (const auto& [remote_id, text] : legacy) {
      SpillRecord rec;
      rec.remote_id = remote_id;
      rec.client = "legacy-client";
      rec.spec_text = text;
      crashed.append(base.priority, rec);
    }
  }  // "crash": the records stay on disk

  obs::MetricsRegistry metrics;
  FarmdOptions opt;
  opt.spill_dir = dir;
  opt.farm.num_workers = 1;
  opt.farm.metrics = &metrics;
  FarmdServer server(opt);
  net::FarmClient client(server.port(), "legacy-client");
  client.subscribe();

  std::map<std::uint64_t, farm::JobResult> results;
  drain_results(client, legacy.size(), results);
  ASSERT_EQ(results.size(), legacy.size());
  std::string why;
  EXPECT_TRUE(farm::results_equivalent(base_standalone, results.at(10), &why))
      << why;
  ASSERT_EQ(results.at(13).status, farm::JobStatus::kDone)
      << results.at(13).error;
  EXPECT_TRUE(farm::results_equivalent(farm::run_job_standalone(compiled),
                                       results.at(13), &why))
      << why;
  for (const std::uint64_t refused : {11u, 12u}) {
    const farm::JobResult& r = results.at(refused);
    EXPECT_EQ(r.status, farm::JobStatus::kFailed) << refused;
    EXPECT_FALSE(r.error.empty()) << refused;
    EXPECT_EQ(r.failure.replay, legacy.at(refused));
    const net::FetchReplyMsg f = client.fetch(refused);
    EXPECT_EQ(f.state,
              static_cast<std::uint8_t>(net::RemoteJobState::kTerminal));
    ASSERT_TRUE(f.result.has_value());
    EXPECT_EQ(f.result->error, r.error);
  }
  EXPECT_EQ(metrics.counter_value("net.spill.refused"), 2u);

  // And the daemon serves on.
  const net::SubmitReplyMsg next = client.submit(base);
  ASSERT_TRUE(next.accepted) << next.detail;
  drain_results(client, legacy.size() + 1, results);
  ASSERT_EQ(results.count(next.remote_id), 1u);
  EXPECT_EQ(results.at(next.remote_id).status, farm::JobStatus::kDone);
  client.close();
  server.shutdown();
  EXPECT_TRUE(server.spill().empty());
}

TEST(FarmdRemote, ZeroGtPeriodIsRejectedAndTheDaemonServesOn) {
  // fig1_gt staggers stream phases modulo gt_period; a zero period used
  // to divide by zero inside admission and kill the daemon.
  FarmdOptions opt;
  opt.spill_dir = scratch_dir("zero_period");
  opt.farm.num_workers = 1;
  FarmdServer server(opt);
  net::FarmClient client(server.port(), "hostile-client");

  farm::JobSpec hostile;
  hostile.name = "zero-period";
  hostile.workload.fig1_gt = true;
  hostile.workload.gt_period = 0;
  hostile.cycles = 10;
  const net::SubmitReplyMsg bad = client.submit(hostile);
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.reason,
            static_cast<std::uint8_t>(farm::RejectReason::kInvalidSpec));
  EXPECT_FALSE(bad.detail.empty());

  farm::JobSpec next;
  next.name = "after-reject";
  next.net.width = 3;
  next.net.height = 3;
  next.workload.be_load = 0.1;
  next.cycles = 40;
  const net::SubmitReplyMsg ok = client.submit(next);
  ASSERT_TRUE(ok.accepted);
  for (;;) {
    const net::FetchReplyMsg f = client.fetch(ok.remote_id);
    if (f.state == static_cast<std::uint8_t>(net::RemoteJobState::kTerminal)) {
      ASSERT_TRUE(f.result.has_value());
      EXPECT_EQ(f.result->status, farm::JobStatus::kDone);
      EXPECT_EQ(f.result->state_digest,
                farm::run_job_standalone(next).state_digest);
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  client.close();
}

TEST(FarmdRemote, RejectsBackpressureAndProtocolErrors) {
  FarmdOptions opt;
  opt.spill_dir = scratch_dir("errors");
  opt.farm.num_workers = 1;
  opt.farm.queue_capacity = 4;
  opt.farm.max_job_cycles = 1000;
  FarmdServer server(opt);

  net::FarmClient client(server.port(), "edge-client");

  // Invalid spec: passes client-side serialization, fails server-side
  // validate() — a structured reject, not a dropped connection.
  farm::JobSpec invalid;
  invalid.name = "zero-mesh";
  invalid.net.width = 0;
  invalid.net.height = 0;
  invalid.cycles = 10;
  const net::SubmitReplyMsg bad = client.submit(invalid);
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.reason,
            static_cast<std::uint8_t>(farm::RejectReason::kInvalidSpec));
  EXPECT_FALSE(bad.detail.empty());

  // Too-large cycle budget: rejected before it can ever reach the spill
  // segment (durably accepting it would be a lie).
  farm::JobSpec huge = random_spec(3000);
  huge.cycles = 2000;
  const net::SubmitReplyMsg big = client.submit(huge);
  EXPECT_FALSE(big.accepted);
  EXPECT_EQ(big.reason,
            static_cast<std::uint8_t>(farm::RejectReason::kTooLarge));

  // Unknown-job semantics.
  EXPECT_EQ(client.cancel(999999).outcome,
            static_cast<std::uint8_t>(farm::CancelResult::kUnknownJob));
  EXPECT_EQ(client.fetch(999999).state,
            static_cast<std::uint8_t>(net::RemoteJobState::kUnknown));

  // A valid submit still works on the same connection after rejects,
  // and Fetch polls it to terminal without a subscription.
  const net::SubmitReplyMsg ok = client.submit(random_spec(3001));
  ASSERT_TRUE(ok.accepted);
  for (;;) {
    const net::FetchReplyMsg f = client.fetch(ok.remote_id);
    if (f.state == static_cast<std::uint8_t>(net::RemoteJobState::kTerminal)) {
      ASSERT_TRUE(f.result.has_value());
      EXPECT_EQ(f.result->job_id, ok.remote_id);
      EXPECT_EQ(f.result->status, farm::JobStatus::kDone);
      break;
    }
    ASSERT_TRUE(
        f.state == static_cast<std::uint8_t>(net::RemoteJobState::kQueued) ||
        f.state == static_cast<std::uint8_t>(net::RemoteJobState::kSpilled));
    std::this_thread::sleep_for(1ms);
  }

  client.close();

  // Protocol gate on a raw socket: the first frame must be Hello.
  net::Socket raw = net::Socket::connect_local(server.port());
  net::SubscribeMsg sub;
  sub.req_id = 1;
  raw.send_frame(net::FrameType::kSubscribe, sub.encode());
  std::optional<net::Frame> reply = raw.recv_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, net::FrameType::kError);
  const net::ErrorMsg err = net::ErrorMsg::decode(reply->payload);
  EXPECT_EQ(err.code, static_cast<std::uint8_t>(net::WireErrorCode::kProtocol));
  raw.close();

  // A corrupt frame (bad CRC) kills the connection server-side: the
  // next read sees EOF, and the server survives to serve others.
  net::Socket raw2 = net::Socket::connect_local(server.port());
  net::HelloMsg hello;
  hello.client_name = "corrupt";
  raw2.send_frame(net::FrameType::kHello, hello.encode());
  ASSERT_TRUE(raw2.recv_frame().has_value());  // HelloAck
  std::vector<std::uint8_t> frame =
      net::encode_frame(net::FrameType::kIntrospect,
                        net::IntrospectMsg{7}.encode());
  frame[frame.size() - 1] ^= 0xff;  // break the CRC
  raw2.send_all(frame.data(), frame.size());
  EXPECT_FALSE(raw2.recv_frame().has_value());  // server hung up
  raw2.close();

  net::FarmClient survivor(server.port(), "survivor");
  EXPECT_NE(survivor.introspect().find("\"net\""), std::string::npos);
  survivor.close();
  server.shutdown();
}

}  // namespace
}  // namespace tmsim::farmd

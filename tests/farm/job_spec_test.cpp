// JobSpec contract tests: canonical serialization round-trips exactly,
// fingerprints identify the request (and nothing else), malformed text
// never enters the queue, and derive_seed keeps every random consumer on
// its own stream.
#include "farm/job_spec.h"

#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "farm/farm.h"
#include "farm/session.h"

namespace tmsim::farm {
namespace {

JobSpec rich_spec() {
  JobSpec spec;
  spec.name = "rt.job-1_x";
  spec.kind = JobKind::kHostedFpga;
  spec.priority = Priority::kBatch;
  spec.net.width = 5;
  spec.net.height = 3;
  spec.net.topology = noc::Topology::kMesh;
  spec.net.router.num_vcs = 4;
  spec.net.router.queue_depth = 3;
  spec.workload.be_load = 0.12345678901234567;
  spec.workload.be_vcs = {3};
  spec.workload.be_bytes = 18;
  traffic::GtStream s;
  s.src = 1;
  s.dst = 7;
  s.vc = 0;
  s.period = 640;
  s.phase = 3;
  s.bytes = 256;
  spec.workload.gt_streams.push_back(s);
  spec.workload.stop_on_overload = false;
  spec.workload.overload_threshold = 4096;
  spec.scheduler = core::SchedulerKind::kCompiled;
  spec.seed = 0xdeadbeefcafeull;
  spec.cycles = 4242;
  spec.faults.read_flip = 0.25;
  spec.faults.stuck_busy = 0.125;
  spec.faults.stuck_busy_reads = 5;
  return spec;
}

TEST(JobSpec, SerializeRoundTripsExactly) {
  const JobSpec spec = rich_spec();
  const JobSpec back = JobSpec::deserialize(spec.serialize());
  EXPECT_EQ(back, spec);
  // And the round-trip is a fixed point of serialization itself.
  EXPECT_EQ(back.serialize(), spec.serialize());
}

TEST(JobSpec, DefaultSpecRoundTrips) {
  const JobSpec spec;
  EXPECT_EQ(JobSpec::deserialize(spec.serialize()), spec);
}

TEST(JobSpec, FingerprintIsStableAndSensitive) {
  const JobSpec a = rich_spec();
  JobSpec b = rich_spec();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Identity survives a serialization round trip — queue, log, resubmit.
  EXPECT_EQ(JobSpec::deserialize(a.serialize()).fingerprint(),
            a.fingerprint());
  // Any field change moves the fingerprint.
  b.seed ^= 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = rich_spec();
  b.workload.be_load += 1e-9;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = rich_spec();
  b.priority = Priority::kInteractive;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(JobSpec, FormatVersionLeadsTheSerializedFormAndGates) {
  // The stable form is self-versioned: `v=<kSpecFormatVersion>` is the
  // first token, so a decoder can gate before parsing anything else.
  const JobSpec spec = rich_spec();
  const std::string text = spec.serialize();
  EXPECT_EQ(text.rfind("v=" + std::to_string(kSpecFormatVersion), 0), 0u)
      << text;
  EXPECT_EQ(JobSpec::deserialize(text), spec);

  // A missing `v` token is the pre-versioning format — version 1, still
  // accepted (old queue dumps and replay tuples keep working).
  JobSpec named;
  named.name = "legacy";
  const std::string legacy = "name=legacy";
  EXPECT_EQ(JobSpec::deserialize(legacy).name, named.name);

  // Any other version is rejected outright — never half-parsed.
  EXPECT_THROW(JobSpec::deserialize("v=2 name=future"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("v=0 name=ancient"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("v=junk name=x"), std::exception);
}

TEST(JobSpec, DeserializeFuzzNeverCrashes) {
  // Deterministic mutation fuzz over the serialized form: any corrupted
  // spec text either round-trips to a valid spec or throws — the parser
  // must never crash or accept garbage silently.
  const std::string good = rich_spec().serialize();
  SplitMix64 rng(0x5bec);
  int threw = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string bad = good;
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t off = rng.next_below(bad.size());
      bad[off] = static_cast<char>(32 + rng.next_below(95));
    }
    try {
      const JobSpec parsed = JobSpec::deserialize(bad);
      // If it parsed, its canonical form must itself round-trip.
      EXPECT_EQ(JobSpec::deserialize(parsed.serialize()), parsed);
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0) << "the fuzz stopped fuzzing";
}

TEST(JobSpec, DeserializeRejectsUnknownKeysAndGarbage) {
  EXPECT_THROW(JobSpec::deserialize("bogus_key=1"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("cycles=12junk"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("be_load=notanumber"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("kind=3"), std::exception);
}

TEST(JobSpec, ValidateCatchesUnsatisfiableSpecs) {
  {
    JobSpec s;
    s.name = "spaces are bad";
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;
    s.cycles = 0;
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;  // fig1_gt and explicit streams are mutually exclusive
    s.workload.fig1_gt = true;
    s.workload.gt_streams.resize(1);
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;  // the hosted stack has no warmup support
    s.kind = JobKind::kHostedFpga;
    s.workload.warmup_cycles = 10;
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;  // fault injection needs the bus — core jobs have none
    s.faults.read_flip = 0.1;
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;
    s.workload.be_load = 1.5;
    EXPECT_THROW(s.validate(), std::exception);
  }
  EXPECT_NO_THROW(rich_spec().validate());
  EXPECT_NO_THROW(JobSpec{}.validate());
}

TEST(JobSpec, DecodeRejectsSchedulePoliciesTheStackCannotRun) {
  // Every job runs the NoC, whose router links are combinational, so the
  // dynamic schedule is the only one. The policy token is no longer
  // emitted, but spill segments written before it was dropped still carry
  // every value an older daemon admitted — `dynamic`, and `two_phase` for
  // core jobs — and must decode to the same spec, since results do not
  // depend on the schedule. `static` was never admitted.
  const JobSpec spec = rich_spec();
  const std::string text = spec.serialize();
  EXPECT_EQ(text.find("policy="), std::string::npos) << text;
  EXPECT_EQ(JobSpec::deserialize(text + " policy=dynamic"), spec);
  EXPECT_EQ(JobSpec::deserialize(text + " policy=two_phase"), spec);
  for (const char* policy : {"static", "bogus"}) {
    try {
      JobSpec::deserialize(text + " policy=" + policy);
      ADD_FAILURE() << "policy=" << policy << " accepted";
    } catch (const ContextualError& e) {
      EXPECT_EQ(e.context_value("policy"), policy);
    }
  }
}

/// The context value `key` of the ContextualError validate() throws, or
/// "accepted" when it does not throw.
std::string rejected_field(const JobSpec& s, const std::string& key) {
  try {
    s.validate();
  } catch (const ContextualError& e) {
    return e.context_value(key);
  }
  return "accepted";
}

TEST(JobSpec, ValidateRejectsZeroFig1GtPeriod) {
  // fig1_gt staggers stream phases modulo the period; a zero period used
  // to be a division by zero inside validate() itself.
  JobSpec s;
  s.workload.fig1_gt = true;
  s.workload.gt_period = 0;
  EXPECT_THROW(s.validate(), Error);
  s.workload.gt_period = 1;
  EXPECT_NO_THROW(s.validate());
}

TEST(JobSpec, DecodeAcceptsLegacyPartitionTokens) {
  // The sharded engine has one partitioner, so the partition token is no
  // longer emitted. Spill segments written before that carry one of the
  // three policies an older daemon offered; the partition never changed
  // results, so each decodes to the same spec. Unknown values still throw.
  const JobSpec spec = rich_spec();
  const std::string text = spec.serialize();
  EXPECT_EQ(text.find("partition="), std::string::npos) << text;
  for (const char* partition : {"round_robin", "contiguous", "min_cut"}) {
    EXPECT_EQ(JobSpec::deserialize(text + " partition=" + partition), spec)
        << partition;
  }
  for (const char* partition : {"min_cut_greedy", "stripes", ""}) {
    try {
      JobSpec::deserialize(text + " partition=" + partition);
      ADD_FAILURE() << "partition=" << partition << " accepted";
    } catch (const ContextualError& e) {
      EXPECT_EQ(e.context_value("partition"), partition);
    }
  }
}

TEST(JobSpec, DecodeMapsTheLegacyWorklistSchedulerToCompiled) {
  // The worklist scheduler is gone; the gated compiled program runs in
  // its place. Older clients and spill segments still name it, so the
  // token decodes to compiled, the same spec with the same fingerprint,
  // and encodes back as `scheduler=compiled`.
  const JobSpec spec = rich_spec();
  ASSERT_EQ(spec.scheduler, core::SchedulerKind::kCompiled);
  const std::string text = spec.serialize();
  EXPECT_NE(text.find(" scheduler=compiled"), std::string::npos) << text;
  EXPECT_EQ(text.find("worklist"), std::string::npos) << text;
  std::string legacy = text;
  legacy.replace(legacy.find("scheduler=compiled"),
                 std::string("scheduler=compiled").size(),
                 "scheduler=worklist");
  const JobSpec back = JobSpec::deserialize(legacy);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.fingerprint(), spec.fingerprint());
  EXPECT_EQ(back.serialize(), text);
  EXPECT_THROW(JobSpec::deserialize(text + " scheduler=event"),
               ContextualError);
}

TEST(JobSpec, DecodeIgnoresLegacyShardAndEngineSeedTokens) {
  // Every job runs one shard under a derived schedule seed, so neither
  // token is emitted any more. Older clients and spill segments still
  // carry them, with any u64 value; each decodes to the same spec, with
  // the same fingerprint. A value that is not a u64 is still refused.
  const JobSpec spec = rich_spec();
  const std::string text = spec.serialize();
  EXPECT_EQ(text.find("shards="), std::string::npos) << text;
  EXPECT_EQ(text.find("engine_seed="), std::string::npos) << text;
  for (const char* token : {"shards=0", "shards=1", "shards=256",
                            "shards=4294967296", "engine_seed=9",
                            "engine_seed=18446744073709551615"}) {
    const JobSpec back = JobSpec::deserialize(text + " " + token);
    EXPECT_EQ(back, spec) << token;
    EXPECT_EQ(back.fingerprint(), spec.fingerprint()) << token;
  }
  for (const char* token :
       {"shards=four", "shards=", "shards=4x", "engine_seed=0x9"}) {
    EXPECT_THROW(JobSpec::deserialize(text + " " + token), Error) << token;
  }
}

TEST(JobSpec, EngineCacheKeyIgnoresLegacyShardCounts) {
  // A shard count on the wire once reached the engine-cache key, so
  // identical engines got separate cache entries and never batched.
  const std::string base = "v=1 width=2 height=2";
  const std::string key = engine_cache_key(JobSpec::deserialize(base));
  EXPECT_EQ(engine_cache_key(JobSpec::deserialize(base + " shards=4")), key);
  EXPECT_EQ(engine_cache_key(JobSpec::deserialize(base + " shards=8")), key);
  EXPECT_EQ(engine_cache_key_hash(JobSpec::deserialize(base + " shards=8")),
            engine_cache_key_hash(JobSpec::deserialize(base)));
  // The scheduler is part of the engine's identity.
  EXPECT_NE(
      engine_cache_key(JobSpec::deserialize(base + " scheduler=compiled")),
      key);
}

TEST(JobSpec, LegacyShardTokenDoesNotChangeResults) {
  // The same 2x2 job with and without `shards=4`: equal results both
  // standalone and through a farm.
  const std::string base =
      "v=1 name=legacy width=2 height=2 be_load=0.2 be_vcs=2,3 seed=5 "
      "cycles=120";
  const JobSpec plain = JobSpec::deserialize(base);
  const JobSpec sharded = JobSpec::deserialize(base + " shards=4");
  const JobResult standalone = run_job_standalone(plain);
  ASSERT_EQ(standalone.status, JobStatus::kDone) << standalone.error;
  std::string why;
  EXPECT_TRUE(
      results_equivalent(standalone, run_job_standalone(sharded), &why))
      << why;

  FarmOptions opt;
  opt.num_workers = 1;
  SimFarm farm(opt);
  const auto a = farm.submit(plain);
  const auto b = farm.submit(sharded);
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  farm.drain();
  for (const std::uint64_t id : {a.job_id, b.job_id}) {
    EXPECT_TRUE(
        results_equivalent(standalone, farm.results().get(id).value(), &why))
        << why;
  }
}

TEST(JobSpec, ValidateRejectsBeVcsTheRoutersDoNotHave) {
  for (const JobKind kind : {JobKind::kCoreTraffic, JobKind::kHostedFpga}) {
    JobSpec s;
    s.kind = kind;
    s.net.router.num_vcs = 2;
    s.workload.be_load = 0.1;
    s.workload.be_vcs = {1, 2};
    EXPECT_EQ(rejected_field(s, "be_vcs"), "2") << job_kind_name(kind);
    s.workload.be_vcs = {0, 1};
    EXPECT_EQ(rejected_field(s, "be_vcs"), "accepted") << job_kind_name(kind);
  }
}

TEST(JobSpec, ValidateRejectsPayloadlessBePackets) {
  for (const JobKind kind : {JobKind::kCoreTraffic, JobKind::kHostedFpga}) {
    JobSpec s;
    s.kind = kind;
    s.workload.be_load = 0.1;
    s.workload.be_bytes = 0;
    EXPECT_EQ(rejected_field(s, "be_bytes"), "0") << job_kind_name(kind);
    s.workload.be_bytes = 1;
    EXPECT_EQ(rejected_field(s, "be_bytes"), "accepted")
        << job_kind_name(kind);
  }
}

TEST(JobSpec, ValidateRejectsPacketsAboveTheLargestSupported) {
  // The hosted ArmHost builds a whole packet when it generates it, so a
  // 2^32-byte packet used to pass admission and then allocate billions
  // of flits on a worker.
  for (const JobKind kind : {JobKind::kCoreTraffic, JobKind::kHostedFpga}) {
    JobSpec be;
    be.kind = kind;
    be.workload.be_load = 0.1;
    be.workload.be_bytes = traffic::kMaxPacketBytes + 1;
    EXPECT_EQ(rejected_field(be, "be_bytes"),
              std::to_string(traffic::kMaxPacketBytes + 1))
        << job_kind_name(kind);
    be.workload.be_bytes = traffic::kMaxPacketBytes;
    EXPECT_EQ(rejected_field(be, "be_bytes"), "accepted")
        << job_kind_name(kind);

    JobSpec gt;
    gt.kind = kind;
    traffic::GtStream s;
    s.src = 0;
    s.dst = 1;
    s.period = 100;
    s.bytes = traffic::kMaxPacketBytes + 1;
    gt.workload.gt_streams.push_back(s);
    EXPECT_THROW(gt.validate(), Error) << job_kind_name(kind);
    gt.workload.gt_streams[0].bytes = traffic::kMaxPacketBytes;
    EXPECT_NO_THROW(gt.validate()) << job_kind_name(kind);
  }
}

/// Every numeric field of `text` (a serialize() form): the token's key and
/// the element's [begin, end) offsets. List elements (be_vcs, the fields
/// of each GT stream) count one by one.
struct NumericField {
  std::string key;
  std::size_t begin;
  std::size_t end;
};

std::vector<NumericField> numeric_fields(const std::string& text) {
  std::vector<NumericField> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t tok_end = text.find(' ', pos);
    if (tok_end == std::string::npos) {
      tok_end = text.size();
    }
    const std::size_t eq = text.find('=', pos);
    const std::string key = text.substr(pos, eq - pos);
    std::size_t b = eq + 1;
    while (b < tok_end) {
      std::size_t e = b;
      while (e < tok_end && text[e] != ',' && text[e] != ';' &&
             text[e] != ':') {
        ++e;
      }
      const std::string elem = text.substr(b, e - b);
      char* parse_end = nullptr;
      std::strtod(elem.c_str(), &parse_end);
      if (!elem.empty() && *parse_end == '\0') {
        out.push_back({key, b, e});
      }
      b = e + 1;
    }
    pos = tok_end + 1;
  }
  return out;
}

/// Substitutes 0 and 2^32 for each numeric field of `base`'s serialized
/// form in turn. Each hostile spec must either be refused by deserialize
/// + validate, or run: 8 cycles (cycles forced to 8) must end kDone. A
/// spec admission accepts must never fail on a worker.
void sweep_tokens(const JobSpec& base) {
  ASSERT_NO_THROW(base.validate());
  const std::string text = base.serialize();
  std::size_t refused = 0;
  std::size_t ran = 0;
  for (const NumericField& f : numeric_fields(text)) {
    for (const char* value : {"0", "4294967296"}) {
      const std::string hostile =
          text.substr(0, f.begin) + value + text.substr(f.end);
      SCOPED_TRACE(f.key + " <- " + value + ": " + hostile);
      JobSpec spec;
      try {
        spec = JobSpec::deserialize(hostile);
        spec.validate();
      } catch (const std::exception&) {
        ++refused;
        continue;
      }
      ++ran;
      if (f.key == "cycles") {
        // An admitted multi-billion-cycle job is legal; run its first 8
        // cycles instead of all of them.
        SimSession session(spec);
        std::unique_ptr<core::SeqNocSimulation> sim;
        if (session.needs_engine()) {
          sim = std::make_unique<core::SeqNocSimulation>(
              spec.net, effective_engine_options(spec, false));
          session.attach(*sim);
        }
        EXPECT_NO_THROW(session.advance(8));
        EXPECT_FALSE(session.aborted());
        continue;
      }
      spec.cycles = 8;
      const JobResult r = run_job_standalone(spec);
      EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(ran, 0u);
}

TEST(JobSpec, HostileNumericTokensAreRefusedOrRun) {
  JobSpec core_job;
  core_job.name = "sweep";
  core_job.net.width = 3;
  core_job.net.height = 3;
  core_job.net.topology = noc::Topology::kMesh;
  core_job.net.router.queue_depth = 2;
  core_job.scheduler = core::SchedulerKind::kCompiled;
  core_job.workload.be_load = 0.2;
  core_job.workload.be_vcs = {1, 2};
  traffic::GtStream s;
  s.src = 1;
  s.dst = 7;
  s.vc = 3;
  s.period = 5;
  s.phase = 2;
  s.bytes = 32;
  core_job.workload.gt_streams.push_back(s);
  core_job.workload.warmup_cycles = 2;
  core_job.workload.verify_payload = true;
  core_job.workload.overload_threshold = 4096;
  core_job.seed = 7;
  core_job.cycles = 8;
  core_job.deadline_ms = 5000;
  core_job.max_retries = 1;
  sweep_tokens(core_job);

  JobSpec hosted_job;
  hosted_job.name = "sweep";
  hosted_job.kind = JobKind::kHostedFpga;
  hosted_job.net.width = 4;
  hosted_job.net.height = 2;
  hosted_job.net.router.queue_depth = 3;
  hosted_job.workload.be_load = 0.2;
  hosted_job.workload.be_vcs = {3};
  hosted_job.workload.be_bytes = 18;
  hosted_job.workload.fig1_gt = true;
  hosted_job.workload.gt_period = 6;
  hosted_job.seed = 11;
  hosted_job.cycles = 8;
  sweep_tokens(hosted_job);

  // The same hosted job with an explicit GT stream instead of fig1_gt,
  // so the stream's own tokens (bytes among them) are swept too.
  hosted_job.workload.fig1_gt = false;
  hosted_job.workload.gt_streams = {s};
  hosted_job.workload.gt_streams[0].vc = 1;
  sweep_tokens(hosted_job);

  // A sign or an overflowing value is never a number of the field: each
  // of these once decoded to a different seed than it spells (-1 to
  // 2^64 - 1, +1 to 1, 2^64 saturated to 2^64 - 1) and must be refused.
  const std::string text = core_job.serialize();
  std::size_t seeds = 0;
  for (const NumericField& f : numeric_fields(text)) {
    if (f.key != "seed") {
      continue;
    }
    ++seeds;
    for (const char* value : {"-1", "+1", "18446744073709551616"}) {
      const std::string hostile =
          text.substr(0, f.begin) + value + text.substr(f.end);
      SCOPED_TRACE(hostile);
      EXPECT_THROW(JobSpec::deserialize(hostile), std::exception);
    }
  }
  EXPECT_EQ(seeds, 1u);
}

TEST(JobSpec, DeriveSeedSeparatesDomains) {
  const std::uint64_t base = 42;
  std::set<std::uint64_t> seeds;
  for (const char* domain : {"stimuli", "host-rng", "faults", "schedule"}) {
    const std::uint64_t s = derive_seed(base, domain);
    EXPECT_NE(s, 0u) << domain;       // 0 means "unseeded" to some sinks
    EXPECT_NE(s, base) << domain;
    EXPECT_TRUE(seeds.insert(s).second) << "collision on " << domain;
    // Deterministic: same (base, domain) → same sub-seed.
    EXPECT_EQ(derive_seed(base, domain), s);
    // And base-sensitive.
    EXPECT_NE(derive_seed(base + 1, domain), s);
  }
}

}  // namespace
}  // namespace tmsim::farm

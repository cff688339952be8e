#include "farm/job_spec.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "common/fnv.h"
#include "common/parse.h"
#include "traffic/workloads.h"

namespace tmsim::farm {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parse_double(const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  TMSIM_CHECK_MSG(end && *end == '\0', "malformed double in job spec");
  return d;
}

std::uint64_t parse_u64(const std::string& v) {
  const std::optional<std::uint64_t> u = parse_decimal(v);
  TMSIM_CHECK_MSG(u.has_value(), "malformed integer in job spec");
  return *u;
}

/// parse_u64 for 32-bit fields: a value that does not fit is rejected,
/// never truncated into a different spec.
std::uint32_t parse_u32(const std::string& v) {
  const std::uint64_t u = parse_u64(v);
  TMSIM_CHECK_MSG(u <= std::numeric_limits<std::uint32_t>::max(),
                  "32-bit job spec field out of range");
  return static_cast<std::uint32_t>(u);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

const char* topology_name(noc::Topology t) {
  return t == noc::Topology::kTorus ? "torus" : "mesh";
}

}  // namespace

const char* job_kind_name(JobKind k) {
  return k == JobKind::kCoreTraffic ? "core" : "hosted";
}

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "?";
}

std::string JobSpec::serialize() const {
  std::ostringstream os;
  // Format-version token first, always: decoders on the far side of the
  // wire (or a future release) must be able to reject a spec they do
  // not understand before trusting any other token.
  os << "v=" << kSpecFormatVersion;
  os << " name=" << name;
  os << " kind=" << job_kind_name(kind);
  os << " priority=" << priority_name(priority);
  os << " width=" << net.width << " height=" << net.height;
  os << " topology=" << topology_name(net.topology);
  os << " vcs=" << net.router.num_vcs << " qdepth=" << net.router.queue_depth;
  os << " scheduler=" << core::scheduler_kind_name(scheduler);
  os << " be_load=" << fmt_double(workload.be_load);
  os << " be_vcs=";
  for (std::size_t i = 0; i < workload.be_vcs.size(); ++i) {
    os << (i ? "," : "") << workload.be_vcs[i];
  }
  os << " be_bytes=" << workload.be_bytes;
  os << " fig1_gt=" << (workload.fig1_gt ? 1 : 0);
  os << " gt_period=" << workload.gt_period;
  os << " gt=";
  for (std::size_t i = 0; i < workload.gt_streams.size(); ++i) {
    const traffic::GtStream& s = workload.gt_streams[i];
    os << (i ? ";" : "") << s.src << ":" << s.dst << ":" << s.vc << ":"
       << s.period << ":" << s.phase << ":" << s.bytes;
  }
  os << " warmup=" << workload.warmup_cycles;
  os << " verify_payload=" << (workload.verify_payload ? 1 : 0);
  os << " stop_on_overload=" << (workload.stop_on_overload ? 1 : 0);
  os << " overload_threshold=" << workload.overload_threshold;
  os << " seed=" << seed;
  os << " cycles=" << cycles;
  os << " deadline_ms=" << deadline_ms;
  os << " max_retries=" << max_retries;
  os << " f_read_flip=" << fmt_double(faults.read_flip);
  os << " f_write_flip=" << fmt_double(faults.write_flip);
  os << " f_dropped_write=" << fmt_double(faults.dropped_write);
  os << " f_stuck_busy=" << fmt_double(faults.stuck_busy);
  os << " f_spurious_overrun=" << fmt_double(faults.spurious_overrun);
  os << " f_stuck_busy_reads=" << faults.stuck_busy_reads;
  return os.str();
}

JobSpec JobSpec::deserialize(const std::string& text) {
  JobSpec spec;
  // Every list-valued key starts empty; scalar keys keep their defaults
  // only if the token is absent (serialize() always emits all keys, but
  // hand-written specs may omit some).
  spec.workload.be_vcs.clear();
  std::istringstream is(text);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    TMSIM_CHECK_MSG(eq != std::string::npos, "job spec token without '='");
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "v") {
      // Absent `v` means version 1 (pre-versioning specs); any other
      // version is a structured reject, never a best-effort parse.
      if (parse_u64(val) != kSpecFormatVersion) {
        throw ContextualError("unsupported job spec format version",
                              {{"v", val}});
      }
    } else if (key == "name") {
      spec.name = val;
    } else if (key == "kind") {
      if (val == "core") {
        spec.kind = JobKind::kCoreTraffic;
      } else if (val == "hosted") {
        spec.kind = JobKind::kHostedFpga;
      } else {
        throw ContextualError("unknown job kind", {{"kind", val}});
      }
    } else if (key == "priority") {
      if (val == "interactive") {
        spec.priority = Priority::kInteractive;
      } else if (val == "normal") {
        spec.priority = Priority::kNormal;
      } else if (val == "batch") {
        spec.priority = Priority::kBatch;
      } else {
        throw ContextualError("unknown priority", {{"priority", val}});
      }
    } else if (key == "width") {
      spec.net.width = parse_u64(val);
    } else if (key == "height") {
      spec.net.height = parse_u64(val);
    } else if (key == "topology") {
      if (val == "torus") {
        spec.net.topology = noc::Topology::kTorus;
      } else if (val == "mesh") {
        spec.net.topology = noc::Topology::kMesh;
      } else {
        throw ContextualError("unknown topology", {{"topology", val}});
      }
    } else if (key == "vcs") {
      spec.net.router.num_vcs = parse_u64(val);
    } else if (key == "qdepth") {
      spec.net.router.queue_depth = parse_u64(val);
    } else if (key == "policy") {
      // No longer emitted, but spill segments written by an older daemon
      // still carry it, with any value that daemon admitted: `dynamic`,
      // or `two_phase` for core jobs. Results do not depend on the
      // schedule, so both decode to the same spec. `static` was never
      // admitted: every job runs the NoC, whose router links are
      // combinational.
      if (val != "dynamic" && val != "two_phase") {
        throw ContextualError(
            "jobs run the dynamic schedule only; the NoC's router links "
            "are combinational",
            {{"policy", val}});
      }
    } else if (key == "shards" || key == "engine_seed") {
      // No longer emitted: every job runs one shard under a derived
      // schedule seed. Older clients and spill segments still send both;
      // neither ever changed results, so any count or seed decodes to
      // the same spec.
      (void)parse_u64(val);
    } else if (key == "partition") {
      // No longer emitted: a one-shard engine has nothing to partition.
      // Spill segments written by an older daemon still carry one of the
      // three policies it offered; the partition never changed results,
      // so all of them decode to the same spec.
      if (val != "round_robin" && val != "contiguous" && val != "min_cut") {
        throw ContextualError("unknown partition policy", {{"partition", val}});
      }
    } else if (key == "scheduler") {
      if (val == "round_robin") {
        spec.scheduler = core::SchedulerKind::kRoundRobin;
      } else if (val == "worklist") {
        spec.scheduler = core::SchedulerKind::kWorklist;
      } else if (val == "compiled") {
        spec.scheduler = core::SchedulerKind::kCompiled;
      } else {
        throw ContextualError("unknown scheduler kind", {{"scheduler", val}});
      }
    } else if (key == "be_load") {
      spec.workload.be_load = parse_double(val);
    } else if (key == "be_vcs") {
      for (const std::string& v : split(val, ',')) {
        spec.workload.be_vcs.push_back(parse_u32(v));
      }
    } else if (key == "be_bytes") {
      spec.workload.be_bytes = parse_u64(val);
    } else if (key == "fig1_gt") {
      spec.workload.fig1_gt = parse_u64(val) != 0;
    } else if (key == "gt_period") {
      spec.workload.gt_period = parse_u64(val);
    } else if (key == "gt") {
      for (const std::string& entry : split(val, ';')) {
        const std::vector<std::string> f = split(entry, ':');
        TMSIM_CHECK_MSG(f.size() == 6, "GT stream needs 6 fields");
        traffic::GtStream s;
        s.src = parse_u64(f[0]);
        s.dst = parse_u64(f[1]);
        s.vc = parse_u32(f[2]);
        s.period = parse_u64(f[3]);
        s.phase = parse_u64(f[4]);
        s.bytes = parse_u64(f[5]);
        spec.workload.gt_streams.push_back(s);
      }
    } else if (key == "warmup") {
      spec.workload.warmup_cycles = parse_u64(val);
    } else if (key == "verify_payload") {
      spec.workload.verify_payload = parse_u64(val) != 0;
    } else if (key == "stop_on_overload") {
      spec.workload.stop_on_overload = parse_u64(val) != 0;
    } else if (key == "overload_threshold") {
      spec.workload.overload_threshold = parse_u64(val);
    } else if (key == "seed") {
      spec.seed = parse_u64(val);
    } else if (key == "cycles") {
      spec.cycles = parse_u64(val);
    } else if (key == "deadline_ms") {
      spec.deadline_ms = parse_u64(val);
    } else if (key == "max_retries") {
      spec.max_retries = parse_u32(val);
    } else if (key == "f_read_flip") {
      spec.faults.read_flip = parse_double(val);
    } else if (key == "f_write_flip") {
      spec.faults.write_flip = parse_double(val);
    } else if (key == "f_dropped_write") {
      spec.faults.dropped_write = parse_double(val);
    } else if (key == "f_stuck_busy") {
      spec.faults.stuck_busy = parse_double(val);
    } else if (key == "f_spurious_overrun") {
      spec.faults.spurious_overrun = parse_double(val);
    } else if (key == "f_stuck_busy_reads") {
      spec.faults.stuck_busy_reads = parse_u64(val);
    } else {
      throw ContextualError("unknown job spec key", {{"key", key}});
    }
  }
  return spec;
}

std::uint64_t JobSpec::fingerprint() const {
  return fnv1a_bytes(kFnvOffset, serialize());
}

std::vector<traffic::GtStream> JobSpec::resolved_gt_streams() const {
  if (workload.fig1_gt) {
    return traffic::fig1_gt_streams(net, workload.gt_period);
  }
  return workload.gt_streams;
}

void JobSpec::validate() const {
  TMSIM_CHECK_MSG(!name.empty(), "job name must not be empty");
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == '-')) {
      throw ContextualError("job name contains a character outside "
                            "[A-Za-z0-9._-]",
                            {{"name", name}});
    }
  }
  net.validate();
  TMSIM_CHECK_MSG(cycles >= 1, "job must simulate at least one cycle");
  TMSIM_CHECK_MSG(max_retries <= 64,
                  "max_retries above 64 is a crash-loop, not a retry policy");
  TMSIM_CHECK_MSG(!(workload.fig1_gt && !workload.gt_streams.empty()),
                  "fig1_gt and explicit gt_streams are mutually exclusive");
  if (workload.be_load > 0.0) {
    TMSIM_CHECK_MSG(workload.be_load <= 1.0, "be_load must be in [0,1]");
    TMSIM_CHECK_MSG(!workload.be_vcs.empty(),
                    "BE traffic needs at least one VC");
    for (const unsigned vc : workload.be_vcs) {
      if (vc >= net.router.num_vcs) {
        throw ContextualError(
            "BE vc out of range for the router",
            {{"be_vcs", std::to_string(vc)},
             {"vcs", std::to_string(net.router.num_vcs)}});
      }
    }
    if (workload.be_bytes == 0 ||
        workload.be_bytes > traffic::kMaxPacketBytes) {
      throw ContextualError(
          "BE packet payload must be 1.." +
              std::to_string(traffic::kMaxPacketBytes) + " bytes",
          {{"be_bytes", std::to_string(workload.be_bytes)}});
    }
  }
  const std::vector<traffic::GtStream> streams = resolved_gt_streams();
  if (!streams.empty()) {
    traffic::TrafficHarness::validate_gt_streams(net, streams);
  }
  for (const auto& [key, rate] :
       {std::pair{"f_read_flip", faults.read_flip},
        std::pair{"f_write_flip", faults.write_flip},
        std::pair{"f_dropped_write", faults.dropped_write},
        std::pair{"f_stuck_busy", faults.stuck_busy},
        std::pair{"f_spurious_overrun", faults.spurious_overrun}}) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      throw ContextualError("fault rates are probabilities in [0,1]",
                            {{key, fmt_double(rate)}});
    }
  }
  if (kind == JobKind::kHostedFpga) {
    // The hosted stack (ArmHost ↔ FpgaDesign) has no warmup window and
    // verifies payloads through its own tag machinery; rejecting these
    // here turns a silent semantic mismatch into a structured reject.
    TMSIM_CHECK_MSG(workload.warmup_cycles == 0,
                    "hosted jobs do not support warmup_cycles");
    TMSIM_CHECK_MSG(!workload.verify_payload,
                    "hosted jobs do not support verify_payload");
  } else {
    const double fault_sum = faults.read_flip + faults.write_flip +
                             faults.dropped_write + faults.stuck_busy +
                             faults.spurious_overrun;
    TMSIM_CHECK_MSG(fault_sum == 0.0,
                    "bus fault injection requires a hosted job (there is "
                    "no bus on the core-traffic path)");
  }
}

std::uint64_t derive_seed(std::uint64_t base, std::string_view domain) {
  const std::uint64_t h =
      fnv1a_bytes(fnv1a_word(kFnvOffset, base), domain);
  return h == 0 ? kFnvOffset : h;
}

}  // namespace tmsim::farm

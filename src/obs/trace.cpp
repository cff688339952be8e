#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <unordered_map>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"  // json_escape

namespace tmsim::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finalizer — cheap, well-distributed id mixing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string fmt_us(double us) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Tracer::Tracer(Options opt) : opt_(opt), epoch_ns_(steady_ns()) {}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) / 1000.0;
}

bool Tracer::should_sample() {
  if (opt_.sample_every == 0) {
    ticket_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t t = ticket_.fetch_add(1, std::memory_order_relaxed);
  return t % opt_.sample_every == 0;
}

TraceContext Tracer::start_trace(std::uint64_t key) {
  const std::uint64_t nonce = traces_.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_id = mix64(key ^ mix64(nonce));
  if (ctx.trace_id == 0) {
    ctx.trace_id = 1;  // 0 is the "unsampled" sentinel
  }
  ctx.span_id = alloc_span_id();
  ctx.parent_span_id = 0;
  return ctx;
}

std::uint64_t Tracer::alloc_span_id() {
  return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Tracer::span(
    const TraceContext& ctx, std::uint64_t span_id,
    std::uint64_t parent_span_id, std::string_view name, std::uint32_t attempt,
    std::uint32_t tid, double start_us, double end_us,
    std::initializer_list<std::pair<std::string_view, std::string>> args) {
  if (!ctx.sampled()) {
    return;
  }
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= opt_.max_spans) {
    recorded_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = span_id;
  rec.parent_span_id = parent_span_id;
  rec.attempt = attempt;
  rec.tid = tid;
  rec.start_us = start_us;
  rec.end_us = end_us;
  rec.name.assign(name.data(), name.size());
  if (args.size() != 0) {
    std::string a = "{";
    bool first = true;
    for (const auto& [k, v] : args) {
      if (!first) {
        a += ", ";
      }
      first = false;
      a += '"';
      a += json_escape(std::string(k));
      a += "\": \"";
      a += json_escape(v);
      a += '"';
    }
    a += "}";
    rec.args_json = std::move(a);
  }
  std::list<SpanRecord> node;  // allocated here, spliced under the lock
  node.push_back(std::move(rec));
  std::lock_guard<std::mutex> lock(mu_);
  spans_.splice(spans_.end(), node);
}

std::uint64_t Tracer::traces_started() const {
  return traces_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::samples_seen() const {
  return ticket_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::spans_recorded() const {
  return recorded_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::spans_dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.assign(spans_.begin(), spans_.end());
  }
  // Deterministic order for logs and diffs: by trace, then time.
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.trace_id != b.trace_id) {
                return a.trace_id < b.trace_id;
              }
              if (a.start_us != b.start_us) {
                return a.start_us < b.start_us;
              }
              return a.span_id < b.span_id;
            });
  return out;
}

void Tracer::write_jsonl(std::ostream& os) const {
  for (const SpanRecord& s : snapshot()) {
    os << "{\"trace\": \"" << hex16(s.trace_id) << "\", \"span\": " << s.span_id
       << ", \"parent\": " << s.parent_span_id << ", \"name\": \""
       << json_escape(s.name) << "\", \"attempt\": " << s.attempt
       << ", \"tid\": " << s.tid << ", \"ts\": " << fmt_us(s.start_us)
       << ", \"dur\": " << fmt_us(s.end_us - s.start_us);
    if (!s.args_json.empty()) {
      os << ", \"args\": " << s.args_json;
    }
    os << "}\n";
  }
}

void Tracer::export_chrome(ChromeTrace& trace) const {
  const std::vector<SpanRecord> spans = snapshot();  // trace-then-time order
  for (const SpanRecord& s : spans) {
    trace.span(s.name, s.start_us, s.end_us - s.start_us, s.tid,
               {{"trace", hex16(s.trace_id)},
                {"span", std::to_string(s.span_id)},
                {"parent", std::to_string(s.parent_span_id)},
                {"attempt", std::to_string(s.attempt)}});
  }
  // One flow chain + one async bracket per trace: the arrows and the
  // umbrella lane that make a job's life legible across worker tracks.
  std::size_t i = 0;
  while (i < spans.size()) {
    std::size_t j = i;
    while (j < spans.size() && spans[j].trace_id == spans[i].trace_id) {
      ++j;
    }
    const SpanRecord& first = spans[i];
    double end_us = first.end_us;
    for (std::size_t k = i; k < j; ++k) {
      end_us = std::max(end_us, spans[k].end_us);
    }
    trace.async_begin("farm.job", "trace", first.trace_id, first.start_us,
                      first.tid);
    trace.async_end("farm.job", "trace", first.trace_id, end_us, first.tid);
    for (std::size_t k = i; k < j; ++k) {
      const char* step = k == i ? "s" : (k + 1 == j ? "f" : "t");
      trace.flow(step[0], spans[k].name, spans[k].trace_id,
                 spans[k].start_us, spans[k].tid);
    }
    i = j;
  }
}

namespace {

/// Minimal field extraction from one JSONL line. Keys are written by
/// write_jsonl, so the format is fully under our control.
bool find_number(const std::string& line, const std::string& key,
                 double* out) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t pos = line.find(pat);
  if (pos == std::string::npos) {
    return false;
  }
  try {
    *out = std::stod(line.substr(pos + pat.size()));
  } catch (...) {
    return false;
  }
  return true;
}

bool find_string(const std::string& line, const std::string& key,
                 std::string* out) {
  const std::string pat = "\"" + key + "\": \"";
  const std::size_t pos = line.find(pat);
  if (pos == std::string::npos) {
    return false;
  }
  const std::size_t start = pos + pat.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) {
    return false;
  }
  *out = line.substr(start, end - start);
  return true;
}

struct ParsedSpan {
  std::size_t line_no = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;
  std::uint32_t attempt = 0;
  double ts = 0.0;
  double dur = 0.0;
};

}  // namespace

std::optional<std::string> trace_validate(std::istream& is) {
  std::map<std::string, std::vector<ParsedSpan>> traces;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    std::string trace_id;
    std::string name;
    ParsedSpan s;
    s.line_no = line_no;
    double span_d = 0.0;
    double parent_d = 0.0;
    double attempt_d = 0.0;
    if (!find_string(line, "trace", &trace_id) ||
        !find_string(line, "name", &name) ||
        !find_number(line, "span", &span_d) ||
        !find_number(line, "parent", &parent_d) ||
        !find_number(line, "attempt", &attempt_d) ||
        !find_number(line, "ts", &s.ts) || !find_number(line, "dur", &s.dur)) {
      return "line " + std::to_string(line_no) + ": missing required field";
    }
    if (s.dur < 0.0) {
      return "line " + std::to_string(line_no) + ": span not closed (dur < 0)";
    }
    s.span_id = static_cast<std::uint64_t>(span_d);
    s.parent = static_cast<std::uint64_t>(parent_d);
    s.attempt = static_cast<std::uint32_t>(attempt_d);
    if (s.span_id == 0) {
      return "line " + std::to_string(line_no) + ": span id 0";
    }
    traces[trace_id].push_back(s);
  }
  for (const auto& [trace_id, spans] : traces) {
    std::unordered_map<std::uint64_t, const ParsedSpan*> by_id;
    const ParsedSpan* root = nullptr;
    for (const ParsedSpan& s : spans) {
      if (!by_id.emplace(s.span_id, &s).second) {
        return "trace " + trace_id + " line " + std::to_string(s.line_no) +
               ": duplicate span id " + std::to_string(s.span_id);
      }
      if (s.parent == 0) {
        if (root != nullptr) {
          return "trace " + trace_id + " line " + std::to_string(s.line_no) +
                 ": second root span";
        }
        root = &s;
      }
    }
    if (root == nullptr) {
      return "trace " + trace_id + ": no root span";
    }
    std::unordered_map<std::uint64_t, std::vector<const ParsedSpan*>> children;
    for (const ParsedSpan& s : spans) {
      if (s.parent == 0) {
        continue;
      }
      const auto it = by_id.find(s.parent);
      if (it == by_id.end()) {
        return "trace " + trace_id + " line " + std::to_string(s.line_no) +
               ": parent span " + std::to_string(s.parent) + " missing";
      }
      const ParsedSpan& p = *it->second;
      if (p.ts > s.ts) {
        return "trace " + trace_id + " line " + std::to_string(s.line_no) +
               ": child starts before its parent";
      }
      // Retry chains: an attempt-k span hangs off the root/queue side
      // (attempt 0) or its own attempt's segment — never a sibling
      // attempt, so each retry is its own child chain.
      if (s.attempt != 0 && p.attempt != 0 && p.attempt != s.attempt) {
        return "trace " + trace_id + " line " + std::to_string(s.line_no) +
               ": attempt " + std::to_string(s.attempt) +
               " span parented to attempt " + std::to_string(p.attempt);
      }
      children[s.parent].push_back(&s);
    }
    // One connected tree: everything reachable from the root.
    std::vector<const ParsedSpan*> stack = {root};
    std::size_t visited = 0;
    while (!stack.empty()) {
      const ParsedSpan* s = stack.back();
      stack.pop_back();
      ++visited;
      const auto it = children.find(s->span_id);
      if (it != children.end()) {
        for (const ParsedSpan* c : it->second) {
          stack.push_back(c);
        }
      }
    }
    if (visited != spans.size()) {
      return "trace " + trace_id + ": disconnected (" +
             std::to_string(visited) + " of " + std::to_string(spans.size()) +
             " spans reachable from the root)";
    }
  }
  return std::nullopt;
}

}  // namespace tmsim::obs

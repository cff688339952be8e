// Distributed tracing for the farm hot path (DESIGN.md §15).
//
// A `Tracer` records *completed* spans — fixed time intervals with a
// trace id, span id, and parent span id — into one in-memory buffer.
// The farm opens one trace per sampled job at submit and threads its
// `TraceContext` through the admission queue, dispatch,
// retries, supervisor reclaims, and publish, so a job's whole life
// across workers renders as one connected tree:
//
//   farm.job (root, submit → publish)
//   ├── admission.enqueue / farm.submit        (queue side, tid 90)
//   ├── admission.dequeue                      (queue-wait span)
//   ├── farm.exec (one segment per dispatch, attempt k)
//   │   ├── farm.attach
//   │   └── farm.slice …                       (per preemption slice)
//   ├── farm.retry / farm.reclaim              (failure-path edges)
//   └── farm.publish
//
// Design constraints, in order:
//   - Free when off. The farm guards every site with `if (tracer)`;
//     a null tracer is the default and costs one branch.
//   - Lock-cheap when on. Sampling and span-id allocation are single
//     atomic ops; recording splices one preallocated list node into
//     the span store under one mutex.
//   - Sampling-capable. `should_sample()` is a head-based 1-in-N
//     ticket taken *before* the expensive fingerprint hash, so
//     unsampled jobs skip all tracing work, not just the storage.
//   - Bounded. `max_spans` caps memory; overflow increments a dropped
//     counter instead of growing.
//
// Export targets: a compact JSONL span log (one JSON object per line,
// checked by `trace_validate`) and the Chrome trace viewer via
// `export_chrome` (spans as 'X' slices plus a flow-event chain per
// trace, so Perfetto draws the arrows between workers).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tmsim::obs {

class ChromeTrace;

/// Per-job trace identity, carried by value through the admission
/// queue and control blocks. `trace_id == 0` means "not sampled" and
/// makes every recording call a no-op.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;         ///< the trace's root span
  std::uint64_t parent_span_id = 0;  ///< 0 at the root
  bool sampled() const { return trace_id != 0; }
};

/// One completed span as stored by the tracer.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint32_t attempt = 0;  ///< job attempt the span belongs to (0 = pre-exec)
  std::uint32_t tid = 0;      ///< display track (worker id + 100, queue 90, …)
  double start_us = 0.0;
  double end_us = 0.0;
  std::string name;
  std::string args_json;  ///< pre-rendered {"k": "v", …} or ""
};

class Tracer {
 public:
  struct Options {
    /// Head sampling rate: 1 traces everything, N traces 1-in-N,
    /// 0 traces nothing (tracer present but idle).
    std::uint64_t sample_every = 1;
    /// Hard bound on stored spans; past it spans are counted dropped.
    std::size_t max_spans = std::size_t{1} << 20;
  };

  Tracer() : Tracer(Options()) {}
  explicit Tracer(Options opt);

  /// Microseconds since construction (steady clock) — a convenience
  /// for standalone users; the farm stamps spans with its own clock so
  /// all spans of a trace share one timebase.
  double now_us() const;

  /// Head sampling decision: one atomic ticket, no allocation. Call
  /// before computing anything expensive (the job fingerprint).
  bool should_sample();

  /// Opens a new trace keyed on `key` (the job fingerprint): derives a
  /// nonzero trace id (mixed with a nonce so duplicate specs get
  /// distinct traces) and allocates its root span id. The root span
  /// itself is recorded later, by whoever closes the trace.
  TraceContext start_trace(std::uint64_t key);

  /// Allocates a fresh span id (unique within this tracer).
  std::uint64_t alloc_span_id();

  /// Records a completed span. No-op when `ctx` is unsampled.
  void span(const TraceContext& ctx, std::uint64_t span_id,
            std::uint64_t parent_span_id, std::string_view name,
            std::uint32_t attempt, std::uint32_t tid, double start_us,
            double end_us,
            std::initializer_list<std::pair<std::string_view, std::string>>
                args = {});

  std::uint64_t traces_started() const;
  std::uint64_t samples_seen() const;  ///< should_sample() calls
  std::uint64_t spans_recorded() const;
  std::uint64_t spans_dropped() const;

  /// All spans recorded so far, in no particular order.
  std::vector<SpanRecord> snapshot() const;

  /// Compact JSONL span log: one object per line with keys
  /// trace (hex string), span, parent, name, attempt, tid, ts, dur,
  /// and optional args. This is the format `trace_validate` checks.
  void write_jsonl(std::ostream& os) const;

  /// Exports every span as a Chrome 'X' slice and stitches each trace
  /// with a flow-event chain (ph s/t/f, id = trace id) plus an async
  /// span bracketing the whole trace, so one job draws as a single
  /// connected lane across worker tracks.
  void export_chrome(ChromeTrace& trace) const;

 private:
  Options opt_;
  std::uint64_t epoch_ns_ = 0;
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<std::uint64_t> next_span_{0};
  std::atomic<std::uint64_t> traces_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::list<SpanRecord> spans_;  ///< guarded by mu_
};

/// Validates a JSONL span log (the `Tracer::write_jsonl` format), the
/// trace sibling of `vcd_validate`: every line parses and carries a
/// closed interval (dur >= 0), span ids are unique within a trace,
/// each trace has exactly one root whose children all start no earlier
/// than their parent ("parent precedes child"), every span is
/// reachable from the root (one connected tree), and a span of retry
/// attempt k > 0 hangs off attempt 0 or attempt k — so each retry is
/// its own child chain. Returns std::nullopt if valid, else a
/// diagnostic naming the first offending line.
std::optional<std::string> trace_validate(std::istream& is);

}  // namespace tmsim::obs

// MetricsRegistry: the single home for every performance counter in the
// simulator (DESIGN.md §10).
//
// The paper's evaluation is built on counted events — Table 4's phase
// profile, §6's delta-cycle overhead, the two monitor buffers — and the
// engines, the FPGA model and the hardened host all accumulate such
// counts. This registry gives them one naming scheme and one export
// path instead of ad-hoc struct fields per layer:
//
//   - *Counters* are monotonically increasing u64 event counts
//     ("engine.delta_cycles", "fpga.monitor.link_probe.samples").
//   - *Gauges* are point-in-time doubles ("host.share.generate").
//   - *Histograms* are fixed-bucket distributions over doubles
//     ("engine.deltas_per_cycle"), backed by analysis::Histogram.
//
// Naming scheme: dot-separated lowercase path, most-general component
// first (`layer.subsystem.event`), with instance labels kept out of the
// name and in the `labels` string ("worker=3"). Registration returns a
// stable reference; the hot path touches one u64 — no lookup, no lock.
//
// Instruments are attached, not ambient: a component holds a null
// registry/sink pointer by default and skips all bookkeeping, so a run
// with no sink attached is bit-identical to (and as fast as) a build
// without this subsystem. tests/obs/obs_off_test.cpp enforces that.
//
// Thread model: registration is mutex-guarded and may happen from any
// thread; each Counter/Gauge/Histogram instance must be written by one
// thread at a time (concurrent writers label their instruments so each
// owns its own row). Snapshots (write_json/write_table)
// must run while writers are quiescent — between steps or after run().
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/stats.h"

namespace tmsim::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class HistogramMetric {
 public:
  HistogramMetric(double bin_width, std::size_t num_bins)
      : hist_(bin_width, num_bins) {}

  void observe(double x) { hist_.add(x); }
  const analysis::Histogram& histogram() const { return hist_; }

 private:
  analysis::Histogram hist_;
};

class MetricsRegistry {
 public:
  /// Registers (or re-finds) an instrument. The returned reference is
  /// stable for the registry's lifetime. `labels` distinguishes
  /// instances of the same metric ("worker=0"); the empty string is the
  /// unlabelled instance.
  Counter& counter(const std::string& name, const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "");
  /// Re-finding an existing histogram ignores the bucket arguments.
  HistogramMetric& histogram(const std::string& name, double bin_width,
                             std::size_t num_bins,
                             const std::string& labels = "");

  /// Lookup without registration; null when absent.
  const Counter* find_counter(const std::string& name,
                              const std::string& labels = "") const;
  const Gauge* find_gauge(const std::string& name,
                          const std::string& labels = "") const;
  const HistogramMetric* find_histogram(const std::string& name,
                                        const std::string& labels = "") const;

  /// Counter value or 0 / gauge value or fallback — for report code that
  /// should not care whether an instrument was ever touched.
  std::uint64_t counter_value(const std::string& name,
                              const std::string& labels = "") const;
  double gauge_value(const std::string& name, const std::string& labels = "",
                     double fallback = 0.0) const;

  std::size_t size() const;

  /// JSON snapshot: {"metrics":[{"type","name","labels","value"...},...]}.
  /// `extra` key/value pairs (git sha, config) are emitted at the top
  /// level. Deterministic: rows appear in registration order.
  void write_json(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& extra = {}) const;

  /// The existing analysis/table fixed-width format (diffable, like the
  /// bench output).
  void write_table(std::ostream& os) const;

  /// Metric names (with labels) matching a glob, registration order.
  std::vector<std::string> names_matching(const std::string& glob) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string labels;
    Kind kind;
    std::size_t index;  // into the matching deque
  };

  const Entry* find(const std::string& name, const std::string& labels,
                    Kind kind) const;

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<HistogramMetric> histograms_;
};

/// Minimal JSON string escaping for names/labels/extra values.
std::string json_escape(const std::string& s);

/// Glob match with `*` (any run, including empty) and `?` (any one
/// char); everything else literal. Used for VCD signal selection and
/// metric filtering.
bool glob_match(const std::string& pattern, const std::string& text);

}  // namespace tmsim::obs

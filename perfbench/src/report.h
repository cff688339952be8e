// Run report of one benchmark run: the metrics it measured, every
// correctness check it made (attempted / failed), and free-form record
// fields (per-phase details, sum-check ratios, sample counts) that ride
// along for diagnosis but are not metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double now_s();
/// Nanoseconds on the steady clock.
std::uint64_t now_ns();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The statistic behind every timed end-to-end figure: best of N. On a
/// shared 4-vCPU VM the same work ran up to 1.7x slower for seconds at a
/// time while ALU-bound probes barely slowed (other tenants contending for
/// the physical cores' caches), in stretches no median over a 30 s run
/// averages out; pinning the thread to one CPU, rotating it over all of
/// them or leaving it to the OS made no difference. The fastest of many
/// repetitions of identical work repeats better from run to run: host
/// noise only ever adds time. The fastest of an empty sample is 0.
inline double fast_time(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) {
    best = (best == 0.0 || x < best) ? x : best;
  }
  return best;
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One checked operation; a false `ok` counts as failed and keeps `what`.
  bool check(bool ok, const std::string& what);
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failures_.size(); }
  bool correct() const { return failures_.empty(); }

  /// One-line JSON: correct, attempted, failed, metrics{name: {value,
  /// unit}}, record{...}, failures[...].
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;  // key → JSON
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
};

}  // namespace perfbench

#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + tmsim::obs::json_escape(s) + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

void Report::note(const std::string& key, double value) {
  record_.emplace_back(key, number(value));
}

void Report::note(const std::string& key, const std::string& value) {
  record_.emplace_back(key, quoted(value));
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << quoted(metrics_[i].name)
       << ": {\"value\": " << number(metrics_[i].value)
       << ", \"unit\": " << quoted(metrics_[i].unit) << "}";
  }
  os << "}, \"record\": {";
  for (std::size_t i = 0; i < record_.size(); ++i) {
    os << (i ? ", " : "") << quoted(record_[i].first) << ": "
       << record_[i].second;
  }
  os << "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? ", " : "") << quoted(failures_[i]);
  }
  os << "]}";
  return os.str();
}

}  // namespace perfbench

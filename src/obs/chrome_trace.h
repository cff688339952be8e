// Chrome-trace-format event timeline (DESIGN.md §10).
//
// The third pillar of the observability layer: wall-clock spans from
// the ArmHost 5-phase loop (generate/load/simulate/retrieve/analyze —
// Table 4 as a timeline instead of a table), fault/retry episodes from
// the PR-1 bus layer, and the farm's job span trees exported from an
// obs::Tracer, all in the JSON the `chrome://tracing` / Perfetto UI
// loads directly:
//
//   {"traceEvents":[{"name":"simulate","ph":"X","ts":12.0,"dur":340.5,
//                    "pid":0,"tid":0,"args":{...}}, ...]}
//
// Span taxonomy (the `name` field):
//   host.generate / host.load / host.simulate / host.retrieve /
//   host.analyze                 — one span per system-cycle batch, tid 0
//                                  (ArmHost::set_timeline)
//   fault.<kind>                 — instant events ("i") for retry /
//                                  replay / watchdog episodes, tid 0
//   farm.job / farm.submit /
//   admission.enqueue /
//   admission.dequeue /
//   farm.exec / farm.attach /
//   farm.slice / farm.retry /
//   farm.reclaim / farm.publish  — a farm Tracer's spans
//                                  (Tracer::export_chrome), worker spans
//                                  on tid 100+worker, plus one `farm.job`
//                                  async bracket and flow chain per trace
//
// Timestamps are microseconds of wall-clock time since the trace was
// constructed (Chrome's native unit). Events may be recorded from any
// thread; a mutex serializes the append. Buffered in memory; write()
// emits the whole array.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace tmsim::obs {

class ChromeTrace {
 public:
  ChromeTrace();

  /// Microseconds since this trace was constructed (monotonic clock).
  double now_us() const;

  /// Complete span ("ph":"X"): [ts_us, ts_us+dur_us) on track `tid`.
  /// `args` become the span's args object (numbers passed as strings
  /// are quoted; use arg pairs sparingly — one object per event).
  void span(const std::string& name, double ts_us, double dur_us,
            std::uint32_t tid,
            const std::vector<std::pair<std::string, std::string>>& args = {});

  /// Instant event ("ph":"i", scope thread).
  void instant(
      const std::string& name, double ts_us, std::uint32_t tid,
      const std::vector<std::pair<std::string, std::string>>& args = {});

  /// Async span half ("ph":"b"/"e"): an interval that may start and end
  /// on different threads. The viewer matches begin/end on (cat, id,
  /// name), so all three must agree across the pair.
  void async_begin(const std::string& name, const std::string& cat,
                   std::uint64_t id, double ts_us, std::uint32_t tid);
  void async_end(const std::string& name, const std::string& cat,
                 std::uint64_t id, double ts_us, std::uint32_t tid);

  /// Flow event ("ph":"s"/"t"/"f" for start/step/finish): draws an
  /// arrow chain between the slices enclosing each event, keyed on
  /// `id`. `phase` must be 's', 't', or 'f'.
  void flow(char phase, const std::string& name, std::uint64_t id,
            double ts_us, std::uint32_t tid);

  /// Names track `tid` in the viewer (emits a thread_name metadata event).
  void name_thread(std::uint32_t tid, const std::string& name);

  std::size_t size() const;

  /// Emits {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void write_json(std::ostream& os) const;

 private:
  struct Event {
    std::string name;
    char phase;  // 'X', 'i', 'M', async 'b'/'e', flow 's'/'t'/'f'
    double ts_us;
    double dur_us;
    std::uint32_t tid;
    std::string args_json;  // pre-rendered {"k":"v",...} or ""
    std::string cat;        // async/flow category ("" elsewhere)
    std::uint64_t id = 0;   // async/flow correlation id
  };

  static std::string render_args(
      const std::vector<std::pair<std::string, std::string>>& args);

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::uint64_t epoch_ns_ = 0;
};

}  // namespace tmsim::obs

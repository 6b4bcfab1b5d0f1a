#pragma once
// In-memory span recorder for the end-to-end benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into the library (Experiment construction and run(), topology
// build and partition, the measurement probes, the parallel runner).  A
// span is (name, start, end, parent, run id, lane); start and end are
// seconds since the recorder was created.  Nothing is written until the run
// ends: write_chrome() emits Chrome trace-event JSON (Perfetto and
// chrome://tracing open it offline) and print_self_times() prints, per span
// name, the total and the self time — a span's duration minus the part of
// it its child spans cover.

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace wlsync::bench::e2e {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root
    int run = 0;      ///< which rep / trial / configuration the span belongs to
    int lane = 0;     ///< display row (the runner's worker for sweep trials)
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Seconds since the recorder was created.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Records an already-measured interval; returns its index.
  int add(std::string name, double start, double end, int parent, int run,
          int lane = 0) {
    spans_.push_back({std::move(name), start, end, parent, run, lane});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Opens a span at now(); close it with end().
  int begin(std::string name, int parent, int run, int lane = 0) {
    const double t = now();
    return add(std::move(name), t, t, parent, run, lane);
  }
  void end(int id) { spans_.at(static_cast<std::size_t>(id)).end = now(); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_.at(static_cast<std::size_t>(id));
    return s.end - s.start;
  }

  /// Duration of `id` minus the union of its children's intervals (clipped
  /// to the parent).  Children may overlap — the runner's trials do.
  [[nodiscard]] double self_time(int id) const {
    const Span& parent = spans_.at(static_cast<std::size_t>(id));
    std::vector<std::pair<double, double>> cover;
    for (const Span& s : spans_) {
      if (s.parent != id) continue;
      const double lo = std::max(s.start, parent.start);
      const double hi = std::min(s.end, parent.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = parent.start;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    return (parent.end - parent.start) - covered;
  }

  /// One line per span name: count, total seconds, self seconds.
  void print_self_times(std::ostream& out) const {
    struct Row {
      int count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& row = rows[spans_[i].name];
      ++row.count;
      row.total += duration(static_cast<int>(i));
      row.self += self_time(static_cast<int>(i));
    }
    out << "# span self times: name count total_s self_s\n";
    for (const auto& [name, row] : rows) {
      out << "# span " << name << ' ' << row.count << ' ' << std::setprecision(6)
          << row.total << ' ' << row.self << '\n';
    }
  }

  /// Chrome trace-event JSON: one complete ("X") event per span, in
  /// microseconds, with the run id and parent index as args.
  void write_chrome(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
          << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
          << ",\"args\":{\"run\":" << s.run << ",\"parent\":" << s.parent
          << ",\"id\":" << i << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace wlsync::bench::e2e

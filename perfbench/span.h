// Spans recorded by the benchmark around its calls into each layer, and
// the Chrome trace-event file they are written to.
//
// A span is one timed call: a name whose first dotted component is the
// layer ("orbit.predict" -> "orbit"), a start and an end on the steady
// clock, the span that caused it and the thread that ran it. Spans stay
// in memory until the workload ends and are then written as Chrome
// trace-event JSON ("ph":"X" complete events), which chrome://tracing
// and Perfetto open directly. The parent id rides in "args" so the file
// reads back into the same span tree.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t tid = 0;
  /// Numbers measured inside the span (phase gauges, counters).
  std::map<std::string, double> args;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  friend bool operator==(const Span&, const Span&) = default;
};

/// Single-threaded span recorder: the benchmark opens and closes spans
/// on its own thread around each call it makes.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Open a span under the innermost open span; returns its id.
  std::uint64_t begin(const std::string& name) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.name = name;
    s.tid = 1;  // every benchmark span runs on the main thread
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Close the innermost open span.
  void end() {
    if (open_.empty()) throw std::logic_error("Tracer::end without begin");
    spans_[open_.back() - 1].end_ns = now_ns();
    open_.pop_back();
  }

  Span& span(std::uint64_t id) { return spans_.at(id - 1); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;
};

/// RAII span for one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
};

/// Duration of span `id` minus the part of its interval that its direct
/// children cover (children may overlap one another when they ran on
/// other threads; the union is subtracted once). Seconds.
[[nodiscard]] inline double self_time_s(const std::vector<Span>& spans,
                                        std::uint64_t id) {
  const Span* self = nullptr;
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans) {
    if (s.id == id) self = &s;
  }
  if (self == nullptr) throw std::out_of_range("self_time_s: unknown span");
  for (const Span& s : spans) {
    if (s.parent != id) continue;
    const std::int64_t a = std::max(s.start_ns, self->start_ns);
    const std::int64_t b = std::min(s.end_ns, self->end_ns);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t run_a = 0;
  std::int64_t run_b = -1;
  for (const auto& [a, b] : kids) {
    if (run_b < a) {
      if (run_b > run_a) covered += run_b - run_a;
      run_a = a;
      run_b = b;
    } else {
      run_b = std::max(run_b, b);
    }
  }
  if (run_b > run_a) covered += run_b - run_a;
  return static_cast<double>(self->end_ns - self->start_ns - covered) * 1e-9;
}

/// Chrome trace-event JSON of `spans` (timestamps in microseconds, as the
/// format requires; the exact nanoseconds ride in "args").
[[nodiscard]] inline std::string chrome_trace_json(
    const std::vector<Span>& spans) {
  using sinet::obs::json_double;
  using sinet::obs::json_escape;
  using sinet::obs::json_u64;
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":1"
       << ",\"tid\":" << json_u64(s.tid)
       << ",\"ts\":" << json_double(static_cast<double>(s.start_ns) / 1e3)
       << ",\"dur\":"
       << json_double(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
       << ",\"args\":{\"id\":" << json_u64(s.id)
       << ",\"parent\":" << json_u64(s.parent)
       << ",\"start_ns\":" << json_u64(static_cast<std::uint64_t>(s.start_ns))
       << ",\"end_ns\":" << json_u64(static_cast<std::uint64_t>(s.end_ns));
    for (const auto& [k, v] : s.args)
      os << ",\"" << json_escape(k) << "\":" << json_double(v);
    os << "}}";
  }
  os << "]}";
  return os.str();
}

/// Parse a file written by chrome_trace_json back into spans. Throws
/// std::runtime_error on malformed input.
[[nodiscard]] inline std::vector<Span> parse_chrome_trace(
    const std::string& text) {
  using sinet::obs::JsonCursor;
  JsonCursor cur(text);
  std::vector<Span> spans;
  sinet::obs::parse_json_object(cur, [&](const std::string& key) {
    if (key != "traceEvents") cur.fail("unexpected key " + key);
    sinet::obs::parse_json_array(cur, [&] {
      Span s;
      sinet::obs::parse_json_object(cur, [&](const std::string& field) {
        if (field == "name" || field == "ph") {
          const std::string v = cur.parse_string();
          if (field == "name") s.name = v;
        } else if (field == "tid") {
          s.tid = cur.parse_u64();
        } else if (field == "args") {
          sinet::obs::parse_json_object(cur, [&](const std::string& arg) {
            if (arg == "id") s.id = cur.parse_u64();
            else if (arg == "parent") s.parent = cur.parse_u64();
            else if (arg == "start_ns")
              s.start_ns = static_cast<std::int64_t>(cur.parse_u64());
            else if (arg == "end_ns")
              s.end_ns = static_cast<std::int64_t>(cur.parse_u64());
            else s.args[arg] = cur.parse_double();
          });
        } else {
          (void)cur.parse_double();  // pid, ts, dur: implied by args
        }
      });
      spans.push_back(std::move(s));
    });
  });
  return spans;
}

inline void write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << chrome_trace_json(spans) << '\n';
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

/// Metric names the benchmark emits: 1-64 characters of [A-Za-z0-9_.-],
/// starting with a letter or digit.
[[nodiscard]] inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

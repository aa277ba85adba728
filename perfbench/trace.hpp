#pragma once

/// @file trace.hpp
/// In-memory span recorder for the traced run. Spans wrap the benchmark's
/// own calls into the library (name, start, end, parent, op id); nothing
/// inside the library is instrumented. One Tracer per thread: spans are
/// appended without locks and merged after the threads join.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::uint64_t op = 0;  // spans of one op share this id
  int parent = -1;       // index into the owning Tracer, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
};

class Tracer {
 public:
  explicit Tracer(int thread = 0) : thread_(thread) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name, std::uint64_t op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, op, parent, now_ns(), 0, thread_});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  /// Closes span @p index; Scope closes spans innermost first.
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Appends @p other's spans, re-basing their parent indices.
  void merge(const Tracer& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing, so one code path serves the
/// traced and the untraced run.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->open(name, op) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-name medians of span durations and self times, in milliseconds,
/// plus the worst violation of "self time + children = parent" over every
/// span (0 unless children overlap or escape their parent).
struct SpanDigest {
  std::map<std::string, std::vector<double>> dur_ms;
  std::map<std::string, std::vector<double>> self_ms;
  std::int64_t max_tree_error_ns = 0;

  double median_ms(const std::string& name) const {
    const auto it = dur_ms.find(name);
    if (it == dur_ms.end()) throw std::out_of_range("no span " + name);
    return median(it->second);
  }
  double median_self_ms(const std::string& name) const {
    const auto it = self_ms.find(name);
    if (it == self_ms.end()) throw std::out_of_range("no span " + name);
    return median(it->second);
  }
};

inline SpanDigest digest(const std::vector<Span>& spans) {
  std::vector<SpanTimes> times;
  times.reserve(spans.size());
  for (const Span& s : spans) times.push_back({s.parent, s.start_ns, s.end_ns});
  const std::vector<std::int64_t> self = self_times(times);
  std::vector<std::int64_t> child_sum(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_sum[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  SpanDigest d;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    d.dur_ms[spans[i].name].push_back(static_cast<double>(dur) * 1e-6);
    d.self_ms[spans[i].name].push_back(static_cast<double>(self[i]) * 1e-6);
    const std::int64_t err = dur - (self[i] + child_sum[i]);
    d.max_tree_error_ns = std::max(d.max_tree_error_ns, err < 0 ? -err : err);
  }
  return d;
}

/// Writes @p spans as Chrome trace-event JSON (complete "X" events, µs),
/// which Perfetto and chrome://tracing open offline. Returns false when
/// the file cannot be written.
inline bool write_trace_json(const std::string& path,
                             const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %llu, \"span\": %zu, \"parent\": %d}}%s\n",
                 s.name.c_str(), s.thread,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.op), i, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

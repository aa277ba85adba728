#pragma once

/// @file stats.hpp
/// The benchmark's own arithmetic, kept header-only and free of library
/// dependencies so selftest.cpp can pin it down:
///
///  * percentiles from raw samples (sorted, linearly interpolated between
///    the two closest ranks) — never from log2 histogram buckets, where one
///    bucket spans 2x and a small shift can jump a bucket;
///  * the tail percentile a sample count supports: p90 from 100 samples
///    on, below that the highest percentile with ten samples beyond it;
///  * span self time: a span's duration minus the part of it its direct
///    children cover.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// Percentile @p q in [0, 1] of @p samples: sort, then interpolate
/// linearly at rank q * (n - 1). Throws on an empty sample or q outside
/// [0, 1].
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile rank outside [0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// The tail percentile @p n samples support: 0.9 once n >= 100, else the
/// highest percentile with at least ten samples beyond it (1 - 10/n), and
/// never below the median.
inline double tail_quantile(std::size_t n) {
  if (n >= 100) return 0.9;
  if (n <= 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(n);
}

struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // the percentile `tail` reports, in [0.5, 0.9]
  double tail = 0.0;
};

inline LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  s.p50 = median(samples);
  s.tail_q = tail_quantile(samples.size());
  s.tail = percentile(samples, s.tail_q);
  return s;
}

/// One span of a trace tree: parent is an index into the same vector, or
/// -1 for a root. Times are nanoseconds on one clock.
struct SpanTimes {
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent. Overlapping children
/// (spans from several threads under one parent) count once.
inline std::vector<std::int64_t> self_times(
    const std::vector<SpanTimes>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) continue;
    if (static_cast<std::size_t>(p) >= spans.size()) {
      throw std::invalid_argument("span parent out of range");
    }
    children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t ps = spans[i].start_ns;
    const std::int64_t pe = spans[i].end_ns;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t c : children[i]) {
      const std::int64_t s = std::max(spans[c].start_ns, ps);
      const std::int64_t e = std::min(spans[c].end_ns, pe);
      if (e > s) iv.emplace_back(s, e);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_s = 0;
    std::int64_t run_e = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
      if (open && s <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_s;
      run_s = s;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_s;
    self[i] = (pe - ps) - covered;
  }
  return self;
}

}  // namespace perfbench

// Self-test of the benchmark's own arithmetic (stats.hpp, trace.hpp):
// exact-sample percentiles, tail-percentile selection when fewer than 100
// samples exist, and span self time. Exits non-zero on the first failure.
//
//   perfbench_selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentiles_come_from_sorted_samples() {
  // Unsorted input; ranks interpolate linearly at q * (n - 1).
  const std::vector<double> v = {40, 10, 30, 20, 50};
  expect(near(perfbench::percentile(v, 0.0), 10), "p0 is the minimum");
  expect(near(perfbench::percentile(v, 1.0), 50), "p100 is the maximum");
  expect(near(perfbench::median(v), 30), "odd-count median");
  expect(near(perfbench::percentile(v, 0.9), 46), "p90 of five interpolates");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even-count median");
  expect(near(perfbench::percentile({7}, 0.9), 7), "single sample");
  // A bucketed histogram would report the same value for samples that
  // differ by less than 2x; exact percentiles keep the difference.
  expect(near(perfbench::median({100, 101, 102}), 101), "no bucketing");

  bool threw = false;
  try {
    perfbench::percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty sample throws");
  threw = false;
  try {
    perfbench::percentile({1, 2}, 1.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "rank above 1 throws");
}

void tail_percentile_follows_sample_count() {
  expect(near(perfbench::tail_quantile(100), 0.9), "p90 at 100 samples");
  expect(near(perfbench::tail_quantile(5000), 0.9), "p90 caps large samples");
  expect(near(perfbench::tail_quantile(99), 1.0 - 10.0 / 99),
         "99 samples keep ten beyond the tail");
  expect(near(perfbench::tail_quantile(50), 0.8), "p80 at 50 samples");
  expect(near(perfbench::tail_quantile(20), 0.5), "median at 20 samples");
  expect(near(perfbench::tail_quantile(3), 0.5), "median below 20 samples");

  std::vector<double> v;
  for (int i = 1; i <= 50; ++i) v.push_back(i);
  const perfbench::LatencySummary s = perfbench::summarize(v);
  expect(s.samples == 50, "summary counts samples");
  expect(near(s.tail_q, 0.8), "summary picks p80 for 50 samples");
  expect(near(s.tail, perfbench::percentile(v, 0.8)), "summary tail value");
  expect(near(s.p50, 25.5), "summary median");
}

void self_time_subtracts_covered_children() {
  using perfbench::SpanTimes;
  // root [0,100): children [10,30) and [50,60) -> self 70.
  // child [10,30) has a grandchild [15,25) -> self 10.
  const std::vector<SpanTimes> spans = {
      {-1, 0, 100}, {0, 10, 30}, {1, 15, 25}, {0, 50, 60}};
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  expect(self[0] == 70, "root self time");
  expect(self[1] == 10, "child self time");
  expect(self[2] == 10, "leaf self time is its duration");
  expect(self[3] == 10, "second child leaf");

  // Overlapping children (two threads under one parent) count once, and a
  // child running past its parent is clipped to it.
  const std::vector<SpanTimes> overlap = {
      {-1, 0, 100}, {0, 10, 40}, {0, 30, 60}, {0, 90, 120}};
  expect(perfbench::self_times(overlap)[0] == 40, "overlap and clipping");

  bool threw = false;
  try {
    perfbench::self_times({{5, 0, 1}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "parent out of range throws");
}

void digest_checks_the_tree_adds_up() {
  perfbench::Tracer tr;
  {
    perfbench::Scope root(&tr, "op", 1);
    { perfbench::Scope a(&tr, "a", 1); }
    { perfbench::Scope b(&tr, "b", 1); }
  }
  const perfbench::SpanDigest d = perfbench::digest(tr.spans());
  expect(d.max_tree_error_ns == 0, "sequential children add up to parent");
  const double sum = d.median_ms("a") + d.median_ms("b") +
                     d.median_self_ms("op");
  expect(std::fabs(sum - d.median_ms("op")) < 1e-6,
         "children + self = parent");

  // Merging re-bases parent indices.
  perfbench::Tracer other(1);
  {
    perfbench::Scope root(&other, "op2", 2);
    perfbench::Scope child(&other, "c", 2);
  }
  tr.merge(other);
  expect(tr.spans().back().parent == 3, "merged parent index is re-based");
  expect(perfbench::digest(tr.spans()).max_tree_error_ns == 0,
         "merged trees still add up");
}

}  // namespace

int main() {
  percentiles_come_from_sorted_samples();
  tail_percentile_follows_sample_count();
  self_time_subtracts_covered_children();
  digest_checks_the_tree_adds_up();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}

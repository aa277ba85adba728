#pragma once

/// @file metrics.hpp
/// Unified metrics registry of the serving stack — the measurement layer
/// every ROADMAP perf item above it is judged against.
///
/// ## Model
///
/// Three metric kinds, all identified by flat dotted names from the
/// catalog below:
///
///  * **Counter** — monotonic u64 (requests admitted, bytes out);
///  * **Gauge** — signed instantaneous value maintained by +/- deltas
///    (queue depth, resident tenants), stored two's complement in a u64
///    cell so the hot path stays one relaxed atomic add;
///  * **Histogram** — fixed-boundary log2-scale distribution (latencies,
///    sizes). Bucket i of kHistBuckets holds values whose bit width is i
///    (bucket 0 = {0}, bucket i = [2^(i-1), 2^i), last bucket = overflow),
///    so recording is a `bit_width` and one relaxed increment — no search,
///    no floating point. p50/p95/p99 come out of the bucket counts at
///    scrape time with linear interpolation inside the bucket.
///
/// ## Cells and the hot path
///
/// The registry never takes a lock on the record path. Each metric
/// instance owns one heap array of relaxed `std::atomic<u64>` cells (1 for
/// a counter or gauge, kHistBuckets+1 for a histogram), so
/// `Counter::inc()` is one relaxed `fetch_add` on the handle's own cell
/// and `value()` one relaxed load. The serving path makes ~14 increments
/// per request — thousands per second, not millions — so threads sharing
/// a cell never contend measurably. Scrapes sum instances of the same name
/// under the registry mutex; relaxed loads racing live increments are
/// benign — a scrape sees a value at least as fresh as the last full
/// barrier, and monotonic counters never go backwards.
///
/// ## Instances
///
/// Registering the same name twice yields two *instances* aggregated
/// under one definition: each Server owns its own `server.accepted`
/// counter (so per-server `stats()` keeps exact per-instance semantics
/// via `Counter::value()`), while `Registry::snapshot()` sums every
/// instance — the unified process view. Handles are RAII: destruction (or
/// move-assignment over an engaged handle) folds the instance's totals
/// into the definition's retired aggregate and drops it from the live
/// list, so totals survive instance churn. Moving a handle moves the cell
/// array with it: the new owner keeps counting into the same instance.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace abc::obs {

/// Always true: the registry is part of every build. Kept because the
/// Op::kStats document's "metrics_enabled" field is scrape format.
inline constexpr bool kMetricsEnabled = true;

enum class Kind : u8 { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* kind_name(Kind k) noexcept;

// -- histogram layout ---------------------------------------------------------
// One fixed log2 layout for every histogram in the process, so any two
// histograms (and any two PRs' BENCH_*.json files) are bucket-comparable.

inline constexpr std::size_t kHistBuckets = 48;

/// Bucket index of @p v: 0 for 0, otherwise bit_width clamped into range.
constexpr std::size_t hist_bucket_index(u64 v) noexcept {
  const int w = std::bit_width(v);
  return w < static_cast<int>(kHistBuckets) ? static_cast<std::size_t>(w)
                                            : kHistBuckets - 1;
}

/// Inclusive lower bound of bucket @p i (0, 1, 2, 4, 8, ...).
constexpr u64 hist_bucket_lower(std::size_t i) noexcept {
  return i == 0 ? 0 : u64{1} << (i - 1);
}

/// Exclusive upper bound of bucket @p i; the overflow bucket reports
/// twice its lower bound so interpolation stays finite.
constexpr u64 hist_bucket_upper(std::size_t i) noexcept {
  return i == 0 ? 1 : u64{1} << i;
}

// -- snapshot types -----------------------------------------------------------

struct CounterValue {
  std::string name;
  u64 value = 0;
};

struct GaugeValue {
  std::string name;
  i64 value = 0;
};

struct HistogramValue {
  std::string name;
  u64 count = 0;
  u64 sum = 0;  // sum of recorded values (mean = sum / count)
  std::array<u64, kHistBuckets> buckets{};

  /// Quantile in [0, 1] with linear interpolation inside the bucket;
  /// 0 when the histogram is empty.
  double quantile(double q) const noexcept;
};

/// Point-in-time aggregate of every definition in a registry: retired
/// totals plus every live instance.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* counter(std::string_view name) const noexcept;
  const GaugeValue* gauge(std::string_view name) const noexcept;
  const HistogramValue* histogram(std::string_view name) const noexcept;

  /// Counter value by name, 0 when absent — the delta-assertion helper.
  u64 counter_value(std::string_view name) const noexcept {
    const CounterValue* c = counter(name);
    return c == nullptr ? 0 : c->value;
  }
  i64 gauge_value(std::string_view name) const noexcept {
    const GaugeValue* g = gauge(name);
    return g == nullptr ? 0 : g->value;
  }
};

// -- metric catalog -----------------------------------------------------------
// Every instrumented name in the tree. Like the failpoint catalog: a
// metric absent here is a metric no scrape check guards, so additions
// belong here, in tools/check_stats_scrape.py, and in the
// docs/ARCHITECTURE.md table. The global registry pre-registers every
// entry so a scrape always emits the full catalog (zero-valued until the
// owning subsystem comes up).

namespace catalog {

struct Entry {
  const char* name;
  Kind kind;
};

// server (src/server/server.cpp)
inline constexpr const char* kServerAccepted = "server.accepted";
inline constexpr const char* kServerRejectedTooLarge =
    "server.rejected_too_large";
inline constexpr const char* kServerRejectedQueueFull =
    "server.rejected_queue_full";
inline constexpr const char* kServerRejectedShuttingDown =
    "server.rejected_shutting_down";
inline constexpr const char* kServerProcessed = "server.processed";
inline constexpr const char* kServerDrained = "server.drained";
inline constexpr const char* kServerSlowRequests = "server.slow_requests";
inline constexpr const char* kServerQueueDepth = "server.queue_depth";
inline constexpr const char* kServerQueueWaitNs = "server.queue_wait_ns";
inline constexpr const char* kServerRequestNs = "server.request_ns";

// session registry (src/server/session_registry.cpp)
inline constexpr const char* kContextCacheHits = "session.context_cache_hits";
inline constexpr const char* kContextCacheMisses =
    "session.context_cache_misses";
inline constexpr const char* kResidentTenants = "session.resident_tenants";

// engines (src/engine/fan_out_core.cpp)
inline constexpr const char* kEngineItemsProcessed = "engine.items_processed";
inline constexpr const char* kEngineItemsFailed = "engine.items_failed";
inline constexpr const char* kEngineItemNs = "engine.item_ns";

// key switching (src/ckks/keyswitch.cpp)
inline constexpr const char* kKeySwitchDecompositions =
    "keyswitch.decompositions";
inline constexpr const char* kKeySwitchAccumulations =
    "keyswitch.accumulations";
inline constexpr const char* kKeySwitchHoistReuses = "keyswitch.hoist_reuses";

// transport (src/server/transport.cpp)
inline constexpr const char* kTransportBytesIn = "transport.bytes_in";
inline constexpr const char* kTransportBytesOut = "transport.bytes_out";
inline constexpr const char* kTransportFrameErrors = "transport.frame_errors";

// key cache (src/server/key_cache.cpp)
inline constexpr const char* kKeyCacheHits = "keycache.hits";
inline constexpr const char* kKeyCacheMisses = "keycache.misses";
inline constexpr const char* kKeyCacheEvictions = "keycache.evictions";
inline constexpr const char* kKeyCacheRegenNs = "keycache.regen_ns";
inline constexpr const char* kKeyCacheResidentBytes = "keycache.resident_bytes";

// failpoints (re-exported from the fail registry at scrape time)
inline constexpr const char* kFailpointHits = "failpoint.hits";
inline constexpr const char* kFailpointFires = "failpoint.fires";

inline constexpr Entry kAll[] = {
    {kServerAccepted, Kind::kCounter},
    {kServerRejectedTooLarge, Kind::kCounter},
    {kServerRejectedQueueFull, Kind::kCounter},
    {kServerRejectedShuttingDown, Kind::kCounter},
    {kServerProcessed, Kind::kCounter},
    {kServerDrained, Kind::kCounter},
    {kServerSlowRequests, Kind::kCounter},
    {kServerQueueDepth, Kind::kGauge},
    {kServerQueueWaitNs, Kind::kHistogram},
    {kServerRequestNs, Kind::kHistogram},
    {kContextCacheHits, Kind::kCounter},
    {kContextCacheMisses, Kind::kCounter},
    {kResidentTenants, Kind::kGauge},
    {kEngineItemsProcessed, Kind::kCounter},
    {kEngineItemsFailed, Kind::kCounter},
    {kEngineItemNs, Kind::kHistogram},
    {kKeySwitchDecompositions, Kind::kCounter},
    {kKeySwitchAccumulations, Kind::kCounter},
    {kKeySwitchHoistReuses, Kind::kCounter},
    {kTransportBytesIn, Kind::kCounter},
    {kTransportBytesOut, Kind::kCounter},
    {kTransportFrameErrors, Kind::kCounter},
    {kKeyCacheHits, Kind::kCounter},
    {kKeyCacheMisses, Kind::kCounter},
    {kKeyCacheEvictions, Kind::kCounter},
    {kKeyCacheRegenNs, Kind::kHistogram},
    {kKeyCacheResidentBytes, Kind::kGauge},
    {kFailpointHits, Kind::kCounter},
    {kFailpointFires, Kind::kCounter},
};

}  // namespace catalog

// -- registry and handles -----------------------------------------------------

class Registry;

namespace detail {

/// The RAII core the three handle kinds share: one heap array of cells
/// this instance records into, listed live under its registry definition
/// until destruction or move-assignment folds it into the retired totals.
/// Default-constructed (and moved-from) instances own no cells and are
/// inert no-ops.
class Instance {
 public:
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

 protected:
  Instance() = default;
  ~Instance() { retire(); }
  Instance(Instance&& other) noexcept = default;
  Instance& operator=(Instance&& other) noexcept;

  void add(std::size_t cell, u64 delta) noexcept {
    if (cells_) cells_[cell].fetch_add(delta, std::memory_order_relaxed);
  }
  u64 load(std::size_t cell) const noexcept {
    return cells_ ? cells_[cell].load(std::memory_order_relaxed) : 0;
  }

  std::unique_ptr<std::atomic<u64>[]> cells_;

 private:
  friend class abc::obs::Registry;
  Instance(Registry* reg, u32 def, std::unique_ptr<std::atomic<u64>[]> cells)
      : cells_(std::move(cells)), reg_(reg), def_(def) {}
  void retire() noexcept;

  Registry* reg_ = nullptr;
  u32 def_ = 0;
};

}  // namespace detail

/// Monotonic counter instance.
class Counter : private detail::Instance {
 public:
  Counter() = default;

  /// One relaxed atomic add on this instance's cell.
  void inc(u64 n = 1) noexcept { add(0, n); }

  /// This instance's total (not other instances of the same name — the
  /// per-instance forwarder semantics ContextCache and Server::stats()
  /// rely on).
  u64 value() const noexcept { return load(0); }

 private:
  friend class Registry;
  explicit Counter(Instance&& inst) : Instance(std::move(inst)) {}
};

/// Delta-maintained signed gauge instance.
class Gauge : private detail::Instance {
 public:
  Gauge() = default;

  void add(i64 delta) noexcept { Instance::add(0, static_cast<u64>(delta)); }
  void sub(i64 delta) noexcept { add(-delta); }
  i64 value() const noexcept { return static_cast<i64>(load(0)); }

 private:
  friend class Registry;
  explicit Gauge(Instance&& inst) : Instance(std::move(inst)) {}
};

/// Log2-bucket histogram instance.
class Histogram : private detail::Instance {
 public:
  Histogram() = default;

  /// Two relaxed adds: the value's bucket and the sum cell.
  void record(u64 value) noexcept {
    add(hist_bucket_index(value), 1);
    add(kHistBuckets, value);
  }

  /// This instance's distribution.
  HistogramValue read() const noexcept;

 private:
  friend class Registry;
  explicit Histogram(Instance&& inst) : Instance(std::move(inst)) {}
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Creates a new instance of the named metric. The name's kind is fixed
  /// by its first registration (catalog entries are pre-registered);
  /// mismatched re-registration throws InvalidArgument.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Registers a definition without creating an instance, so snapshots
  /// emit the name (zero-valued) before any owner exists.
  void ensure(std::string_view name, Kind kind);

  /// A scrape-time counter whose value is polled from @p read at every
  /// snapshot (the failpoint hit/fire re-export).
  void add_external_counter(std::string_view name, u64 (*read)());

  /// Aggregates every definition: retired totals + live instances +
  /// external sources. Safe to call while other threads record (relaxed
  /// reads; tested under TSan).
  MetricsSnapshot snapshot() const;

  /// The process-wide registry every instrumented subsystem uses.
  static Registry& global();

 private:
  friend class detail::Instance;
  struct Impl;
  Impl* impl_ = nullptr;  // pimpl so the header stays mutex/map-free

  detail::Instance register_instance(std::string_view name, Kind kind);
  void retire(u32 def, const std::atomic<u64>* cells) noexcept;
};

/// Shorthand for Registry::global().
inline Registry& registry() { return Registry::global(); }

}  // namespace abc::obs

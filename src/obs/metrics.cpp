#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc::obs {

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

double HistogramValue::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double prev = cum;
    cum += static_cast<double>(buckets[i]);
    if (cum >= target) {
      const double lower = static_cast<double>(hist_bucket_lower(i));
      const double upper = static_cast<double>(hist_bucket_upper(i));
      const double frac =
          (target - prev) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return 0.0;  // unreachable when count matches the buckets
}

namespace {

template <class T>
const T* find_by_name(const std::vector<T>& values,
                      std::string_view name) noexcept {
  for (const T& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

}  // namespace

const CounterValue* MetricsSnapshot::counter(
    std::string_view name) const noexcept {
  return find_by_name(counters, name);
}

const GaugeValue* MetricsSnapshot::gauge(std::string_view name) const noexcept {
  return find_by_name(gauges, name);
}

const HistogramValue* MetricsSnapshot::histogram(
    std::string_view name) const noexcept {
  return find_by_name(histograms, name);
}

namespace {

/// Cell totals of one definition or instance, laid out like the cells:
/// [0] for a counter or gauge; buckets then sum for a histogram.
using Totals = std::array<u64, kHistBuckets + 1>;

std::size_t span_of(Kind kind) noexcept {
  return kind == Kind::kHistogram ? kHistBuckets + 1 : 1;
}

/// Adds @p span cells into @p totals. Relaxed loads racing live writers
/// are benign (see header).
void accumulate(Totals& totals, const std::atomic<u64>* cells,
                std::size_t span) noexcept {
  for (std::size_t i = 0; i < span; ++i) {
    totals[i] += cells[i].load(std::memory_order_relaxed);
  }
}

HistogramValue to_histogram(std::string name, const Totals& totals) {
  HistogramValue h;
  h.name = std::move(name);
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    h.buckets[i] = totals[i];
    h.count += totals[i];
  }
  h.sum = totals[kHistBuckets];
  return h;
}

}  // namespace

struct Registry::Impl {
  struct Definition {
    std::string name;
    Kind kind = Kind::kCounter;
    // Folded totals of destroyed instances. Gauges fold their (signed)
    // deltas into the same u64 in two's complement.
    Totals retired{};
    std::vector<const std::atomic<u64>*> live;  // cells of live instances
  };

  mutable std::mutex m;
  std::vector<Definition> defs;
  std::unordered_map<std::string, u32> by_name;
  std::vector<std::pair<std::string, u64 (*)()>> external;

  u32 ensure_def(std::string_view name, Kind kind) {
    const auto it = by_name.find(std::string(name));
    if (it != by_name.end()) {
      ABC_CHECK_ARG(defs[it->second].kind == kind,
                    "metric '" + std::string(name) +
                        "' re-registered with a different kind");
      return it->second;
    }
    const u32 idx = static_cast<u32>(defs.size());
    Definition def;
    def.name = std::string(name);
    def.kind = kind;
    defs.push_back(std::move(def));
    by_name.emplace(std::string(name), idx);
    return idx;
  }
};

Registry::Registry() : impl_(new Impl) {}

Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  // Deliberately leaked: static handles (e.g. the transport counters) may
  // retire during process teardown, and a destroyed global registry would
  // turn those into use-after-free.
  static Registry* reg = [] {
    auto* r = new Registry();
    for (const catalog::Entry& e : catalog::kAll) r->ensure(e.name, e.kind);
    r->add_external_counter(catalog::kFailpointHits, &fail::total_hits);
    r->add_external_counter(catalog::kFailpointFires, &fail::total_fires);
    return r;
  }();
  return *reg;
}

void Registry::ensure(std::string_view name, Kind kind) {
  std::lock_guard<std::mutex> lock(impl_->m);
  impl_->ensure_def(name, kind);
}

void Registry::add_external_counter(std::string_view name, u64 (*read)()) {
  std::lock_guard<std::mutex> lock(impl_->m);
  impl_->ensure_def(name, Kind::kCounter);
  impl_->external.emplace_back(std::string(name), read);
}

detail::Instance Registry::register_instance(std::string_view name,
                                             Kind kind) {
  // Value-initialised: a new instance always reads 0.
  auto cells = std::make_unique<std::atomic<u64>[]>(span_of(kind));
  std::lock_guard<std::mutex> lock(impl_->m);
  const u32 def = impl_->ensure_def(name, kind);
  impl_->defs[def].live.push_back(cells.get());
  return detail::Instance(this, def, std::move(cells));
}

Counter Registry::counter(std::string_view name) {
  return Counter(register_instance(name, Kind::kCounter));
}

Gauge Registry::gauge(std::string_view name) {
  return Gauge(register_instance(name, Kind::kGauge));
}

Histogram Registry::histogram(std::string_view name) {
  return Histogram(register_instance(name, Kind::kHistogram));
}

void Registry::retire(u32 def, const std::atomic<u64>* cells) noexcept {
  // The owner destroying its handle guarantees no thread still records
  // through it (the quiescence contract every RAII member satisfies), so
  // folding under the mutex cannot lose an increment.
  std::lock_guard<std::mutex> lock(impl_->m);
  Impl::Definition& d = impl_->defs[def];
  accumulate(d.retired, cells, span_of(d.kind));
  std::erase(d.live, cells);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->m);
  for (const Impl::Definition& def : impl_->defs) {
    Totals totals = def.retired;
    for (const std::atomic<u64>* cells : def.live) {
      accumulate(totals, cells, span_of(def.kind));
    }
    switch (def.kind) {
      case Kind::kCounter:
        snap.counters.push_back({def.name, totals[0]});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({def.name, static_cast<i64>(totals[0])});
        break;
      case Kind::kHistogram:
        snap.histograms.push_back(to_histogram(def.name, totals));
        break;
    }
  }
  for (const auto& [name, read] : impl_->external) {
    for (CounterValue& c : snap.counters) {
      if (c.name == name) {
        c.value += read();
        break;
      }
    }
  }
  return snap;
}

// -- handles ------------------------------------------------------------------

namespace detail {

Instance& Instance::operator=(Instance&& other) noexcept {
  if (this != &other) {
    retire();
    cells_ = std::move(other.cells_);
    reg_ = other.reg_;
    def_ = other.def_;
  }
  return *this;
}

void Instance::retire() noexcept {
  if (cells_) reg_->retire(def_, cells_.get());
}

}  // namespace detail

HistogramValue Histogram::read() const noexcept {
  Totals totals{};
  if (cells_) accumulate(totals, cells_.get(), kHistBuckets + 1);
  return to_histogram({}, totals);
}

}  // namespace abc::obs

#include "engine/fan_out_core.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace abc::engine {

namespace {

// Leaked (like the global registry) so late fan-outs during static
// teardown still have live handles.
struct EngineMetrics {
  obs::Counter processed =
      obs::registry().counter(obs::catalog::kEngineItemsProcessed);
  obs::Counter failed =
      obs::registry().counter(obs::catalog::kEngineItemsFailed);
  obs::Histogram item_ns =
      obs::registry().histogram(obs::catalog::kEngineItemNs);
};

EngineMetrics& engine_metrics() {
  static EngineMetrics* m = new EngineMetrics;
  return *m;
}

}  // namespace

void record_item(u64 elapsed_ns, bool ok) {
  EngineMetrics& m = engine_metrics();
  m.item_ns.record(elapsed_ns);
  (ok ? m.processed : m.failed).inc();
}

FanOutCore::FanOutCore(std::shared_ptr<const ckks::CkksContext> ctx)
    : ctx_(std::move(ctx)) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  workers_ = ctx_->backend().workers();
}

void FanOutCore::run(std::size_t count, const Job& job) const {
  if (count == 0) return;
  ctx_->backend().parallel_for(count, [&](std::size_t i, std::size_t worker) {
    timed_item([&] { job(i, worker); });
  });
}

BatchErrorReport FanOutCore::run_isolated(std::size_t count,
                                          const Job& job) const {
  std::vector<ItemStatus> statuses(count);
  if (count != 0) {
    ctx_->backend().parallel_for(count, [&](std::size_t i,
                                            std::size_t worker) {
      // Each slot is owned by exactly one item, so recording the outcome
      // needs no lock and a failed neighbour cannot disturb a success.
      const u64 t0 = obs::now_ns();
      try {
        job(i, worker);
      } catch (const std::exception& e) {
        statuses[i].ok = false;
        statuses[i].error = e.what();
      } catch (...) {
        statuses[i].ok = false;
        statuses[i].error = "unknown exception";
      }
      record_item(obs::now_ns() - t0, statuses[i].ok);
    });
  }
  // Serial fold in input order: first_error is the lowest-index failure no
  // matter which worker finished first, keeping the report itself inside
  // the bit-identical-at-any-worker-count contract.
  BatchErrorReport report;
  report.items = std::move(statuses);
  for (const ItemStatus& st : report.items) {
    if (st.ok) {
      ++report.succeeded;
    } else {
      if (report.failed == 0) report.first_error = st.error;
      ++report.failed;
    }
  }
  return report;
}

}  // namespace abc::engine

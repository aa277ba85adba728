#pragma once

/// @file fan_out_core.hpp
/// Shared deterministic fan-out core for every batch engine. The three
/// engines (BatchEncryptor, BatchKeyGenerator, BatchDecryptor) used to
/// each reimplement the same machinery; it lives here exactly once:
///
///  * **Contiguous stream-id reservation.** Randomness-consuming work
///    reserves its id block from the *context-wide* atomic counter
///    (reserve_stream_ids(), forwarding CkksContext::reserve_stream_ids)
///    BEFORE it fans out, so scheduling cannot change which item gets
///    which stream — and two engines sharing a context can never alias a
///    stream id, no matter how their calls interleave.
///  * **Per-worker scratch pools** (ScratchPool<S>): one scratch per
///    backend lane, indexed by the worker id parallel_for hands each job,
///    so hot paths stop allocating after warm-up without any locking.
///  * **The bit-identical-at-any-worker-count contract.** Work items are
///    independent (parallelism only partitions, never reorders a
///    reduction) and any randomness is fully determined by the reserved
///    (domain, stream id) — so a ScalarBackend run, a 1-thread pool and an
///    8-thread pool all produce the same bytes. Engines inherit the
///    contract by routing every fan-out through run() or run_isolated().
///  * **Failure isolation** (run_isolated()): the per-item-fault mode of
///    the two batch calls a retrying client needs (encrypt and verify).
///    One malformed item must not abort the batch — each job runs under
///    its own catch, outcomes land in a BatchErrorReport in input order,
///    and the serial fold picks the first error by input index (never by
///    completion time), so the report itself is identical at any worker
///    count. The caller reserves stream ids the same way in both modes,
///    so the surviving items of a faulty batch are bit-identical to the
///    same items of a clean one.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ckks/context.hpp"
#include "obs/trace.hpp"

namespace abc::engine {

/// Outcome of one batch item in a fault-isolating fan-out.
struct ItemStatus {
  bool ok = true;
  std::string error;  // what() of the item's exception; empty when ok
};

/// Input-order per-item error report of a fault-isolating batch call.
/// Successes are preserved, failed slots of the paired output container
/// are well-defined-empty, and the aggregates are schedule-independent.
struct BatchErrorReport {
  std::vector<ItemStatus> items;  // input order, one per batch item
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::string first_error;  // message of the lowest-index failure

  bool ok() const noexcept { return failed == 0; }
  std::size_t size() const noexcept { return items.size(); }
};

/// Books one item's latency to engine.item_ns and counts it in
/// engine.items_processed (@p ok) or engine.items_failed.
void record_item(u64 elapsed_ns, bool ok);

/// Runs f() as one booked item; an exception is counted as a failure and
/// propagates. run() wraps every job in it, and the serving daemon wraps
/// each item it evaluates.
template <class F>
void timed_item(F&& f) {
  const u64 t0 = obs::now_ns();
  try {
    f();
  } catch (...) {
    record_item(obs::now_ns() - t0, false);
    throw;
  }
  record_item(obs::now_ns() - t0, true);
}

class FanOutCore {
 public:
  explicit FanOutCore(std::shared_ptr<const ckks::CkksContext> ctx);

  const ckks::CkksContext& ctx() const noexcept { return *ctx_; }

  /// Lanes the underlying backend executes on (scratch pools match this).
  std::size_t workers() const noexcept { return workers_; }

  /// Reserves @p count consecutive ids from the context-wide counter.
  u64 reserve_stream_ids(u64 count) const {
    return ctx_->reserve_stream_ids(count);
  }

  using Job = std::function<void(std::size_t index, std::size_t worker)>;

  /// Executes job(i, worker) for every i in [0, count) across the
  /// backend; exceptions from jobs rethrow on the calling thread.
  void run(std::size_t count, const Job& job) const;

  /// Fault-isolating run(): every job executes under its own catch, and
  /// the returned report records each item's outcome in input order. Jobs
  /// that complete are untouched by jobs that fail.
  BatchErrorReport run_isolated(std::size_t count, const Job& job) const;

 private:
  std::shared_ptr<const ckks::CkksContext> ctx_;
  std::size_t workers_;
};

/// One scratch object per backend lane. S is constructed from the context
/// when such a constructor exists (EncryptScratch, DecryptScratch) and
/// default-constructed otherwise (SamplerScratch).
template <class S>
class ScratchPool {
 public:
  explicit ScratchPool(const ckks::CkksContext& ctx) {
    const std::size_t lanes = ctx.backend().workers();
    pool_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      if constexpr (std::is_constructible_v<S, const ckks::CkksContext&>) {
        pool_.emplace_back(ctx);
      } else {
        pool_.emplace_back();
      }
    }
  }

  std::size_t size() const noexcept { return pool_.size(); }
  S& at(std::size_t worker) { return pool_.at(worker); }

 private:
  std::vector<S> pool_;
};

}  // namespace abc::engine

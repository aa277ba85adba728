#pragma once

/// @file batch_evaluator.hpp
/// Server-side batch evaluation engine: the entry points the serving
/// daemon's workers call per request, built on the same FanOutCore as the
/// client engines. A request is an "ABCB" batch of independent
/// ciphertexts; each item is rotated (hoisted key switch against the
/// tenant's Galois key) or squared-and-relinearized on its own, with one
/// KeySwitchScratch per backend lane.
///
/// Evaluation consumes no PRNG stream, so determinism is purely the
/// partitioning contract: per-item work is independent, results land in
/// input order, and the output bytes are identical for any backend, any
/// worker count — and, one level up, whichever serving-daemon worker
/// picks a request up (the soak tests assert daemon responses
/// byte-identical to this engine run serially).
///
/// On a serving daemon each worker thread owns its own BatchEvaluator over
/// a scalar-backend context, so requests parallelize across workers while
/// each request stays on the one thread that dequeued it.

#include <memory>
#include <span>
#include <vector>

#include "ckks/evaluator.hpp"
#include "engine/fan_out_core.hpp"

namespace abc::engine {

class BatchEvaluator {
 public:
  explicit BatchEvaluator(std::shared_ptr<const ckks::CkksContext> ctx);

  /// Lanes the underlying backend executes on (and scratch copies held).
  std::size_t workers() const noexcept { return core_.workers(); }

  /// The underlying evaluator, for one-off calls between batches.
  const ckks::Evaluator& evaluator() const noexcept { return evaluator_; }

  /// Rotates cts[i] left by @p step using @p gks; results in input order.
  /// Each item must sit at level <= max_limbs - 1 (the key-switch special
  /// prime rule) or the item throws InvalidArgument, exactly as serially.
  std::vector<ckks::Ciphertext> rotate_batch(
      std::span<const ckks::Ciphertext> cts, int step,
      const ckks::GaloisKeys& gks);

  /// rotate_batch through a KeySource (the serving daemon's cache-backed
  /// path): the step's key is resolved and pinned ONCE up front — a cache
  /// regeneration failure surfaces before any item work, and the pin
  /// guarantees eviction cannot free the key mid-batch.
  std::vector<ckks::Ciphertext> rotate_batch(
      std::span<const ckks::Ciphertext> cts, int step,
      const ckks::KeySource& keys);

  /// ct[i] <- relinearize(ct[i] * ct[i]): the squaring activation of the
  /// encrypted-inference profile, scale squared, level unchanged.
  std::vector<ckks::Ciphertext> square_relin_batch(
      std::span<const ckks::Ciphertext> cts, const ckks::RelinKey& rlk);

  /// square_relin_batch through a KeySource; same pin-once contract as the
  /// KeySource rotate_batch.
  std::vector<ckks::Ciphertext> square_relin_batch(
      std::span<const ckks::Ciphertext> cts, const ckks::KeySource& keys);

  // -- per-item-fault mode ----------------------------------------------------
  // One malformed ciphertext no longer aborts the batch: @p report records
  // each item's outcome in input order, failed slots come back as
  // default-constructed (empty) Ciphertexts, successes are the exact bytes
  // of the throwing overload.

  std::vector<ckks::Ciphertext> rotate_batch(
      std::span<const ckks::Ciphertext> cts, int step,
      const ckks::GaloisKeys& gks, BatchErrorReport& report);

  std::vector<ckks::Ciphertext> square_relin_batch(
      std::span<const ckks::Ciphertext> cts, const ckks::RelinKey& rlk,
      BatchErrorReport& report);

  /// Report-mode KeySource variants resolve the key PER ITEM inside the
  /// isolation boundary, so a key lookup / regeneration failure is
  /// recorded against the item that hit it (the same per-item failure
  /// semantics the eager report overloads have for evaluation errors).
  std::vector<ckks::Ciphertext> rotate_batch(
      std::span<const ckks::Ciphertext> cts, int step,
      const ckks::KeySource& keys, BatchErrorReport& report);

  std::vector<ckks::Ciphertext> square_relin_batch(
      std::span<const ckks::Ciphertext> cts, const ckks::KeySource& keys,
      BatchErrorReport& report);

 private:
  FanOutCore core_;
  ckks::Evaluator evaluator_;
  ScratchPool<ckks::KeySwitchScratch> scratch_;  // one per backend worker
};

}  // namespace abc::engine

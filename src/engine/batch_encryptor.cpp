#include "engine/batch_encryptor.hpp"

#include "common/failpoint.hpp"

namespace abc::engine {

BatchEncryptor::BatchEncryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                               ckks::PublicKey pk)
    : core_(ctx),
      encoder_(ctx),
      encryptor_(std::move(ctx), std::move(pk)),
      scratch_(core_.ctx()) {}

BatchEncryptor::BatchEncryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                               const ckks::SecretKey& sk)
    : core_(ctx),
      encoder_(ctx),
      encryptor_(std::move(ctx), sk),
      scratch_(core_.ctx()) {}

std::vector<ckks::Ciphertext> BatchEncryptor::run(
    std::size_t count,
    const std::function<ckks::Ciphertext(std::size_t, ckks::EncryptScratch&,
                                         u64)>& item) {
  // The whole id block is reserved before any item runs, so item i always
  // draws stream base + i; an empty batch reserves nothing.
  std::vector<ckks::Ciphertext> out(count);
  const u64 base = core_.reserve_stream_ids(count);
  core_.run(count, [&](std::size_t i, std::size_t worker) {
    ABC_FAILPOINT(fail::points::kEncryptItem);
    out[i] = item(i, scratch_.at(worker), base + i);
  });
  return out;
}

std::vector<ckks::Ciphertext> BatchEncryptor::encrypt_batch(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs) {
  return run(messages.size(), [&](std::size_t i,
                                  ckks::EncryptScratch& scratch, u64 id) {
    const ckks::Plaintext pt = encoder_.encode(messages[i], limbs);
    return encryptor_.encrypt_with(pt, id, scratch);
  });
}

std::vector<ckks::Ciphertext> BatchEncryptor::encrypt_batch(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs, BatchErrorReport& report) {
  // Ids are reserved exactly as in the throwing mode — base + i for every
  // item, failed or not — so surviving items consume the same streams a
  // fault-free batch would. A failed item leaves its slot as the
  // default-constructed Ciphertext it started as: encrypt_with() builds
  // the ciphertext in scratch-local storage and only a completed result is
  // move-assigned in.
  std::vector<ckks::Ciphertext> out(messages.size());
  const u64 base = core_.reserve_stream_ids(messages.size());
  report = core_.run_isolated(messages.size(), [&](std::size_t i,
                                                   std::size_t worker) {
    ABC_FAILPOINT(fail::points::kEncryptItem);
    const ckks::Plaintext pt = encoder_.encode(messages[i], limbs);
    out[i] = encryptor_.encrypt_with(pt, base + i, scratch_.at(worker));
  });
  return out;
}

std::vector<ckks::Ciphertext> BatchEncryptor::encrypt_real_batch(
    std::span<const std::vector<double>> messages, std::size_t limbs) {
  return run(messages.size(), [&](std::size_t i,
                                  ckks::EncryptScratch& scratch, u64 id) {
    const ckks::Plaintext pt = encoder_.encode_real(messages[i], limbs);
    return encryptor_.encrypt_with(pt, id, scratch);
  });
}

}  // namespace abc::engine

#include "prng/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

namespace abc::prng {

UniformModSampler::UniformModSampler(u64 modulus) : modulus_(modulus) {
  ABC_CHECK_ARG(modulus >= 2, "modulus must be >= 2");
  // reject_bound = floor(2^64 / q) * q, i.e. wrap-free region.
  ratio_ = (~u64{0}) / modulus;  // floor((2^64 - 1) / q)
  reject_bound_ = ratio_ * modulus;
  // If q divides 2^64 exactly this under-counts by one block, which only
  // tightens the bound; correctness is unaffected.
}

u64 UniformModSampler::sample(ChaCha20& rng) const {
  for (;;) {
    const u64 r = rng.next_u64();
    if (r < reject_bound_) return barrett_reduce_64(r, modulus_, ratio_);
  }
}

void UniformModSampler::sample_many(ChaCha20& rng, std::span<u64> out) const {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::span<const u8> buf = rng.buffered();
    const std::size_t k = std::min(buf.size() / 8, out.size() - i);
    if (k == 0) {  // the next word straddles a refill
      out[i++] = sample(rng);
      continue;
    }
    // Locals, so the stores into out cannot force reloads of the members.
    const u64 q = modulus_, ratio = ratio_, bound = reject_bound_;
    bool rejected = false;
    for (std::size_t j = 0; j < k; ++j) {
      u64 r = 0;
      std::memcpy(&r, buf.data() + 8 * j, 8);
      rejected |= r >= bound;
      out[i + j] = barrett_reduce_64(r, q, ratio);
    }
    if (rejected) {
      // Rare (about 2^-28 per word for a 36-bit prime): redo the batch
      // from the same keystream position, skipping rejected words exactly
      // as sample() does.
      for (std::size_t j = 0; j < k; ++j) out[i + j] = sample(rng);
    } else {
      rng.consume(8 * k);
    }
    i += k;
  }
}

i8 TernarySampler::sample(ChaCha20& rng) const {
  for (;;) {
    // Consume 2 bits; reject the fourth symbol for exact uniformity.
    const u32 bits = rng.next_u32() & 3;
    if (bits != 3) return static_cast<i8>(bits) - 1;
  }
}

void TernarySampler::sample_many(ChaCha20& rng, std::span<i8> out) const {
  // Pull 32 bits at a time and consume 2-bit symbols to avoid wasting
  // keystream (16 symbols per word, minus rejections).
  std::size_t i = 0;
  while (i < out.size()) {
    u32 word = rng.next_u32();
    for (int s = 0; s < 16 && i < out.size(); ++s) {
      const u32 bits = word & 3;
      word >>= 2;
      if (bits != 3) out[i++] = static_cast<i8>(bits) - 1;
    }
  }
}

DiscreteGaussianSampler::DiscreteGaussianSampler(double sigma) : sigma_(sigma) {
  ABC_CHECK_ARG(sigma > 0.1 && sigma < 64.0, "sigma out of supported range");
  tail_ = static_cast<int>(std::ceil(6.0 * sigma));
  // Build P(|X| <= k) for the discrete Gaussian on Z.
  // p(0) = c, p(k) = 2c*exp(-k^2 / (2 sigma^2)) for k >= 1.
  std::vector<double> weights(static_cast<std::size_t>(tail_) + 1);
  weights[0] = 1.0;
  double total = 1.0;
  for (int k = 1; k <= tail_; ++k) {
    const double w =
        2.0 * std::exp(-static_cast<double>(k) * k / (2.0 * sigma * sigma));
    weights[static_cast<std::size_t>(k)] = w;
    total += w;
  }
  cdf_.resize(weights.size());
  double acc = 0.0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    acc += weights[k] / total;
    const double scaled = acc * 0x1.0p63;
    cdf_[k] = scaled >= 0x1.0p63 ? ~u64{0} >> 1 : static_cast<u64>(scaled);
  }
  cdf_.back() = ~u64{0} >> 1;  // ensure full coverage
}

namespace {

/// One Gaussian sample from one keystream word: bit 0 is the sign, the
/// upper 63 bits u pick the magnitude as the count of cdf[k] <= u over
/// k < tail. The table is monotone, so that count is exactly where a linear
/// scan would stop; counting instead of scanning makes it branch-free.
inline i32 gaussian_from_word(u64 r, const u64* cdf, int tail) noexcept {
  const u64 u = r >> 1;
  i32 magnitude = 0;
  for (int k = 0; k < tail; ++k) magnitude += u >= cdf[k] ? 1 : 0;
  // Conditional negation; -0 == 0, so the sign is meaningless at zero.
  const i32 sign = -static_cast<i32>(r & 1);
  return (magnitude ^ sign) - sign;
}

}  // namespace

i32 DiscreteGaussianSampler::sample(ChaCha20& rng) const {
  return gaussian_from_word(rng.next_u64(), cdf_.data(), tail_);
}

void DiscreteGaussianSampler::sample_many(ChaCha20& rng,
                                          std::span<i32> out) const {
  const u64* cdf = cdf_.data();
  const int tail = tail_;
  for (i32& v : out) v = gaussian_from_word(rng.next_u64(), cdf, tail);
}

}  // namespace abc::prng

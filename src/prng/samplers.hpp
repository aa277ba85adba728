#pragma once

/// @file samplers.hpp
/// Distribution samplers for CKKS key generation and encryption. These are
/// the on-chip data the paper's PRNG produces: uniform ring elements
/// ("masks" / public randomness), ternary secrets, and small errors
/// (discrete Gaussian, sigma = 3.2 per the HE security guidelines).

#include <span>
#include <vector>

#include "prng/chacha20.hpp"

namespace abc::prng {

/// Rejection sampler for uniform values in [0, modulus): one 64-bit word
/// per draw, words >= reject_bound_ skipped, accepted words reduced mod q.
/// The reduction is a one-word Barrett (the one rns::Modulus::reduce uses)
/// rather than a division; it is exact, so the output is r % q.
class UniformModSampler {
 public:
  explicit UniformModSampler(u64 modulus);

  u64 sample(ChaCha20& rng) const;
  /// Same values, same keystream consumption as repeated sample(): whole
  /// buffered batches are bound-checked and reduced in one pass, and a
  /// batch holding a rejected word is redone word by word.
  void sample_many(ChaCha20& rng, std::span<u64> out) const;

 private:
  u64 modulus_;
  u64 ratio_;         // floor((2^64 - 1) / modulus)
  u64 reject_bound_;  // ratio_ * modulus: the wrap-free draw region
};

/// Uniform ternary secrets in {-1, 0, 1} (the common CKKS secret
/// distribution; 2 bits consumed per coefficient with rejection of '11').
class TernarySampler {
 public:
  i8 sample(ChaCha20& rng) const;
  void sample_many(ChaCha20& rng, std::span<i8> out) const;
};

/// Discrete Gaussian via a cumulative distribution table (CDT), the
/// standard constant-time-friendly hardware choice. Tail cut at 6 sigma.
class DiscreteGaussianSampler {
 public:
  explicit DiscreteGaussianSampler(double sigma = 3.2);

  double sigma() const noexcept { return sigma_; }
  int tail() const noexcept { return tail_; }

  i32 sample(ChaCha20& rng) const;
  void sample_many(ChaCha20& rng, std::span<i32> out) const;

 private:
  double sigma_;
  int tail_;
  // cdf_[k] = P(|X| <= k) scaled to 2^63 (table has ~20 entries).
  std::vector<u64> cdf_;
};

}  // namespace abc::prng

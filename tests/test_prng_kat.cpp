// Known-answer digests of every seeded sampler output. The keystream-to-
// coefficient mapping is part of the wire format: a server regenerates
// seeded c1 halves and key-switch a-halves from (seed, domain, stream id),
// so any change to the values below breaks every stored blob and every
// seeded regeneration. The digests were recorded from the one-block scalar
// ChaCha20 with %-based samplers; every kernel tier must still reproduce
// them exactly.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "ckks/keygen.hpp"
#include "prng/chacha20.hpp"
#include "prng/samplers.hpp"
#include "simd/simd_caps.hpp"

namespace abc {
namespace {

/// FNV-1a over the little-endian bytes of each 64-bit word.
struct Digest {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

u64 digest_poly(const poly::RnsPoly& p) {
  Digest d;
  for (std::size_t l = 0; l < p.limbs(); ++l) {
    for (u64 v : p.limb(l)) d.add(v);
  }
  return d.h;
}

struct FillDigests {
  u64 uniform;
  u64 gaussian;
  u64 ternary;
};

FillDigests fill_digests(const ckks::CkksContext& ctx) {
  const std::size_t limbs = ctx.max_limbs();
  poly::RnsPoly a = ctx.make_poly(limbs, poly::Domain::kEval);
  ckks::fill_uniform_eval(ctx, a, ckks::PrngDomain::kSymmetricA, 0x2a0007);
  poly::RnsPoly e = ctx.make_poly(limbs, poly::Domain::kCoeff);
  ckks::fill_gaussian_coeff(ctx, e, ckks::PrngDomain::kSymmetricError,
                            0x2a0007);
  poly::RnsPoly s = ctx.make_poly(limbs, poly::Domain::kCoeff);
  ckks::fill_ternary_coeff(ctx, s, ckks::PrngDomain::kSecretKey, 3);
  return {digest_poly(a), digest_poly(e), digest_poly(s)};
}

u64 chacha_4k_digest() {
  const std::array<u8, 16> seed = {0x41, 0x42, 0x43, 0x2d, 0x46, 0x48,
                                   0x45, 0x21, 0x00, 0x01, 0x02, 0x03,
                                   0x04, 0x05, 0x06, 0x07};
  prng::ChaCha20 rng(seed, 0x0123456789abcdefull, /*domain=*/6);
  std::vector<u8> bytes(4096);
  rng.fill_bytes(bytes);
  Digest d;
  for (u8 b : bytes) d.add(b);
  return d.h;
}

/// Standalone Gaussian draws across sigmas: small sigmas cap the
/// magnitude at a short tail, large ones run a long CDT.
u64 gaussian_sweep_digest() {
  Digest d;
  for (double sigma : {0.5, 1.0, 3.2, 6.4, 20.0}) {
    const prng::DiscreteGaussianSampler sampler(sigma);
    prng::ChaCha20 rng({0x5a}, static_cast<u64>(sigma * 10), 7);
    std::vector<i32> out(4096);
    sampler.sample_many(rng, out);
    for (i32 v : out) d.add(static_cast<u64>(static_cast<i64>(v)));
  }
  return d.h;
}

/// 28-bit primes: below 2^31, so i32 samples need a real reduction when
/// they are expanded into the limbs.
ckks::CkksParams narrow_primes() {
  ckks::CkksParams p = ckks::CkksParams::test_small(10, 4);
  p.prime_bits = 28;
  p.scale_bits = 20;
  return p;
}

/// Every tier selectable on this host (the env vetoes included).
std::vector<simd::KernelArch> selectable_arches() {
  std::vector<simd::KernelArch> arches = {simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) arches.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable()) {
    arches.push_back(simd::KernelArch::kAvx512Ifma);
  }
  return arches;
}

struct ArchGuard {
  ~ArchGuard() {
    simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
  }
};

// Recorded from the one-block scalar keystream and the %-based samplers.
constexpr u64 kChaCha4kDigest = 0xd9054ce681ac571dull;
constexpr FillDigests kBootstrappable = {
    0x406f39ed9849fb12ull, 0x2546ad7536142a6dull, 0xa5d9da6494fcf109ull};
constexpr FillDigests kSmall = {
    0x825bb9d6ffd0d061ull, 0x9a626bd53129ec3cull, 0xa5d3fcb2072bcd1cull};
constexpr FillDigests kNarrow = {
    0x62e5765b7b87eb8cull, 0x34aeca54b438e6eaull, 0x5a06d200041b758full};
constexpr u64 kGaussianSweepDigest = 0xd0307479fa79652aull;

void expect_fills(const ckks::CkksParams& params, const FillDigests& want) {
  const auto ctx = ckks::CkksContext::create(params);
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    const FillDigests got = fill_digests(*ctx);
    const char* name = simd::kernel_arch_name(arch);
    EXPECT_EQ(got.uniform, want.uniform) << name << std::hex << " 0x"
                                         << got.uniform;
    EXPECT_EQ(got.gaussian, want.gaussian) << name << std::hex << " 0x"
                                           << got.gaussian;
    EXPECT_EQ(got.ternary, want.ternary) << name << std::hex << " 0x"
                                         << got.ternary;
  }
}

TEST(PrngKnownAnswer, ChaChaFirst4KiB) {
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    const u64 got = chacha_4k_digest();
    EXPECT_EQ(got, kChaCha4kDigest)
        << simd::kernel_arch_name(arch) << std::hex << " 0x" << got;
  }
}

TEST(PrngKnownAnswer, BootstrappableFills) {
  expect_fills(ckks::CkksParams::bootstrappable(), kBootstrappable);
}

TEST(PrngKnownAnswer, SmallParamFills) {
  expect_fills(ckks::CkksParams::test_small(), kSmall);
}

TEST(PrngKnownAnswer, NarrowPrimeFills) {
  expect_fills(narrow_primes(), kNarrow);
}

TEST(PrngKnownAnswer, GaussianSigmaSweep) {
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    const u64 got = gaussian_sweep_digest();
    EXPECT_EQ(got, kGaussianSweepDigest)
        << simd::kernel_arch_name(arch) << std::hex << " 0x" << got;
  }
}

}  // namespace
}  // namespace abc

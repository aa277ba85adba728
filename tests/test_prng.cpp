#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "ckks/keygen.hpp"
#include "common/stats.hpp"
#include "prng/chacha20.hpp"
#include "prng/samplers.hpp"
#include "simd/chacha_kernels.hpp"
#include "simd/simd_caps.hpp"

namespace abc::prng {
namespace {

TEST(ChaCha20Block, Rfc8439TestVector) {
  // RFC 8439 Section 2.3.2 test vector.
  std::array<u32, 8> key;
  for (int i = 0; i < 8; ++i) {
    // key bytes 00 01 02 ... 1f, little-endian words
    key[static_cast<std::size_t>(i)] =
        static_cast<u32>(4 * i) | (static_cast<u32>(4 * i + 1) << 8) |
        (static_cast<u32>(4 * i + 2) << 16) |
        (static_cast<u32>(4 * i + 3) << 24);
  }
  const std::array<u32, 3> nonce = {0x09000000u, 0x4a000000u, 0x00000000u};
  std::array<u8, 64> out{};
  chacha20_block(key, 1, nonce, out);
  const std::array<u8, 64> expected = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_EQ(out, expected);
}

/// Every kernel tier selectable on this host (env vetoes included).
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

const std::array<u32, 8> kKey = {0x03020100u, 0x07060504u, 0x0b0a0908u,
                                 0x0f0e0d0cu, 0xfcfdfeffu, 0xf8f9fafbu,
                                 0xf4f5f6f7u, 0xf0f1f2f3u};
const std::array<u32, 3> kNonce = {6u, 0x89abcdefu, 0x01234567u};

/// Keystream bytes of blocks counter, counter + 1, ... from one-block
/// calls (the u32 counter wrapping).
std::vector<u8> one_block_reference(u32 counter, std::size_t nblocks,
                                    const std::array<u32, 8>& key = kKey,
                                    const std::array<u32, 3>& nonce = kNonce) {
  std::vector<u8> out(64 * nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    chacha20_block(key, counter + static_cast<u32>(b), nonce,
                   std::span<u8, 64>(out.data() + 64 * b, 64));
  }
  return out;
}

TEST(ChaCha20Blocks, MatchOneBlockCallsOnEveryTier) {
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    for (u32 counter : {0u, 5u, 0xFFFFFFF0u}) {
      for (std::size_t nblocks : {1, 7, 9, 15, 17, 33}) {
        // One guard block past the end must stay untouched.
        std::vector<u8> got(64 * (nblocks + 1), 0xA5);
        simd::chacha20_blocks(kKey.data(), counter, kNonce.data(), got.data(),
                              nblocks);
        const std::vector<u8> want = one_block_reference(counter, nblocks);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << simd::kernel_arch_name(arch) << " counter=" << counter
            << " nblocks=" << nblocks;
        EXPECT_TRUE(std::all_of(got.end() - 64, got.end(),
                                [](u8 b) { return b == 0xA5; }))
            << simd::kernel_arch_name(arch) << " wrote past nblocks";
      }
    }
  }
}

TEST(ChaCha20, MixedReadsMatchOneBlockReference) {
  // Reads of every width straddle the 16-block refill boundary and the
  // direct-to-caller path of fill_bytes; the bytes must still be the
  // one-block keystream in order.
  const std::array<u8, 16> seed = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05,
                                   0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                                   0x0c, 0x0d, 0x0e, 0x0f};
  // The ChaCha20 key is seed || ~seed; the nonce is (domain, id lo, id hi).
  std::array<u32, 8> key{};
  for (int i = 0; i < 4; ++i) {
    std::memcpy(&key[i], seed.data() + 4 * i, 4);
    key[i + 4] = ~key[i];
  }
  const u64 stream_id = 0x0123456789abcdefull;
  const std::vector<u8> ref = one_block_reference(
      0, 160, key,
      {6u, static_cast<u32>(stream_id), static_cast<u32>(stream_id >> 32)});
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    ChaCha20 rng(seed, stream_id, /*domain=*/6);
    std::size_t pos = 0;
    const auto expect_bytes = [&](const u8* got, std::size_t len) {
      ASSERT_LE(pos + len, ref.size());
      EXPECT_EQ(std::memcmp(got, ref.data() + pos, len), 0)
          << simd::kernel_arch_name(arch) << " at byte " << pos;
      pos += len;
    };
    const std::size_t odd_lengths[] = {1, 3, 61, 1021, 7, 2500, 13, 64, 5};
    for (int round = 0; pos + 4000 < ref.size(); ++round) {
      const u32 a = rng.next_u32();
      expect_bytes(reinterpret_cast<const u8*>(&a), 4);
      const u64 b = rng.next_u64();
      expect_bytes(reinterpret_cast<const u8*>(&b), 8);
      std::vector<u8> chunk(odd_lengths[round % 9]);
      rng.fill_bytes(chunk);
      expect_bytes(chunk.data(), chunk.size());
      // Word reads across the next refill boundary, at a shifted offset.
      for (int i = 0; i < 200; ++i) {
        const u64 w = rng.next_u64();
        expect_bytes(reinterpret_cast<const u8*>(&w), 8);
      }
    }
  }
}

TEST(ChaCha20, DeterministicAndStreamSeparated) {
  const std::array<u8, 16> seed = {1, 2, 3, 4, 5, 6, 7, 8,
                                   9, 10, 11, 12, 13, 14, 15, 16};
  ChaCha20 a(seed, 0), b(seed, 0), c(seed, 1), d(seed, 0, /*domain=*/7);
  for (int i = 0; i < 100; ++i) {
    const u64 va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    EXPECT_NE(va, c.next_u64());
    EXPECT_NE(va, d.next_u64());
  }
}

TEST(ChaCha20, PrngDomainTagsAreDisjointStreams) {
  // Every PrngDomain consumer must sit on its own keystream: the domain
  // word is part of the ChaCha nonce, so equal (seed, stream id) pairs
  // under different domains never collide. Enumerates the full domain map
  // (documented in docs/ARCHITECTURE.md) to catch an accidentally reused
  // tag when a new domain is added.
  using ckks::PrngDomain;
  const std::array<u8, 16> seed = {3, 1, 4, 1, 5, 9, 2, 6,
                                   5, 3, 5, 8, 9, 7, 9, 3};
  const std::array<PrngDomain, 11> domains = {
      PrngDomain::kSecretKey,   PrngDomain::kPublicA,
      PrngDomain::kKeygenError, PrngDomain::kEncryptMask,
      PrngDomain::kEncryptError, PrngDomain::kSymmetricA,
      PrngDomain::kSymmetricError, PrngDomain::kRelinA,
      PrngDomain::kRelinError,  PrngDomain::kGaloisA,
      PrngDomain::kGaloisError};
  std::vector<u64> first_words;
  for (PrngDomain d : domains) {
    ChaCha20 rng(seed, /*stream_id=*/0, static_cast<u32>(d));
    first_words.push_back(rng.next_u64());
  }
  for (std::size_t i = 0; i < domains.size(); ++i) {
    EXPECT_NE(static_cast<u32>(domains[i]), 0u);  // 0 is the default domain
    for (std::size_t j = i + 1; j < domains.size(); ++j) {
      EXPECT_NE(static_cast<u32>(domains[i]), static_cast<u32>(domains[j]));
      EXPECT_NE(first_words[i], first_words[j]) << i << " vs " << j;
    }
  }
}

TEST(ChaCha20, DoubleInUnitInterval) {
  ChaCha20 rng({}, 0);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(ChaCha20, ByteUniformityChiSquared) {
  ChaCha20 rng({42}, 3);
  std::array<u64, 256> hist{};
  constexpr int kSamples = 1 << 16;
  std::vector<u8> buf(kSamples);
  rng.fill_bytes(buf);
  for (u8 b : buf) ++hist[b];
  const double expected = kSamples / 256.0;
  double chi2 = 0;
  for (u64 h : hist) {
    const double d = static_cast<double>(h) - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, sd ~22.6. Accept +/- 6 sigma.
  EXPECT_GT(chi2, 255 - 6 * 22.6);
  EXPECT_LT(chi2, 255 + 6 * 22.6);
}

TEST(UniformModSampler, BoundsAndUniformity) {
  const u64 q = (u64{1} << 36) - (u64{1} << 18) + 1;
  UniformModSampler sampler(q);
  ChaCha20 rng({9}, 0);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    const u64 v = sampler.sample(rng);
    ASSERT_LT(v, q);
    s.add(static_cast<double>(v) / static_cast<double>(q));
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(UniformModSampler, BatchMatchesSequentialAndRemainder) {
  // Near 2^63 half the words are rejected, so sample_many's per-batch
  // fallback runs constantly (36-bit primes almost never reach it). The
  // batched path must return the same values, and leave the stream at the
  // same position, as repeated sample() and as the plain r % q rule.
  const std::vector<u64> moduli = {
      3,
      (u64{1} << 36) - (u64{1} << 18) + 1,
      (u64{1} << 62) - 57,
      (u64{1} << 63) + 29,  // reject_bound = q: ~50% rejection
      ~u64{0} - 58};
  for (u64 q : moduli) {
    for (bool misalign : {false, true}) {
      const UniformModSampler sampler(q);
      ChaCha20 batched({7, 7}, q), sequential({7, 7}, q), plain({7, 7}, q);
      if (misalign) {  // words then straddle every refill boundary
        batched.next_u32();
        sequential.next_u32();
        plain.next_u32();
      }
      std::vector<u64> got(3001);
      sampler.sample_many(batched, got);
      const u64 bound = (~u64{0} / q) * q;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], sampler.sample(sequential)) << q << " @" << i;
        u64 r = plain.next_u64();
        while (r >= bound) r = plain.next_u64();
        ASSERT_EQ(got[i], r % q) << q << " @" << i;
      }
      const u64 next = batched.next_u64();
      EXPECT_EQ(next, sequential.next_u64()) << q;
      EXPECT_EQ(next, plain.next_u64()) << q;
    }
  }
}

TEST(UniformFill, StreamIdBeyond48BitsThrows) {
  // The limb index owns the low 16 bits of the ChaCha stream selector;
  // a larger id would lose its top bits and alias another stream.
  const auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small());
  poly::RnsPoly p = ctx->make_poly(ctx->max_limbs(), poly::Domain::kEval);
  EXPECT_NO_THROW(ckks::fill_uniform_eval(*ctx, p, ckks::PrngDomain::kPublicA,
                                          ckks::kUniformStreamIdLimit - 1));
  EXPECT_THROW(ckks::fill_uniform_eval(*ctx, p, ckks::PrngDomain::kPublicA,
                                       ckks::kUniformStreamIdLimit),
               InvalidArgument);
  EXPECT_THROW(ckks::fill_uniform_eval(*ctx, p, ckks::PrngDomain::kPublicA,
                                       ~u64{0}),
               InvalidArgument);
}

TEST(TernarySampler, BalancedDistribution) {
  TernarySampler sampler;
  ChaCha20 rng({5}, 0);
  std::vector<i8> out(60000);
  sampler.sample_many(rng, out);
  std::map<i8, int> hist;
  for (i8 v : out) ++hist[v];
  ASSERT_EQ(hist.size(), 3u);
  for (auto [value, count] : hist) {
    EXPECT_GE(value, -1);
    EXPECT_LE(value, 1);
    EXPECT_NEAR(count, 20000, 800);  // ~5 sigma of binomial(60000, 1/3)
  }
}

TEST(DiscreteGaussian, MomentsMatchSigma) {
  DiscreteGaussianSampler sampler(3.2);
  ChaCha20 rng({17}, 0);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.add(static_cast<double>(sampler.sample(rng)));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.2, 0.08);
  EXPECT_LE(std::abs(s.max()), sampler.tail());
  EXPECT_LE(std::abs(s.min()), sampler.tail());
}

TEST(DiscreteGaussian, TailCutRespected) {
  DiscreteGaussianSampler sampler(0.5);
  ChaCha20 rng({23}, 0);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(std::abs(sampler.sample(rng)), sampler.tail());
  }
}

TEST(DiscreteGaussian, SigmaSweepIsConsistent) {
  for (double sigma : {1.0, 2.0, 3.2, 6.4}) {
    DiscreteGaussianSampler sampler(sigma);
    ChaCha20 rng({static_cast<u8>(sigma * 10)}, 0);
    RunningStats s;
    for (int i = 0; i < 40000; ++i) {
      s.add(static_cast<double>(sampler.sample(rng)));
    }
    EXPECT_NEAR(s.stddev(), sigma, 0.05 * sigma + 0.02) << sigma;
  }
}

}  // namespace
}  // namespace abc::prng

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "common/math_util.hpp"
#include "rns/modulus.hpp"
#include "rns/ntt_prime.hpp"

namespace abc::rns {
namespace {

class ModulusParamTest : public ::testing::TestWithParam<u64> {};

TEST_P(ModulusParamTest, ReduceMatchesNaive) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const u64 x = rng();
    EXPECT_EQ(q.reduce(x), x % q.value());
  }
}

TEST_P(ModulusParamTest, Reduce128MatchesNaive) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(43);
  for (int i = 0; i < 2000; ++i) {
    const u128 x = (static_cast<u128>(rng()) << 64) | rng();
    EXPECT_EQ(q.reduce_128(x), static_cast<u64>(x % q.value()));
  }
}

TEST_P(ModulusParamTest, MulAddSubRoundtrip) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(44);
  for (int i = 0; i < 2000; ++i) {
    const u64 a = rng() % q.value();
    const u64 b = rng() % q.value();
    EXPECT_EQ(q.mul(a, b), mul_mod_u64(a, b, q.value()));
    EXPECT_EQ(q.add(a, b), add_mod_u64(a, b, q.value()));
    EXPECT_EQ(q.sub(a, b), sub_mod_u64(a, b, q.value()));
    EXPECT_EQ(q.add(q.sub(a, b), b), a);
    EXPECT_EQ(q.add(a, q.negate(a)), 0u);
  }
}

TEST_P(ModulusParamTest, ShoupMatchesBarrett) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(45);
  for (int i = 0; i < 500; ++i) {
    const u64 w = rng() % q.value();
    const ShoupMul sm = ShoupMul::make(w, q);
    for (int j = 0; j < 10; ++j) {
      const u64 x = rng() % q.value();
      EXPECT_EQ(sm.mul(x, q.value()), q.mul(x, w));
    }
  }
}

TEST_P(ModulusParamTest, PowAndInv) {
  const Modulus q(GetParam());
  if (!is_prime_u64(q.value())) GTEST_SKIP();
  std::mt19937_64 rng(46);
  for (int i = 0; i < 100; ++i) {
    const u64 a = 1 + rng() % (q.value() - 1);
    EXPECT_EQ(q.pow(a, q.value() - 1), 1u);
    EXPECT_EQ(q.mul(a, q.inv(a)), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariousModuli, ModulusParamTest,
    ::testing::Values(
        // Small, odd composite, 36-bit NTT prime, 44-bit, near-62-bit prime.
        u64{3}, u64{255}, u64{68719403009ull},  // 2^36 - 2^17 + 1... see below
        (u64{1} << 36) - (u64{1} << 18) + 1,    // sparse candidate
        (u64{1} << 44) - 65535,
        u64{4611686018427387847ull}));  // prime < 2^62

TEST(Modulus, RejectsBadValues) {
  EXPECT_THROW(Modulus(0), InvalidArgument);
  EXPECT_THROW(Modulus(1), InvalidArgument);
  EXPECT_THROW(Modulus(u64{1} << 63), InvalidArgument);
}

TEST(Modulus, CenteredRepresentation) {
  const Modulus q(17);
  EXPECT_EQ(q.to_centered(0), 0);
  EXPECT_EQ(q.to_centered(8), 8);
  EXPECT_EQ(q.to_centered(9), -8);
  EXPECT_EQ(q.to_centered(16), -1);
  for (i64 x = -40; x <= 40; ++x) {
    EXPECT_EQ(q.from_signed(x), static_cast<u64>(((x % 17) + 17) % 17));
  }
}

TEST(Modulus, FromSignedMatchesRemainderAtEdges) {
  // The division-free from_signed must agree with the %-based mapping it
  // replaced, for every i64 — including INT64_MIN, whose magnitude 2^63
  // has no i64 representation.
  const auto reference = [](i64 x, u64 q) {
    i64 r = x % static_cast<i64>(q);
    if (r < 0) r += static_cast<i64>(q);
    return static_cast<u64>(r);
  };
  constexpr i64 kMin = std::numeric_limits<i64>::min();
  constexpr i64 kMax = std::numeric_limits<i64>::max();
  constexpr i64 kMin32 = std::numeric_limits<i32>::min();
  constexpr i64 kMax32 = std::numeric_limits<i32>::max();
  std::mt19937_64 rng(47);
  for (int bits = 20; bits <= 60; ++bits) {
    const Modulus q(select_prime_chain(bits, 4, 1)[0]);
    ASSERT_EQ(q.bit_count(), bits);
    const i64 qi = static_cast<i64>(q.value());
    std::vector<i64> xs = {kMin,     kMin + 1, kMax,   kMax - 1, qi,
                           -qi,      qi - 1,   1 - qi, qi + 1,   -qi - 1,
                           2 * qi,   -2 * qi,  -1,     0,        1,
                           kMin32,   kMax32,   kMin32 + 1, kMax32 - 1};
    for (int i = 0; i < 200; ++i) xs.push_back(static_cast<i64>(rng()));
    for (i64 x : xs) {
      EXPECT_EQ(q.from_signed(x), reference(x, q.value()))
          << "bits=" << bits << " x=" << x;
      // The unsigned Barrett under it, on the same bit patterns.
      const u64 u = static_cast<u64>(x);
      EXPECT_EQ(q.reduce(u), u % q.value()) << "bits=" << bits << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace abc::rns

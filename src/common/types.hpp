#pragma once

/// @file types.hpp
/// Fixed-width integer aliases used across the ABC-FHE code base.
///
/// The library manipulates 36-bit RNS limbs, 44-bit datapath words and
/// 128-bit intermediate products, so the 128-bit compiler extensions are
/// wrapped here once.

#include <cstddef>
#include <cstdint>

namespace abc {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

// GCC/Clang built-in 128-bit integers; required for Barrett/Montgomery
// reduction of 72..88-bit products.
using u128 = unsigned __int128;
using i128 = __int128;

/// Low/high 64-bit halves of a 128-bit value.
constexpr u64 lo64(u128 x) noexcept { return static_cast<u64>(x); }
constexpr u64 hi64(u128 x) noexcept { return static_cast<u64>(x >> 64); }

/// Full 64x64 -> 128-bit product.
constexpr u128 mul_wide(u64 a, u64 b) noexcept {
  return static_cast<u128>(a) * static_cast<u128>(b);
}

/// High 64 bits of a 64x64 product.
constexpr u64 mul_hi(u64 a, u64 b) noexcept { return hi64(mul_wide(a, b)); }

/// x mod q by one-word Barrett, exact for any x and any q >= 2, given
/// ratio = floor(2^64 / q) or floor((2^64 - 1) / q). Either ratio is at
/// least (2^64 - q) / q, so the quotient estimate mul_hi(x, ratio) is at
/// most one below floor(x / q) and never above it: one conditional
/// subtraction finishes the reduction.
constexpr u64 barrett_reduce_64(u64 x, u64 q, u64 ratio) noexcept {
  const u64 r = x - mul_hi(x, ratio) * q;
  return r >= q ? r - q : r;
}

}  // namespace abc

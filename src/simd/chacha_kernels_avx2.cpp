/// AVX2 8-way ChaCha20 keystream. Compiled with -mavx2 on x86-64 (see
/// CMakeLists); on other targets this TU degrades to a portable forwarder
/// and the dispatcher never routes here (avx2_compiled() is false).
///
/// Register w holds state word w of eight consecutive blocks (lane j is
/// block counter + j); after the 20 rounds and the feed-forward add, two
/// 8x8 32-bit transposes (words 0-7 and 8-15) turn the columns back into
/// per-block rows for contiguous stores.

#include <cstring>

#include "simd/chacha_kernels.hpp"
#include "simd/kernels_avx2.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace abc::simd {
namespace {

constexpr std::size_t kLanes = 8;

inline __m256i add(__m256i a, __m256i b) { return _mm256_add_epi32(a, b); }

/// Rotations by whole bytes are one in-lane byte shuffle; 12 and 7 take
/// two shifts and an or.
inline __m256i rotl16(__m256i x) {
  const __m256i idx = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, idx);
}
inline __m256i rotl8(__m256i x) {
  const __m256i idx = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, idx);
}
template <int R>
inline __m256i rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, R), _mm256_srli_epi32(x, 32 - R));
}

inline void quarter_round(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  a = add(a, b); d = _mm256_xor_si256(d, a); d = rotl16(d);
  c = add(c, d); b = _mm256_xor_si256(b, c); b = rotl<12>(b);
  a = add(a, b); d = _mm256_xor_si256(d, a); d = rotl8(d);
  c = add(c, d); b = _mm256_xor_si256(b, c); b = rotl<7>(b);
}

inline void store(u8* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// a[i] holds word w0 + i of blocks 0..7; writes those eight words of
/// block j to out + 64 * j.
void store_transposed(const __m256i* a, u8* out) {
  const __m256i t0 = _mm256_unpacklo_epi32(a[0], a[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(a[0], a[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(a[2], a[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(a[2], a[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(a[4], a[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(a[4], a[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(a[6], a[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(a[6], a[7]);
  // u_m: 128-bit lane 0 = words 0-3 of block m, lane 1 = of block m + 4
  // (u_{m+4}: words 4-7 of the same blocks).
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  store(out + 64 * 0, _mm256_permute2x128_si256(u0, u4, 0x20));
  store(out + 64 * 1, _mm256_permute2x128_si256(u1, u5, 0x20));
  store(out + 64 * 2, _mm256_permute2x128_si256(u2, u6, 0x20));
  store(out + 64 * 3, _mm256_permute2x128_si256(u3, u7, 0x20));
  store(out + 64 * 4, _mm256_permute2x128_si256(u0, u4, 0x31));
  store(out + 64 * 5, _mm256_permute2x128_si256(u1, u5, 0x31));
  store(out + 64 * 6, _mm256_permute2x128_si256(u2, u6, 0x31));
  store(out + 64 * 7, _mm256_permute2x128_si256(u3, u7, 0x31));
}

/// Blocks counter .. counter + 7 into out[0, 512).
void eight_blocks(const u32* key, u32 counter, const u32* nonce, u8* out) {
  const auto splat = [](u32 v) {
    return _mm256_set1_epi32(static_cast<int>(v));
  };
  __m256i s[16] = {
      splat(0x61707865u), splat(0x3320646eu), splat(0x79622d32u),
      splat(0x6b206574u), splat(key[0]),      splat(key[1]),
      splat(key[2]),      splat(key[3]),      splat(key[4]),
      splat(key[5]),      splat(key[6]),      splat(key[7]),
      add(splat(counter), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
      splat(nonce[0]),    splat(nonce[1]),    splat(nonce[2]),
  };
  __m256i x[16];
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] = add(x[i], s[i]);
  store_transposed(x, out);
  store_transposed(x + 8, out + 32);
}

}  // namespace

void chacha20_blocks_avx2(const u32* key, u32 counter, const u32* nonce,
                          u8* out, std::size_t nblocks) {
  std::size_t b = 0;
  for (; b + kLanes <= nblocks; b += kLanes) {
    eight_blocks(key, counter + static_cast<u32>(b), nonce, out + 64 * b);
  }
  if (b < nblocks) {
    alignas(32) u8 tail[64 * kLanes];
    eight_blocks(key, counter + static_cast<u32>(b), nonce, tail);
    std::memcpy(out + 64 * b, tail, 64 * (nblocks - b));
  }
}

}  // namespace abc::simd

#else  // !__AVX2__: portable forwarder, never selected at runtime.

namespace abc::simd {

void chacha20_blocks_avx2(const u32* key, u32 counter, const u32* nonce,
                          u8* out, std::size_t nblocks) {
  chacha20_blocks_portable(key, counter, nonce, out, nblocks);
}

}  // namespace abc::simd

#endif

/// AVX-512 16-way ChaCha20 keystream. Compiled with the AVX-512 tier's
/// flags (see CMakeLists) though it needs only AVX-512F (vprold, 128-bit
/// lane shuffles); when the toolchain rejects them this TU degrades to an
/// AVX2 forwarder, and the dispatcher never routes here anyway
/// (avx512ifma_compiled() is false).
///
/// Register w holds state word w of sixteen consecutive blocks. The 16x16
/// 32-bit transpose back to per-block rows is two unpack stages (4x4
/// within each 128-bit lane) followed by a 4x4 transpose of the 128-bit
/// lanes themselves with two rounds of shuffle_i32x4.

#include <cstring>

#include "simd/chacha_kernels.hpp"
#include "simd/kernels_avx2.hpp"
#include "simd/kernels_avx512.hpp"

#if defined(__AVX512F__)

// GCC 12's AVX-512 headers seed the unmasked intrinsics with
// _mm512_undefined_*(), which -W(maybe-)uninitialized flags spuriously.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace abc::simd {
namespace {

constexpr std::size_t kLanes = 16;

inline __m512i add(__m512i a, __m512i b) { return _mm512_add_epi32(a, b); }

inline void quarter_round(__m512i& a, __m512i& b, __m512i& c, __m512i& d) {
  a = add(a, b); d = _mm512_xor_si512(d, a); d = _mm512_rol_epi32(d, 16);
  c = add(c, d); b = _mm512_xor_si512(b, c); b = _mm512_rol_epi32(b, 12);
  a = add(a, b); d = _mm512_xor_si512(d, a); d = _mm512_rol_epi32(d, 8);
  c = add(c, d); b = _mm512_xor_si512(b, c); b = _mm512_rol_epi32(b, 7);
}

/// x[w] holds word w of blocks 0..15; writes block j to out + 64 * j.
void store_transposed(const __m512i* x, u8* out) {
  __m512i t[16];
  for (int k = 0; k < 16; k += 2) {
    t[k] = _mm512_unpacklo_epi32(x[k], x[k + 1]);
    t[k + 1] = _mm512_unpackhi_epi32(x[k], x[k + 1]);
  }
  // u[4g + m], 128-bit lane l: words 4g .. 4g+3 of block 4l + m.
  __m512i u[16];
  for (int g = 0; g < 16; g += 4) {
    u[g + 0] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
    u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
    u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
    u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  // Block 4l + m gathers lane l of u[m], u[4+m], u[8+m], u[12+m].
  for (int m = 0; m < 4; ++m) {
    const __m512i p0 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0x44);
    const __m512i p1 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0xEE);
    const __m512i p2 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0x44);
    const __m512i p3 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0xEE);
    u8* block_m = out + 64 * m;
    _mm512_storeu_si512(block_m, _mm512_shuffle_i32x4(p0, p2, 0x88));
    _mm512_storeu_si512(block_m + 64 * 4, _mm512_shuffle_i32x4(p0, p2, 0xDD));
    _mm512_storeu_si512(block_m + 64 * 8, _mm512_shuffle_i32x4(p1, p3, 0x88));
    _mm512_storeu_si512(block_m + 64 * 12, _mm512_shuffle_i32x4(p1, p3, 0xDD));
  }
}

/// Blocks counter .. counter + 15 into out[0, 1024).
void sixteen_blocks(const u32* key, u32 counter, const u32* nonce, u8* out) {
  const auto splat = [](u32 v) {
    return _mm512_set1_epi32(static_cast<int>(v));
  };
  __m512i s[16] = {
      splat(0x61707865u), splat(0x3320646eu), splat(0x79622d32u),
      splat(0x6b206574u), splat(key[0]),      splat(key[1]),
      splat(key[2]),      splat(key[3]),      splat(key[4]),
      splat(key[5]),      splat(key[6]),      splat(key[7]),
      add(splat(counter), _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                            10, 11, 12, 13, 14, 15)),
      splat(nonce[0]),    splat(nonce[1]),    splat(nonce[2]),
  };
  __m512i x[16];
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
}

}  // namespace

void chacha20_blocks_avx512(const u32* key, u32 counter, const u32* nonce,
                            u8* out, std::size_t nblocks) {
  std::size_t b = 0;
  for (; b + kLanes <= nblocks; b += kLanes) {
    sixteen_blocks(key, counter + static_cast<u32>(b), nonce, out + 64 * b);
  }
  if (b < nblocks) {
    alignas(64) u8 tail[64 * kLanes];
    sixteen_blocks(key, counter + static_cast<u32>(b), nonce, tail);
    std::memcpy(out + 64 * b, tail, 64 * (nblocks - b));
  }
}

}  // namespace abc::simd

#else  // AVX-512 flags unavailable: AVX2 forwarder, never selected at
       // runtime.

namespace abc::simd {

void chacha20_blocks_avx512(const u32* key, u32 counter, const u32* nonce,
                            u8* out, std::size_t nblocks) {
  chacha20_blocks_avx2(key, counter, nonce, out, nblocks);
}

}  // namespace abc::simd

#endif

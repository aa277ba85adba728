#pragma once

/// @file chacha_kernels.hpp
/// Multi-block ChaCha20 keystream kernels (portable, AVX2, AVX-512),
/// behind the same runtime dispatcher as the NTT and dyadic kernels.
///
/// One call produces `nblocks` consecutive RFC 8439 blocks for
/// (key, counter + i, nonce), i = 0 .. nblocks-1, with the 32-bit block
/// counter wrapping mod 2^32 exactly as successive one-block calls do. The
/// SIMD tiers run the block function "vertically": state word w of 8
/// (AVX2) or 16 (AVX-512) consecutive blocks sits in one register, so a
/// quarter round is a handful of lane-wise add/xor/rotate instructions for
/// all blocks at once; a 32-bit transpose then writes each block's 64
/// bytes back in keystream order. A trailing partial group is computed as
/// a full group into a stack buffer and its prefix copied, so every tier
/// emits byte-identical keystream for any nblocks.

#include <cstddef>

#include "common/types.hpp"

namespace abc::simd {

/// Keystream for blocks counter .. counter + nblocks - 1 into
/// out[0 .. 64 * nblocks). key has 8 words, nonce 3 (RFC 8439 layout).
/// Dispatches to the active kernel arch (simd_caps.hpp).
void chacha20_blocks(const u32* key, u32 counter, const u32* nonce, u8* out,
                     std::size_t nblocks);

/// Scalar reference: one block function call per block.
void chacha20_blocks_portable(const u32* key, u32 counter, const u32* nonce,
                              u8* out, std::size_t nblocks);

}  // namespace abc::simd

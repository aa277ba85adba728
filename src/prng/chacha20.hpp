#pragma once

/// @file chacha20.hpp
/// ChaCha20 stream generator (RFC 8439 block function).
///
/// ABC-FHE keeps only a 128-bit seed on-chip and expands all masks, errors
/// and key material with a PRNG (paper Sec. IV-B). We model that PRNG with
/// ChaCha20: the 128-bit seed is expanded into the 256-bit ChaCha key by
/// concatenating it with its byte-wise complement, and independent streams
/// (mask / error / key, per limb) are separated through the nonce words.
///
/// Keystream is produced 16 blocks at a time by the multi-block kernels in
/// simd/chacha_kernels.hpp (16 or 8 blocks per SIMD pass, one per scalar
/// call), so the generator keeps pace with the samplers. Buffering changes
/// only when blocks are computed, never which bytes a read returns: the
/// stream is byte-identical to successive one-block calls on every kernel
/// tier.

#include <array>
#include <cstring>
#include <span>

#include "common/types.hpp"

namespace abc::prng {

/// Raw ChaCha20 block function: fills 64 bytes of keystream for a given
/// (key, counter, nonce) triple. Exposed for test vectors.
void chacha20_block(const std::array<u32, 8>& key, u32 counter,
                    const std::array<u32, 3>& nonce, std::span<u8, 64> out);

/// Buffered ChaCha20 keystream with 64-bit convenience reads.
class ChaCha20 {
 public:
  /// 128-bit seed + 96-bit stream selector.
  ChaCha20(const std::array<u8, 16>& seed, u64 stream_id, u32 domain = 0);

  void fill_bytes(std::span<u8> out);

  u64 next_u64() {
    if (pos_ + 8 > kBufferBytes) return next_straddling<u64>();
    u64 v = 0;
    std::memcpy(&v, buffer_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  u32 next_u32() {
    if (pos_ + 4 > kBufferBytes) return next_straddling<u32>();
    u32 v = 0;
    std::memcpy(&v, buffer_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double();

  /// The unread buffered keystream, refilled first when empty. A batch
  /// sampler reads words from it in place and then commits what it used
  /// with consume(); reads through any other method see the same bytes.
  std::span<const u8> buffered() {
    if (pos_ == kBufferBytes) refill();
    return std::span<const u8>(buffer_).subspan(pos_);
  }
  /// Marks @p bytes of buffered() as read (bytes <= buffered().size()).
  void consume(std::size_t bytes) noexcept { pos_ += bytes; }

 private:
  static constexpr std::size_t kBufferBlocks = 16;
  static constexpr std::size_t kBufferBytes = 64 * kBufferBlocks;

  void refill();

  /// A read that crosses the end of the buffer goes through fill_bytes.
  template <class T>
  T next_straddling() {
    std::array<u8, sizeof(T)> bytes;
    fill_bytes(bytes);
    T v{};
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  std::array<u32, 8> key_{};
  std::array<u32, 3> nonce_{};
  u32 counter_ = 0;  // next block the buffer does not hold yet
  std::size_t pos_ = kBufferBytes;  // empty
  alignas(64) std::array<u8, kBufferBytes> buffer_{};
};

}  // namespace abc::prng

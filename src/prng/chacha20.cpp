#include "prng/chacha20.hpp"

#include <algorithm>

#include "common/failpoint.hpp"
#include "simd/chacha_kernels.hpp"

namespace abc::prng {

void chacha20_block(const std::array<u32, 8>& key, u32 counter,
                    const std::array<u32, 3>& nonce, std::span<u8, 64> out) {
  simd::chacha20_blocks_portable(key.data(), counter, nonce.data(),
                                 out.data(), 1);
}

ChaCha20::ChaCha20(const std::array<u8, 16>& seed, u64 stream_id, u32 domain) {
  // Every keystream the stack consumes starts here, so this is where a
  // fault-injection run breaks PRNG stream setup.
  ABC_FAILPOINT(fail::points::kPrngStreamSetup);
  // Expand 128-bit seed into a 256-bit key: seed || ~seed. Any injective
  // expansion preserves the 128-bit security level of the seed.
  for (int i = 0; i < 4; ++i) {
    u32 w = 0;
    std::memcpy(&w, seed.data() + 4 * i, 4);
    key_[i] = w;
    key_[i + 4] = ~w;
  }
  nonce_[0] = domain;
  nonce_[1] = static_cast<u32>(stream_id);
  nonce_[2] = static_cast<u32>(stream_id >> 32);
}

void ChaCha20::refill() {
  simd::chacha20_blocks(key_.data(), counter_, nonce_.data(), buffer_.data(),
                        kBufferBlocks);
  counter_ += static_cast<u32>(kBufferBlocks);
  pos_ = 0;
}

void ChaCha20::fill_bytes(std::span<u8> out) {
  const auto drain = [&](std::size_t& written) {
    const std::size_t chunk =
        std::min(kBufferBytes - pos_, out.size() - written);
    std::memcpy(out.data() + written, buffer_.data() + pos_, chunk);
    pos_ += chunk;
    written += chunk;
  };
  std::size_t written = 0;
  drain(written);
  // Whole blocks past the buffer go straight to the caller: the same
  // keystream bytes, without the copy.
  const std::size_t direct = (out.size() - written) / 64;
  if (direct > 0) {
    simd::chacha20_blocks(key_.data(), counter_, nonce_.data(),
                          out.data() + written, direct);
    counter_ += static_cast<u32>(direct);
    written += 64 * direct;
  }
  if (written < out.size()) {
    refill();
    drain(written);
  }
}

double ChaCha20::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

}  // namespace abc::prng

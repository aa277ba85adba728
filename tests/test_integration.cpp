// Cross-module integration tests: full client sessions across parameter
// sets and encryption modes, structural NTT/DWT equivalence (the
// reconfigurable-engine premise), seed-compressed ciphertext
// regeneration, and consistency between the software op counts and the
// accelerator scheduler's workload model.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <ostream>
#include <random>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "core/simulator.hpp"
#include "rns/ntt_prime.hpp"
#include "transform/dwt.hpp"
#include "transform/ntt.hpp"

namespace abc {
namespace {

std::vector<std::complex<double>> random_slots(std::size_t count, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> v(count);
  for (auto& z : v) z = {dist(rng), dist(rng)};
  return v;
}

// ---- full-session property sweep ----------------------------------------

struct SessionCase {
  int log_n;
  std::size_t limbs;
  ckks::EncryptMode mode;
};

// Test names carry the printed parameter. Print the fields: the default
// prints the struct's bytes, uninitialised padding included, so the name
// changed from build to build.
void PrintTo(const SessionCase& c, std::ostream* os) {
  *os << "LogN" << c.log_n << "Limbs" << c.limbs
      << (c.mode == ckks::EncryptMode::kPublicKey ? "PublicKey"
                                                  : "SymmetricSeeded");
}

class ClientSessionTest : public ::testing::TestWithParam<SessionCase> {};

TEST_P(ClientSessionTest, EndToEndRoundtrip) {
  const SessionCase c = GetParam();
  auto ctx =
      ckks::CkksContext::create(ckks::CkksParams::test_small(c.log_n, c.limbs));
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  std::unique_ptr<ckks::Encryptor> enc;
  if (c.mode == ckks::EncryptMode::kPublicKey) {
    enc = std::make_unique<ckks::Encryptor>(ctx, keygen.public_key(sk));
  } else {
    enc = std::make_unique<ckks::Encryptor>(ctx, sk);
  }
  ckks::Decryptor dec(ctx, sk);

  const auto msg = random_slots(encoder.slots(), 1000 + c.log_n);
  const ckks::Ciphertext ct = enc->encrypt(encoder.encode(msg, c.limbs));
  const auto decoded = encoder.decode(dec.decrypt(ct));
  EXPECT_GT(ckks::compare_slots(msg, decoded).precision_bits, 11.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClientSessionTest,
    ::testing::Values(
        SessionCase{9, 2, ckks::EncryptMode::kPublicKey},
        SessionCase{9, 2, ckks::EncryptMode::kSymmetricSeeded},
        SessionCase{10, 4, ckks::EncryptMode::kPublicKey},
        SessionCase{10, 4, ckks::EncryptMode::kSymmetricSeeded},
        SessionCase{11, 3, ckks::EncryptMode::kPublicKey},
        SessionCase{12, 6, ckks::EncryptMode::kSymmetricSeeded}));

// ---- reconfigurable-engine premise ---------------------------------------

TEST(Integration, NttAndDwtShareTwiddleStructure) {
  // The RFE premise (paper Sec. III): NTT and FFT stage twiddles follow
  // the *same* bit-reversed exponent schedule — psi^brv(i) mod q for the
  // NTT, zeta^brv(i) on the unit circle for the DWT. Verify exponent
  // agreement through discrete logarithms of the generated tables.
  const int log_n = 8;
  const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
  xf::NttTables ntt(q, log_n);
  xf::CkksDwtPlan dwt(log_n);
  const std::size_t n = std::size_t{1} << log_n;
  for (std::size_t i = 1; i < n; ++i) {
    const u64 e = bit_reverse(i, log_n);
    EXPECT_EQ(ntt.psi_rev(i), q.pow(ntt.psi(), e));
    const xf::Cx<double> w = dwt.psi_rev(i);
    const double angle = std::atan2(w.im, w.re);
    double expect = std::numbers::pi * static_cast<double>(e) / static_cast<double>(n);
    // Wrap into (-pi, pi].
    while (expect > std::numbers::pi) expect -= 2 * std::numbers::pi;
    EXPECT_NEAR(angle, expect, 1e-9) << i;
  }
}

TEST(Integration, SeedCompressedC1Regenerates) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor enc(ctx, sk);
  ckks::CkksEncoder encoder(ctx);
  const ckks::Ciphertext ct =
      enc.encrypt(encoder.encode(random_slots(8, 3), 3));
  ASSERT_TRUE(ct.compressed_c1.has_value());
  // Regenerate "a" from the stream id alone: must equal the stored c1.
  poly::RnsPoly regen = ctx->make_poly(3, poly::Domain::kEval);
  ckks::fill_uniform_eval(*ctx, regen, ckks::PrngDomain::kSymmetricA,
                          ct.compressed_c1->stream_id);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_TRUE(std::equal(regen.limb(l).begin(), regen.limb(l).end(),
                           ct.c(1).limb(l).begin()));
  }
  // And the byte accounting reflects the compression.
  EXPECT_LT(ct.packed_bytes(44), 2.0 * ct.c(0).packed_bytes(44));
}

TEST(Integration, SchedulerWorkloadMatchesSoftwareOps) {
  // The scheduler issues exactly (1 IFFT + limbs * k NTT) transform passes
  // for an encode+encrypt job; the software executes the same transforms.
  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.log_n = 10;
  cfg.fresh_limbs = 4;
  cfg.enc_profile = core::EncryptProfile::public_key();
  core::JobScheduler scheduler(cfg);
  std::vector<core::Pass> passes;
  scheduler.add_encode_encrypt(passes, 0, 0);
  int transform_passes = 0;
  for (const auto& p : passes) {
    if (p.unit == core::UnitKind::kPnl) ++transform_passes;
  }
  EXPECT_EQ(transform_passes,
            1 + static_cast<int>(cfg.fresh_limbs) *
                    cfg.enc_profile.ntt_passes_per_limb);

  // Software side: NTT forward passes counted through op deltas.
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 4));
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor enc(ctx, keygen.public_key(sk));
  const ckks::Plaintext pt = encoder.encode(random_slots(8, 5), 4);
  xf::OpCounterScope scope;
  (void)enc.encrypt(pt);
  const u64 per_ntt = (ctx->n() / 2) * 10;
  EXPECT_EQ(scope.delta().ntt_mul / per_ntt,
            cfg.fresh_limbs *
                static_cast<u64>(cfg.enc_profile.ntt_passes_per_limb));
}

TEST(Integration, DecodeDecryptDagShape) {
  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.returned_limbs = 2;
  core::JobScheduler scheduler(cfg);
  std::vector<core::Pass> passes;
  scheduler.add_decode_decrypt(passes, 0, 0);
  // DMA in, 2x (phase + INTT), CRT, FFT, DMA out = 8 passes.
  EXPECT_EQ(passes.size(), 8u);
  // Final pass must be the message writeback, reachable from everything.
  EXPECT_EQ(passes.back().unit, core::UnitKind::kDmaOut);
  EXPECT_GT(passes.back().dram_write_bytes_per_elem, 0.0);
}

TEST(Integration, RescaledCiphertextStaysDecryptable) {
  // Depth-3 chain needs the scale close to the prime width, or the scale
  // erodes by q/Delta per rescale (2^6 here) and the precision collapses.
  ckks::CkksParams params = ckks::CkksParams::test_small(10, 5);
  params.scale_bits = 34;
  auto ctx = ckks::CkksContext::create(params);
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor enc(ctx, keygen.public_key(sk));
  ckks::Decryptor dec(ctx, sk);
  ckks::Evaluator eval(ctx);

  const auto msg = random_slots(encoder.slots(), 17);
  ckks::Ciphertext ct = enc.encrypt(encoder.encode(msg, 5));
  // Chain: square via plain mult and rescale three times.
  std::vector<std::complex<double>> expect(msg);
  for (int round = 0; round < 3; ++round) {
    const auto mult = random_slots(encoder.slots(), 18 + round);
    const ckks::Plaintext factor = encoder.encode(mult, ct.limbs());
    ct = eval.mul_plain(ct, factor);
    eval.rescale_inplace(ct);
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] *= mult[i];
  }
  const auto got = encoder.decode(dec.decrypt(ct));
  double max_err = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - expect[i]));
  }
  EXPECT_LT(max_err, 0.05);
}

}  // namespace
}  // namespace abc

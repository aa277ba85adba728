// Server-side key-switching throughput: wall time of relinearization,
// single slot rotations, and hoisted multi-rotation (one digit
// decomposition reused across all steps, ARK-style) under the
// ScalarBackend vs. ThreadPoolBackend at increasing worker counts.
//
// Key switching is the dominant server primitive (the BTS observation);
// the hoisted-vs-naive column quantifies how much of a rotation is the
// decomposition's digit NTTs — exactly the part ARK's key/digit reuse
// amortizes when many rotations share one input (rotate-and-sum trees,
// baby-step/giant-step matrix products).
//
// Usage: bench_keyswitch [log_n] [limbs] [rotations]
//                        [--json out.json] [--reps N] [--quick]
//   defaults: log_n=13, limbs=8, rotations=8. Ciphertexts sit one level
//   below the chain top (the last prime is the key-switch special
//   modulus). --quick drops to minimal reps for the CI smoke; --json
//   emits the bench_util.hpp schema.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "backend/scalar_backend.hpp"
#include "backend/thread_pool_backend.hpp"
#include "bench_util.hpp"
#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/key_source.hpp"
#include "common/table.hpp"

namespace {

using namespace abc;

struct SwitchTimes {
  double relin_s = 0.0;
  double rotate_s = 0.0;        // one rotation, decompose + accumulate
  double naive_multi_s = 0.0;   // `rotations` independent rotate() calls
  double hoisted_multi_s = 0.0; // rotate_many over the same steps
};

SwitchTimes measure(const ckks::CkksParams& params,
                    std::shared_ptr<backend::PolyBackend> backend,
                    const std::vector<int>& steps, int reps) {
  auto ctx = ckks::CkksContext::create(params, std::move(backend));
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor enc(ctx, keygen.public_key(sk));
  ckks::Evaluator eval(ctx);
  const ckks::RelinKey rlk = keygen.relin_key(sk);
  const ckks::GaloisKeys gks = keygen.galois_keys(sk, steps);
  const ckks::EagerKeySource keys(&gks, nullptr);

  // Work one level below the top: the last prime is the special modulus.
  const std::size_t level = ctx->max_limbs() - 1;
  std::vector<std::complex<double>> msg(encoder.slots(), {0.25, -0.125});
  const ckks::Ciphertext ct = enc.encrypt(encoder.encode(msg, level));
  const ckks::Ciphertext prod = eval.mul(ct, ct);

  ckks::KeySwitchScratch scratch;
  SwitchTimes t;
  t.relin_s = bench::time_best_of(reps, [&] {
    ckks::Ciphertext work = prod;
    eval.relinearize_inplace(work, rlk.key, &scratch);
  });
  t.rotate_s = bench::time_best_of(
      reps, [&] { (void)eval.rotate(ct, gks.key_for(steps[0]), &scratch); });
  t.naive_multi_s = bench::time_best_of(reps, [&] {
    for (const int step : steps) {
      (void)eval.rotate(ct, gks.key_for(step), &scratch);
    }
  });
  t.hoisted_multi_s = bench::time_best_of(
      reps, [&] { (void)eval.rotate_many(ct, steps, keys, &scratch); });
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  auto positional = [&](std::size_t i, int def) {
    return i < args.positional.size() ? std::atoi(args.positional[i].c_str())
                                      : def;
  };
  const int log_n = positional(0, 13);
  const auto limbs = static_cast<std::size_t>(positional(1, 8));
  const int rotations = positional(2, 8);
  const int reps = args.reps > 0 ? args.reps : (args.quick ? 1 : 3);
  ABC_CHECK_ARG(rotations >= 1, "rotations must be >= 1");
  const auto nrot = static_cast<std::size_t>(rotations);

  std::vector<int> steps(nrot);
  for (std::size_t i = 0; i < nrot; ++i) steps[i] = static_cast<int>(i) + 1;

  std::puts("ABC-FHE reproduction :: server-side key switching\n");
  std::printf(
      "Workload: N = 2^%d, chain %zu limbs (ciphertexts at level %zu, last "
      "prime reserved); relin + rotations, %d-way hoisting.\n\n",
      log_n, limbs, limbs - 1, rotations);

  ckks::CkksParams params = ckks::CkksParams::sweep_point(log_n, limbs);
  params.validate();

  bench::JsonReporter rep("bench_keyswitch");
  rep.add_metric("meta/log_n", "value", log_n);
  rep.add_metric("meta/limbs", "value", static_cast<double>(limbs));
  rep.add_metric("meta/rotations", "value", rotations);

  TextTable table("Key-switch wall time (per operation)");
  table.set_header({"Backend", "Workers", "relin", "rotate",
                    "naive x" + std::to_string(rotations),
                    "hoisted x" + std::to_string(rotations), "hoist gain",
                    "speed-up"});

  const SwitchTimes scalar = measure(
      params, std::make_shared<backend::ScalarBackend>(), steps, reps);
  const auto add_rows = [&](const char* backend_name, const std::string& workers,
                            const SwitchTimes& t) {
    const std::string prefix =
        std::string("keyswitch/") + backend_name +
        (workers.empty() ? "" : "/" + workers);
    rep.add_timing(prefix + "/relin", t.relin_s);
    rep.add_timing(prefix + "/rotate", t.rotate_s);
    rep.add_timing(prefix + "/naive_multi", t.naive_multi_s,
                   static_cast<double>(rotations));
    rep.add_timing(prefix + "/hoisted_multi", t.hoisted_multi_s,
                   static_cast<double>(rotations));
    rep.add_metric(prefix + "/hoist_gain", "ratio",
                   t.naive_multi_s / t.hoisted_multi_s);
    table.add_row({backend_name, workers.empty() ? "1" : workers,
                   bench::fmt_time(t.relin_s), bench::fmt_time(t.rotate_s),
                   bench::fmt_time(t.naive_multi_s),
                   bench::fmt_time(t.hoisted_multi_s),
                   TextTable::fmt(t.naive_multi_s / t.hoisted_multi_s, 2) + "x",
                   TextTable::fmt(scalar.rotate_s / t.rotate_s, 2) + "x"});
  };
  add_rows("scalar", "", scalar);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    add_rows("thread_pool", std::to_string(threads),
             measure(params, std::make_shared<backend::ThreadPoolBackend>(threads),
                     steps, reps));
  }
  table.print();

  if (!args.json_path.empty()) {
    if (!rep.write(args.json_path)) return 1;
    std::printf("\nJSON results written to %s\n", args.json_path.c_str());
  }
  return 0;
}

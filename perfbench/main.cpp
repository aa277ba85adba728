// perfbench: the repository benchmark. Three closed-loop workloads, each a
// caller that waits for its reply like ClientSession::round_trip_with_retry:
//
//   client_paper  the paper's client (CkksParams::bootstrappable(), N=2^16,
//                 24 limbs) on one thread: ClientSession::upload of one
//                 message, then verify_download of a 2-limb response.
//   serve_warm    Server at sweep_point(13, 8): 2 workers, 4 tenants, every
//                 key resident in the KeyCache; 2 client threads issue
//                 seeded rotate(1) / rotate(2) / square calls.
//   serve_regen   the same load over 16 tenants and a KeyCache budget of a
//                 few expanded keys, so most calls regenerate their key.
//
//   abc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans around
// the benchmark's own calls into each layer and reports per-layer medians.
// Every timed output is checked; any miss makes the exit code non-zero.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keyswitch.hpp"
#include "ckks/serialize.hpp"
#include "engine/client_session.hpp"
#include "obs/metrics.hpp"
#include "poly/rns_poly.hpp"
#include "prng/chacha20.hpp"
#include "prng/samplers.hpp"
#include "server/server.hpp"
#include "simd/simd_caps.hpp"
#include "stats.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using abc::i64;
using abc::u32;
using abc::u64;
using abc::u8;
using perfbench::now_ns;
using perfbench::Scope;
using perfbench::Tracer;

using Message = std::vector<std::complex<double>>;

// Set-up runs this many times per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

// -- arguments ----------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "abc_perfbench: %s\nusage: abc_perfbench --workload "
               "<client_paper|serve_warm|serve_regen> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "client_paper" && a.workload != "serve_warm" &&
      a.workload != "serve_regen") {
    usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return a;
}

// -- seeded inputs ------------------------------------------------------------

u64 splitmix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Every message, tenant choice and op draw comes from one of these, keyed
/// by the workload seed and a fixed stream tag.
std::mt19937_64 rng_for(u64 seed, u64 stream) {
  return std::mt19937_64(splitmix(seed ^ splitmix(stream)));
}

Message random_message(std::mt19937_64& rng, std::size_t slots) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Message m(slots);
  for (auto& z : m) z = {dist(rng), dist(rng)};
  return m;
}

std::span<const Message> one(const Message& m) { return {&m, 1}; }

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

double s_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- result ------------------------------------------------------------------

struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, true});
  }

  /// A metric printed in the table but left out of the JSON result, so no
  /// bound gates it (see BENCHMARK.json and README.md for why).
  void note(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, false});
  }

  /// Human table, then the one-line JSON result as the last stdout line.
  void print(const Outcome& outcome, bool correct) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-28s %16.6f %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.gated ? "" : "  (not gated)");
    }
    const double failed_frac =
        outcome.attempted == 0 ? 1.0
                               : static_cast<double>(outcome.failed) /
                                     static_cast<double>(outcome.attempted);
    std::printf("  %-28s %16.6f frac  (%llu of %llu ops; not gated)\n",
                "failed_frac",
                failed_frac, static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    const char* sep = "";
    for (const Metric& m : metrics_) {
      if (!m.gated) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), m.value, m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool gated;
  };
  std::vector<Metric> metrics_;
};

void add_latency(Report& r, const std::vector<double>& ms, const char* what) {
  const perfbench::LatencySummary s = perfbench::summarize(ms);
  std::printf("  %s: %zu samples, p50 %.3f ms, tail = p%.1f %.3f ms\n", what,
              s.samples, s.p50, 100.0 * s.tail_q, s.tail);
  r.add("p50_ms", s.p50, "ms");
  r.add("tail_ms", s.tail, "ms");
}

// -- client-side composition --------------------------------------------------

/// The calls ClientSession makes for one upload (BatchEncryptor: encode,
/// encrypt_with, then the batch envelope) and one verify_download
/// (envelope unpack, decrypt, decode, slot comparison), made one by one so
/// each becomes its own span.
class ComposedClient {
 public:
  ComposedClient(std::shared_ptr<const abc::ckks::CkksContext> ctx,
                 const abc::ckks::SecretKey& sk, int bits_per_coeff)
      : ctx_(ctx),
        encoder_(ctx),
        encryptor_(ctx, sk),
        enc_scratch_(*ctx),
        decryptor_(ctx, sk),
        dec_scratch_(*ctx),
        bits_(bits_per_coeff) {}

  std::vector<u8> upload(Tracer* tr, u64 op, const Message& msg,
                         std::size_t limbs) {
    Scope s(tr, "client.upload", op);
    abc::ckks::Plaintext pt = [&] {
      Scope k(tr, "encoder.encode", op);
      return encoder_.encode(msg, limbs);
    }();
    std::vector<abc::ckks::Ciphertext> cts;
    {
      Scope k(tr, "ckks.encrypt", op);
      cts.push_back(encryptor_.encrypt_with(
          pt, encryptor_.reserve_stream_ids(1), enc_scratch_));
    }
    Scope k(tr, "serialize.pack", op);
    return abc::ckks::serialize_ciphertext_batch(cts, bits_);
  }

  /// Returns the precision in bits, or a negative value when the response
  /// misses @p bound.
  double download(Tracer* tr, u64 op, const std::vector<u8>& envelope,
                  const Message& expected, double bound) {
    Scope s(tr, "client.download", op);
    std::vector<abc::ckks::Ciphertext> cts = [&] {
      Scope k(tr, "serialize.unpack", op);
      return abc::ckks::deserialize_ciphertext_batch(ctx_, envelope);
    }();
    if (cts.size() != 1) return -1.0;
    abc::ckks::Plaintext pt = [&] {
      Scope k(tr, "ckks.decrypt", op);
      return decryptor_.decrypt_with(cts[0], dec_scratch_);
    }();
    Message slots = [&] {
      Scope k(tr, "encoder.decode", op);
      return encoder_.decode(pt);
    }();
    Scope k(tr, "ckks.verify", op);
    const abc::ckks::PrecisionReport r =
        abc::ckks::compare_slots(expected, slots);
    return r.max_abs_error <= bound ? r.precision_bits : -1.0;
  }

 private:
  std::shared_ptr<const abc::ckks::CkksContext> ctx_;
  abc::ckks::CkksEncoder encoder_;
  abc::ckks::Encryptor encryptor_;
  abc::ckks::EncryptScratch enc_scratch_;
  abc::ckks::Decryptor decryptor_;
  abc::ckks::DecryptScratch dec_scratch_;
  int bits_;
};

// -- kernel probes ----------------------------------------------------------

/// Times the kernels under the upload and download paths as sibling spans
/// at the workload's own sizes: ChaCha20 blocks, UniformModSampler draws,
/// fill_uniform_eval and fill_gaussian_coeff at the upload level, the
/// forward NTT at the upload level and the inverse at the download level.
void probe_kernels(const abc::ckks::CkksContext& ctx, std::size_t up_limbs,
                   std::size_t down_limbs, int reps, Tracer& tr, u64& op,
                   std::map<std::string, std::vector<double>>& per_unit) {
  constexpr std::size_t kBlocks = 4096;
  std::vector<u8> block_buf(kBlocks * 64);
  std::vector<u64> draws(ctx.n());
  const abc::prng::UniformModSampler uniform(ctx.primes().front());
  abc::ckks::SamplerScratch scratch;
  abc::poly::RnsPoly a = ctx.make_poly(up_limbs, abc::poly::Domain::kEval);
  abc::poly::RnsPoly e = ctx.make_poly(up_limbs, abc::poly::Domain::kCoeff);
  abc::poly::RnsPoly d = ctx.make_poly(down_limbs, abc::poly::Domain::kEval);
  for (int r = 0; r < reps; ++r) {
    const u64 id = ++op;
    const u64 stream = ctx.reserve_stream_ids(1);
    Scope root(&tr, "kernel.probe", id);
    {
      abc::prng::ChaCha20 rng(ctx.params().seed, stream, 0);
      const std::int64_t t0 = now_ns();
      {
        Scope s(&tr, "prng.chacha", id);
        rng.fill_bytes(block_buf);
      }
      per_unit["prng.chacha_ns_per_block"].push_back(
          static_cast<double>(now_ns() - t0) / kBlocks);
      const std::int64_t t1 = now_ns();
      {
        Scope s(&tr, "prng.uniform_sample_many", id);
        uniform.sample_many(rng, draws);
      }
      per_unit["prng.uniform_ns_per_coeff"].push_back(
          static_cast<double>(now_ns() - t1) /
          static_cast<double>(draws.size()));
    }
    {
      Scope s(&tr, "prng.uniform", id);
      abc::ckks::fill_uniform_eval(ctx, a, abc::ckks::PrngDomain::kSymmetricA,
                                   stream);
    }
    e.reset(up_limbs, abc::poly::Domain::kCoeff);
    d.reset(down_limbs, abc::poly::Domain::kEval);
    {
      Scope s(&tr, "prng.gaussian", id);
      abc::ckks::fill_gaussian_coeff(
          ctx, e, abc::ckks::PrngDomain::kSymmetricError, stream, &scratch);
    }
    {
      Scope s(&tr, "transform.ntt_fwd", id);
      e.to_eval();
    }
    abc::ckks::fill_uniform_eval(ctx, d, abc::ckks::PrngDomain::kSymmetricA,
                                 stream);
    {
      Scope s(&tr, "transform.ntt_inv", id);
      d.to_coeff();
    }
  }
}

// -- client_paper ---------------------------------------------------------------

constexpr std::size_t kPaperDownloadLimbs = 2;  // the level the server returns
constexpr std::size_t kPaperPool = 4;           // distinct upload messages

struct PaperClient {
  std::shared_ptr<const abc::ckks::CkksContext> ctx;
  std::unique_ptr<abc::engine::ClientSession> session;
  std::size_t upload_limbs = 0;
  std::vector<Message> pool;
  Message download_msg;
  std::vector<u8> download_env;  // 2 limbs, both halves shipped
  double download_bound = 0.0;
  std::size_t upload_bytes = 0;
  std::size_t key_bundle_bytes = 0;
  double keygen_s = 0.0;
  double min_precision_bits = 60.0;
};

PaperClient setup_paper(u64 seed) {
  PaperClient c;
  c.ctx = abc::ckks::CkksContext::create(abc::ckks::CkksParams::bootstrappable());
  c.upload_limbs = c.ctx->max_limbs();
  c.session = std::make_unique<abc::engine::ClientSession>(c.ctx);
  const std::int64_t k0 = now_ns();
  c.key_bundle_bytes = c.session->key_bundle().total_bytes();
  c.keygen_s = s_between(k0, now_ns());

  std::mt19937_64 rng = rng_for(seed, 1);
  for (std::size_t i = 0; i < kPaperPool; ++i) {
    c.pool.push_back(random_message(rng, c.ctx->slots()));
  }
  c.download_msg = random_message(rng, c.ctx->slots());

  // What a server returns: a ciphertext at the download level whose c1 is
  // shipped in full rather than as a seed.
  std::vector<abc::ckks::Ciphertext> cts =
      c.session->encrypt(one(c.download_msg), kPaperDownloadLimbs);
  cts[0].compressed_c1.reset();
  c.download_env = abc::ckks::serialize_ciphertext_batch(
      cts, c.session->config().bits_per_coeff);
  const abc::engine::BatchVerifyReport dl =
      c.session->verify_download(c.download_env, one(c.download_msg));
  if (!dl.ok) throw std::runtime_error("set-up download fails verify_decode");
  c.download_bound = dl.items[0].bound;

  // The reference upload is checked in full: unpack regenerates c1 from
  // its seed and the 24-limb ciphertext must decrypt to the message.
  const std::vector<u8> ref =
      c.session->upload(one(c.pool[0]), c.upload_limbs);
  const abc::engine::BatchVerifyReport up =
      c.session->verify_download(ref, one(c.pool[0]));
  if (!up.ok) throw std::runtime_error("set-up upload fails verify_decode");
  c.upload_bytes = ref.size();
  c.min_precision_bits = std::min(dl.worst_precision_bits,
                                  up.worst_precision_bits);
  return c;
}

struct PaperWindow {
  std::vector<double> up_ms;
  std::vector<double> down_ms;
  double window_s = 0.0;
  double min_precision_bits = 60.0;
};

/// Closed loop of round trips for @p seconds. Untraced it calls
/// ClientSession; traced it makes the same calls one by one under spans.
/// Every download is verified; every upload must have the reference size,
/// and the last one is decrypted in full after the window.
PaperWindow paper_window(PaperClient& c, double seconds, u64 seed, u64 stream,
                         Tracer* tr, ComposedClient* composed, u64& op,
                         Outcome& outcome) {
  PaperWindow w;
  std::mt19937_64 rng = rng_for(seed, stream);
  std::vector<u8> last_upload;
  const Message* last_msg = nullptr;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const Message& msg = c.pool[rng() % c.pool.size()];
    const u64 id = ++op;
    double precision = -1.0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = 0;
    if (composed == nullptr) {
      last_upload = c.session->upload(one(msg), c.upload_limbs);
      t1 = now_ns();
      const abc::engine::BatchVerifyReport r =
          c.session->verify_download(c.download_env, one(c.download_msg));
      if (r.ok) precision = r.worst_precision_bits;
    } else {
      Scope root(tr, "client.round_trip", id);
      last_upload = composed->upload(tr, id, msg, c.upload_limbs);
      t1 = now_ns();
      precision = composed->download(tr, id, c.download_env, c.download_msg,
                                     c.download_bound);
    }
    const std::int64_t t2 = now_ns();
    last_msg = &msg;
    const bool ok = last_upload.size() == c.upload_bytes && precision >= 0.0;
    outcome.count(ok);
    if (ok) w.min_precision_bits = std::min(w.min_precision_bits, precision);
    w.up_ms.push_back(ms_between(t0, t1));
    w.down_ms.push_back(ms_between(t1, t2));
  }
  w.window_s = s_between(start, now_ns());
  if (last_msg != nullptr &&
      !c.session->verify_download(last_upload, one(*last_msg)).ok) {
    ++outcome.failed;  // the last upload does not decrypt to its message
  }
  return w;
}

// -- serving workloads --------------------------------------------------------

constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kClientThreads = 2;
constexpr int kServeLogN = 13;
constexpr std::size_t kServeLimbs = 8;

struct ServeConfig {
  std::size_t tenants = 0;
  std::size_t key_cache_bytes = 0;
};

ServeConfig serve_config(const std::string& workload) {
  if (workload == "serve_regen") return {16, std::size_t{20} << 20};
  return {4, std::size_t{256} << 20};
}

// Slot-error bound every serve reply is checked against (~10 bits). The
// library's default verify bound (fresh noise + one key switch) is missed
// by rotate replies at this point: 2.7e-5 measured against 1.7e-5 allowed,
// so the check uses a fixed bound and min_precision_bits reports the
// measured worst case.
constexpr double kReplyBound = 1e-3;

struct OpKind {
  abc::server::Op op;
  i64 arg;
  const char* name;
};
constexpr std::array<OpKind, 3> kOps = {{
    {abc::server::Op::kRotate, 1, "rotate1"},
    {abc::server::Op::kRotate, 2, "rotate2"},
    {abc::server::Op::kSquare, 0, "square"},
}};

struct Tenant {
  std::unique_ptr<abc::engine::ClientSession> session;
  u64 id = 0;
  Message msg;
  std::vector<u8> upload;
  std::array<Message, kOps.size()> expected;
  std::array<std::vector<u8>, kOps.size()> reference;  // checked warm-up reply
};

struct ServeRig {
  abc::ckks::CkksParams params;
  std::shared_ptr<const abc::ckks::CkksContext> client_ctx;
  std::unique_ptr<abc::server::Server> server;
  std::vector<Tenant> tenants;
  std::size_t upload_limbs = 0;
  double keygen_s = 0.0;  // tenant 0's key_bundle()
  std::size_t key_bundle_bytes = 0;
  double min_precision_bits = 60.0;
  std::atomic<u64> next_request{1};
};

abc::ckks::RequestFrame make_request(const ServeRig& rig, std::size_t t,
                                     std::size_t o, u64 id) {
  abc::ckks::RequestFrame req;
  req.tenant = rig.tenants[t].id;
  req.request_id = id;
  req.op = static_cast<u8>(kOps[o].op);
  req.op_arg = kOps[o].arg;
  req.payload = rig.tenants[t].upload;
  return req;
}

Message expected_result(const Message& m, const OpKind& op) {
  Message out(m.size());
  for (std::size_t j = 0; j < m.size(); ++j) {
    out[j] = op.op == abc::server::Op::kSquare
                 ? m[j] * m[j]
                 : m[(j + static_cast<std::size_t>(op.arg)) % m.size()];
  }
  return out;
}

/// Builds the server and its tenants, then runs every (tenant, op) once:
/// the reply is decrypted and checked against the expected rotation or
/// square, and its bytes become the reference every timed reply must
/// match. This also brings each key into the KeyCache.
std::unique_ptr<ServeRig> setup_serve(const ServeConfig& cfg, u64 seed) {
  auto rig = std::make_unique<ServeRig>();
  rig->params = abc::ckks::CkksParams::sweep_point(kServeLogN, kServeLimbs);
  rig->client_ctx = abc::ckks::CkksContext::create(rig->params);
  rig->upload_limbs = rig->client_ctx->max_limbs() - 1;  // switchable level
  abc::server::ServerConfig sc;
  sc.workers = kServeWorkers;
  sc.key_cache_bytes = cfg.key_cache_bytes;
  sc.param_sets = {rig->params};
  rig->server = std::make_unique<abc::server::Server>(sc);

  std::mt19937_64 rng = rng_for(seed, 2);
  rig->tenants.resize(cfg.tenants);
  double keygen_s = 0.0;
  double register_s = 0.0;
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    Tenant& tn = rig->tenants[t];
    const std::int64_t k0 = now_ns();
    tn.session = std::make_unique<abc::engine::ClientSession>(
        rig->client_ctx, abc::engine::SessionConfig{{1, 2}});
    const std::int64_t kb0 = now_ns();
    const abc::engine::KeyBundle& kb = tn.session->key_bundle();
    const std::int64_t k1 = now_ns();
    keygen_s += s_between(k0, k1);
    if (t == 0) {
      rig->keygen_s = s_between(kb0, k1);
      rig->key_bundle_bytes = kb.total_bytes();
    }
    tn.id = rig->server->register_tenant(
        rig->params,
        abc::ckks::KeyBundleFrames{kb.public_key, kb.relin_key,
                                   kb.galois_keys});
    tn.msg = random_message(rng, rig->client_ctx->slots());
    tn.upload = tn.session->upload(one(tn.msg), rig->upload_limbs);
    for (std::size_t o = 0; o < kOps.size(); ++o) {
      tn.expected[o] = expected_result(tn.msg, kOps[o]);
    }
    register_s += s_between(k1, now_ns());
  }
  // Warm-up: every (tenant, op) in flight at once, as concurrent clients
  // would send them; the server's workers drain them in parallel.
  const std::int64_t w0 = now_ns();
  std::vector<std::future<abc::ckks::ResponseFrame>> replies;
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    for (std::size_t o = 0; o < kOps.size(); ++o) {
      replies.push_back(rig->server->submit(
          make_request(*rig, t, o, rig->next_request++)));
    }
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    Tenant& tn = rig->tenants[i / kOps.size()];
    const std::size_t o = i % kOps.size();
    const abc::ckks::ResponseFrame resp = replies[i].get();
    if (resp.status != static_cast<u8>(abc::server::Status::kOk)) {
      throw std::runtime_error("warm-up call failed: " + resp.error);
    }
    const abc::engine::BatchVerifyReport r = tn.session->verify_download(
        resp.payload, one(tn.expected[o]), kReplyBound);
    if (!r.ok) {
      throw std::runtime_error(
          std::string("warm-up reply to ") + kOps[o].name +
          " fails verify_decode: error " +
          std::to_string(r.items[0].max_abs_error) + " > bound " +
          std::to_string(r.items[0].bound));
    }
    rig->min_precision_bits =
        std::min(rig->min_precision_bits, r.worst_precision_bits);
    tn.reference[o] = resp.payload;
  }
  std::printf("  set-up: keygen %.3f s, register+upload %.3f s, warm-up "
              "%.3f s\n",
              keygen_s, register_s, s_between(w0, now_ns()));
  return rig;
}

struct LoadWindow {
  std::vector<double> lat_ms;
  double window_s = 0.0;
};

/// kClientThreads closed-loop callers for @p seconds, each drawing a
/// uniform (tenant, op) from its own seeded stream. A reply counts only
/// when its status is kOk and its bytes equal the reference.
LoadWindow serve_window(ServeRig& rig, double seconds, u64 seed, u64 stream,
                        std::vector<Tracer>* tracers, Outcome& outcome) {
  struct PerThread {
    std::vector<double> lat_ms;
    Outcome outcome;
    std::int64_t last_end = 0;
    std::exception_ptr error;  // rethrown on the calling thread
  };
  std::vector<PerThread> per(kClientThreads);
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto client = [&](std::size_t i) {
    std::mt19937_64 rng = rng_for(seed, stream * 64 + i);
    Tracer* tr = tracers ? &(*tracers)[i] : nullptr;
    PerThread& me = per[i];
    while (now_ns() < deadline) {
      const std::size_t t = rng() % rig.tenants.size();
      const std::size_t o = rng() % kOps.size();
      const u64 id = rig.next_request++;
      abc::ckks::RequestFrame req = make_request(rig, t, o, id);
      Scope root(tr, "serve.request", id);
      const std::int64_t t0 = now_ns();
      abc::ckks::ResponseFrame resp = [&] {
        Scope s(tr, "server.call", id);
        return rig.server->call(std::move(req));
      }();
      const std::int64_t t1 = now_ns();
      Scope check(tr, "serve.check", id);
      me.outcome.count(
          resp.status == static_cast<u8>(abc::server::Status::kOk) &&
          resp.payload == rig.tenants[t].reference[o]);
      me.lat_ms.push_back(ms_between(t0, t1));
      me.last_end = t1;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (std::size_t i = 0; i < kClientThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        client(i);
      } catch (...) {
        per[i].error = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const PerThread& p : per) {
    if (p.error) std::rethrow_exception(p.error);
  }
  LoadWindow w;
  std::int64_t end = start;
  for (PerThread& p : per) {
    w.lat_ms.insert(w.lat_ms.end(), p.lat_ms.begin(), p.lat_ms.end());
    outcome.attempted += p.outcome.attempted;
    outcome.failed += p.outcome.failed;
    end = std::max(end, p.last_end);
  }
  w.window_s = s_between(start, end);
  return w;
}

/// Client download path at the serving point: verify_download of seeded
/// checked replies, timed per call, appended to @p ms.
void serve_downloads(ServeRig& rig, std::size_t count, u64 seed, u64 stream,
                     std::vector<double>& ms, Outcome& outcome) {
  std::mt19937_64 rng = rng_for(seed, stream);
  for (std::size_t i = 0; i < count; ++i) {
    Tenant& tn = rig.tenants[rng() % rig.tenants.size()];
    const std::size_t o = rng() % kOps.size();
    const std::int64_t t0 = now_ns();
    const bool ok =
        tn.session
            ->verify_download(tn.reference[o], one(tn.expected[o]),
                              kReplyBound)
            .ok;
    ms.push_back(ms_between(t0, now_ns()));
    outcome.count(ok);
  }
}

/// Server-side layers of @p samples seeded requests (ops in turn, seeded
/// tenants), run serially on the idle server after the load. Each request
/// goes through Server::call twice — the first brings its key into the
/// cache, the second is timed on the hit path — and then through the same
/// work composed from public calls (unpack, rotate or square+relinearize on
/// the tenant's key, pack), which must reproduce the reference bytes.
/// server.dispatch_ms is the timed call minus that composed work.
/// (Server::process_serial is not the baseline: it builds a fresh
/// evaluator per call, which costs more than the dispatch it would
/// isolate.) Then the key-switch probe: expand_key_switch_key on a
/// compressed record, KeySwitcher decompose and accumulate on the
/// request's c1.
void decompose_serve(ServeRig& rig, int samples, u64 seed, Tracer& tr,
                     u64& op, std::vector<double>& dispatch_ms,
                     Outcome& outcome) {
  const auto sctx = rig.server->context_for(rig.params);
  const abc::ckks::Evaluator eval(sctx);
  const abc::ckks::KeySwitcher switcher(sctx);
  abc::ckks::KeySwitchScratch ks_scratch;
  abc::ckks::KeySwitchScratch eval_scratch;
  const int bits = rig.server->config().bits_per_coeff;
  std::map<std::pair<std::size_t, std::size_t>, abc::ckks::KeySwitchKey> keys;
  std::mt19937_64 rng = rng_for(seed, 4);
  for (int i = 0; i < samples; ++i) {
    const std::size_t t = rng() % rig.tenants.size();
    const std::size_t o = static_cast<std::size_t>(i) % kOps.size();
    const Tenant& tn = rig.tenants[t];
    auto it = keys.find({t, o});
    if (it == keys.end()) {
      const abc::engine::KeyBundle& kb = tn.session->key_bundle();
      const std::vector<u8>& blob =
          kOps[o].op == abc::server::Op::kSquare
              ? kb.relin_key
              : kb.galois_keys[static_cast<std::size_t>(kOps[o].arg - 1)];
      it = keys.emplace(std::pair{t, o},
                        abc::ckks::deserialize_key_switch_key(sctx, blob))
               .first;
    }
    const abc::ckks::KeySwitchKey& key = it->second;
    const abc::ckks::CompressedKeySwitchKey record =
        abc::ckks::compress_key_switch_key(sctx, key);
    std::vector<u32> perm;
    if (key.kind == abc::ckks::KeySwitchKey::Kind::kGalois) {
      abc::ckks::build_galois_eval_table(kServeLogN, key.galois_elt, perm);
    }

    const u64 id = ++op;
    const abc::ckks::RequestFrame req =
        make_request(rig, t, o, rig.next_request++);
    bool ok = rig.server->call(abc::ckks::RequestFrame(req)).payload ==
              tn.reference[o];
    {
      Scope root(&tr, "serve.serial_request", id);
      const std::int64_t t0 = now_ns();
      {
        Scope s(&tr, "server.call", id);
        ok &= rig.server->call(abc::ckks::RequestFrame(req)).payload ==
              tn.reference[o];
      }
      const std::int64_t t1 = now_ns();
      std::vector<abc::ckks::Ciphertext> cts = [&] {
        Scope s(&tr, "serialize.req_unpack", id);
        return abc::ckks::deserialize_ciphertext_batch(sctx, req.payload);
      }();
      std::vector<abc::ckks::Ciphertext> out(1);
      if (kOps[o].op == abc::server::Op::kSquare) {
        Scope s(&tr, "ckks.square_relin", id);
        out[0] = eval.mul(cts[0], cts[0]);
        eval.relinearize_inplace(out[0], key, &eval_scratch);
      } else {
        Scope s(&tr, "ckks.rotate", id);
        out[0] = eval.rotate(cts[0], key, &eval_scratch);
      }
      {
        Scope s(&tr, "serialize.resp_pack", id);
        ok &= abc::ckks::serialize_ciphertext_batch(out, bits) ==
              tn.reference[o];
      }
      dispatch_ms.push_back(ms_between(t0, t1) - ms_between(t1, now_ns()));
    }
    {
      const u64 pid = ++op;
      abc::poly::RnsPoly c1 = abc::ckks::deserialize_ciphertext_batch(
                                  sctx, req.payload)[0].c(1);
      c1.to_coeff();
      abc::poly::RnsPoly out0 = sctx->make_poly(c1.limbs(),
                                                abc::poly::Domain::kEval);
      abc::poly::RnsPoly out1 = out0;
      Scope root(&tr, "keyswitch.probe", pid);
      const abc::ckks::KeySwitchKey expanded = [&] {
        Scope s(&tr, "keycache.regen", pid);
        return abc::ckks::expand_key_switch_key(sctx, record);
      }();
      {
        Scope s(&tr, "keyswitch.decompose", pid);
        switcher.decompose(c1, ks_scratch);
      }
      Scope s(&tr, "keyswitch.accumulate", pid);
      switcher.accumulate(expanded, perm, ks_scratch, out0, out1);
    }
    outcome.count(ok);
  }
}

// -- runs ---------------------------------------------------------------------

void print_header(const Args& a) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("  nproc=%ld hardware_concurrency=%u kernel_arch=%s "
              "metrics_enabled=%d build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(),
              abc::simd::kernel_arch_name(abc::simd::active_kernel_arch()),
              abc::obs::kMetricsEnabled ? 1 : 0, PERFBENCH_BUILD_TYPE);
  if (a.workload == "client_paper") {
    std::printf("  params: bootstrappable N=2^16, 24 limbs up, %zu limbs "
                "down, 1 thread, default backend\n",
                kPaperDownloadLimbs);
  } else {
    const ServeConfig cfg = serve_config(a.workload);
    std::printf("  params: sweep_point(%d, %zu), %zu limbs up, %zu server "
                "workers, %zu client threads, %zu tenants, key cache %zu "
                "MiB, ops rotate(1)/rotate(2)/square\n",
                kServeLogN, kServeLimbs, kServeLimbs - 1, kServeWorkers,
                kClientThreads, cfg.tenants, cfg.key_cache_bytes >> 20);
  }
}

/// Runs the workload's set-up kSetupReps times and returns the last rig;
/// setup_s is the median of the set-up times.
template <class Setup>
auto repeated_setup(Setup&& setup, double& setup_s) {
  std::vector<double> times;
  decltype(setup()) kept{};
  for (int r = 0; r < kSetupReps; ++r) {
    kept = {};  // release the previous rig before building the next
    const std::int64_t t0 = now_ns();
    kept = setup();
    times.push_back(s_between(t0, now_ns()));
  }
  std::printf("  setup_s samples:");
  for (double t : times) std::printf(" %.4f", t);
  std::printf("\n");
  setup_s = perfbench::median(times);
  return kept;
}

/// Counters the server keeps, read around a load window.
struct ServerCounters {
  abc::server::ServerStats stats;
  abc::server::KeyCache::Stats cache;
};

ServerCounters read_counters(const ServeRig& rig) {
  return {rig.server->stats(), rig.server->key_cache_stats()};
}

/// Everything a traced run measures, whatever the workload; report_layers
/// turns it into the per-layer metrics.
struct LayerRun {
  perfbench::SpanDigest spans;
  std::map<std::string, std::vector<double>> per_unit;
  std::vector<double> dispatch_ms;
  ServerCounters before;
  ServerCounters after;
  double keygen_s = 0.0;
  std::size_t upload_bytes = 0;
  std::size_t key_bundle_bytes = 0;
  double untraced_per_s = 0.0;
  double traced_per_s = 0.0;
};

void report_layers(const LayerRun& l, Report& r) {
  const auto& d = l.spans;
  const auto unit = [&](const char* name) {
    return perfbench::median(l.per_unit.at(name));
  };
  r.add("prng.chacha_ns_per_block", unit("prng.chacha_ns_per_block"), "ns");
  r.add("prng.uniform_ns_per_coeff", unit("prng.uniform_ns_per_coeff"), "ns");
  r.add("prng.uniform_ms", d.median_ms("prng.uniform"), "ms");
  r.add("prng.gaussian_ms", d.median_ms("prng.gaussian"), "ms");
  r.add("transform.ntt_fwd_ms", d.median_ms("transform.ntt_fwd"), "ms");
  r.add("transform.ntt_inv_ms", d.median_ms("transform.ntt_inv"), "ms");
  r.add("encoder.encode_ms", d.median_ms("encoder.encode"), "ms");
  r.add("ckks.encrypt_ms", d.median_ms("ckks.encrypt"), "ms");
  r.add("serialize.pack_ms", d.median_ms("serialize.pack"), "ms");
  r.add("client.upload_ms", d.median_ms("client.upload"), "ms");
  r.add("client.upload_self_ms", d.median_self_ms("client.upload"), "ms");
  r.add("serialize.unpack_ms", d.median_ms("serialize.unpack"), "ms");
  r.add("ckks.decrypt_ms", d.median_ms("ckks.decrypt"), "ms");
  r.add("encoder.decode_ms", d.median_ms("encoder.decode"), "ms");
  r.add("ckks.verify_ms", d.median_ms("ckks.verify"), "ms");
  r.add("client.download_ms", d.median_ms("client.download"), "ms");
  r.add("client.download_self_ms", d.median_self_ms("client.download"), "ms");
  r.add("engine.keygen_s", l.keygen_s, "s");
  r.add("serialize.upload_bytes", static_cast<double>(l.upload_bytes), "B");
  r.add("serialize.key_bundle_bytes", static_cast<double>(l.key_bundle_bytes),
        "B");

  r.add("server.dispatch_ms", perfbench::median(l.dispatch_ms), "ms");
  const auto diff = [](u64 after, u64 before) {
    return static_cast<double>(after - before);
  };
  const double processed =
      std::max(1.0, diff(l.after.stats.processed, l.before.stats.processed));
  r.add("server.steals_per_req",
        diff(l.after.stats.steals, l.before.stats.steals) / processed, "1/req");
  double lo = 1e300;
  double hi = 0.0;
  for (std::size_t w = 0; w < l.after.stats.per_worker_processed.size(); ++w) {
    const double n = diff(l.after.stats.per_worker_processed[w],
                          l.before.stats.per_worker_processed[w]);
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  r.add("server.worker_balance", hi > 0.0 ? lo / hi : 0.0, "ratio");
  r.add("serialize.req_unpack_ms", d.median_ms("serialize.req_unpack"), "ms");
  r.add("serialize.resp_pack_ms", d.median_ms("serialize.resp_pack"), "ms");
  r.add("keyswitch.decompose_ms", d.median_ms("keyswitch.decompose"), "ms");
  r.add("keyswitch.accumulate_ms", d.median_ms("keyswitch.accumulate"), "ms");
  r.add("ckks.rotate_ms", d.median_ms("ckks.rotate"), "ms");
  r.add("ckks.square_relin_ms", d.median_ms("ckks.square_relin"), "ms");
  r.add("keycache.regen_ms", d.median_ms("keycache.regen"), "ms");
  const double hits = diff(l.after.cache.hits, l.before.cache.hits);
  const double misses = diff(l.after.cache.misses, l.before.cache.misses);
  r.add("keycache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  r.add("keycache.evictions_per_req",
        diff(l.after.cache.evictions, l.before.cache.evictions) / processed,
        "1/req");
  r.add("keycache.resident_mib",
        static_cast<double>(l.after.cache.resident_bytes) / (1 << 20), "MiB");

  r.add("trace.untraced_per_s", l.untraced_per_s, "1/s");
  r.add("trace.overhead_frac",
        (l.untraced_per_s - l.traced_per_s) / l.untraced_per_s, "frac");
}

/// A traced run spends half its window untraced (the base) and half
/// traced, in chunks ordered untraced-traced, traced-untraced, ... so that
/// neither side always runs first and drift over the run affects both
/// alike; the throughput difference is the tracing overhead. One untraced
/// chunk runs first as a warm-up and is not counted.
/// @p window(seconds, traced, stream) returns {ops, seconds}.
template <class Window>
void alternate_windows(double seconds, LayerRun& l, Window&& window) {
  constexpr int kChunks = 4;
  window(seconds / (2 * kChunks), false, 9);  // warm-up, not counted
  std::array<double, 2> ops{};
  std::array<double, 2> secs{};
  for (int k = 0; k < kChunks; ++k) {
    for (int i = 0; i < 2; ++i) {
      const int traced = (k + i) % 2;
      const auto [n, s] = window(seconds / (2 * kChunks), traced == 1,
                                 static_cast<u64>(10 + 2 * k + traced));
      ops[static_cast<std::size_t>(traced)] += n;
      secs[static_cast<std::size_t>(traced)] += s;
    }
  }
  l.untraced_per_s = ops[0] / secs[0];
  l.traced_per_s = ops[1] / secs[1];
}

void finish_layers(LayerRun& l, Tracer& tr, const Args& a, Outcome& outcome) {
  l.spans = perfbench::digest(tr.spans());
  if (l.spans.max_tree_error_ns != 0) {
    std::fprintf(stderr, "span tree does not add up: %lld ns\n",
                 static_cast<long long>(l.spans.max_tree_error_ns));
    ++outcome.failed;
  }
  if (!a.trace_out.empty() &&
      !perfbench::write_trace_json(a.trace_out, tr.spans())) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    ++outcome.failed;
  }
  std::printf("  trace: %zu spans, untraced %.3f/s, traced %.3f/s\n",
              tr.spans().size(), l.untraced_per_s, l.traced_per_s);
}

void run_paper(const Args& a, Report& report, Outcome& outcome) {
  u64 op = 0;
  if (!a.trace) {
    double setup_s = 0.0;
    auto c = repeated_setup(
        [&] { return std::make_unique<PaperClient>(setup_paper(a.seed)); },
        setup_s);
    const PaperWindow w =
        paper_window(*c, a.seconds, a.seed, 10, nullptr, nullptr, op, outcome);
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
    report.add("throughput_per_s",
               static_cast<double>(w.up_ms.size()) / w.window_s, "1/s");
    add_latency(report, w.up_ms, "upload");
    report.note("dec_p50_ms", perfbench::median(w.down_ms), "ms");
    report.add("min_precision_bits",
               std::min(c->min_precision_bits, w.min_precision_bits), "bits");
    return;
  }
  Tracer tr;
  LayerRun l;
  PaperClient c = setup_paper(a.seed);
  l.keygen_s = c.keygen_s;
  l.upload_bytes = c.upload_bytes;
  l.key_bundle_bytes = c.key_bundle_bytes;
  ComposedClient composed(c.ctx, c.session->secret_key(),
                          c.session->config().bits_per_coeff);
  alternate_windows(a.seconds, l, [&](double s, bool traced, u64 stream) {
    const PaperWindow w =
        paper_window(c, s, a.seed, stream, traced ? &tr : nullptr,
                     traced ? &composed : nullptr, op, outcome);
    return std::pair{static_cast<double>(w.up_ms.size()), w.window_s};
  });
  probe_kernels(*c.ctx, c.upload_limbs, kPaperDownloadLimbs, 6, tr, op,
                l.per_unit);
  // The paper client runs no server, so its server-side layers come from a
  // serving-point probe: the serve_warm rig under one second of load.
  auto rig = setup_serve(serve_config("serve_warm"), a.seed);
  l.before = read_counters(*rig);
  serve_window(*rig, 1.0, a.seed, 12, nullptr, outcome);
  l.after = read_counters(*rig);
  decompose_serve(*rig, 12, a.seed, tr, op, l.dispatch_ms, outcome);
  finish_layers(l, tr, a, outcome);
  report_layers(l, report);
}

void run_serve(const Args& a, Report& report, Outcome& outcome) {
  const ServeConfig cfg = serve_config(a.workload);
  if (!a.trace) {
    double setup_s = 0.0;
    auto rig = repeated_setup([&] { return setup_serve(cfg, a.seed); },
                              setup_s);
    // The window runs in chunks, each followed by a burst of client
    // downloads, so both samples span the whole run rather than one stretch
    // of it; throughput counts load time only.
    constexpr int kChunks = 5;
    constexpr std::size_t kDownloadsPerChunk = 40;
    std::vector<double> lat_ms;
    std::vector<double> dec_ms;
    double load_s = 0.0;
    for (int k = 0; k < kChunks; ++k) {
      const LoadWindow w = serve_window(*rig, a.seconds / kChunks, a.seed,
                                        static_cast<u64>(10 + k), nullptr,
                                        outcome);
      lat_ms.insert(lat_ms.end(), w.lat_ms.begin(), w.lat_ms.end());
      load_s += w.window_s;
      serve_downloads(*rig, kDownloadsPerChunk, a.seed,
                      static_cast<u64>(20 + k), dec_ms, outcome);
    }
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
    report.add("throughput_per_s",
               static_cast<double>(lat_ms.size()) / load_s, "1/s");
    add_latency(report, lat_ms, "server call");
    report.note("dec_p50_ms", perfbench::median(dec_ms), "ms");
    report.add("min_precision_bits", rig->min_precision_bits, "bits");
    return;
  }
  u64 op = 0;
  LayerRun l;
  auto rig = setup_serve(cfg, a.seed);
  l.keygen_s = rig->keygen_s;
  l.key_bundle_bytes = rig->key_bundle_bytes;
  l.upload_bytes = rig->tenants[0].upload.size();
  std::vector<Tracer> tracers;
  for (std::size_t i = 0; i < kClientThreads; ++i) {
    tracers.emplace_back(static_cast<int>(i));
  }
  l.before = read_counters(*rig);
  alternate_windows(a.seconds, l, [&](double s, bool traced, u64 stream) {
    const LoadWindow w = serve_window(*rig, s, a.seed, stream,
                                      traced ? &tracers : nullptr, outcome);
    return std::pair{static_cast<double>(w.lat_ms.size()), w.window_s};
  });
  l.after = read_counters(*rig);

  // Client path at the serving point: tenant 0 uploads its message and
  // downloads each op's checked reply, one call per span.
  Tracer tr(static_cast<int>(kClientThreads));
  Tenant& t0 = rig->tenants[0];
  ComposedClient composed(rig->client_ctx, t0.session->secret_key(),
                          t0.session->config().bits_per_coeff);
  for (int i = 0; i < 24; ++i) {
    const std::size_t o = static_cast<std::size_t>(i) % kOps.size();
    const u64 id = ++op;
    Scope root(&tr, "client.round_trip", id);
    const std::vector<u8> up =
        composed.upload(&tr, id, t0.msg, rig->upload_limbs);
    const double bits = composed.download(&tr, id, t0.reference[o],
                                          t0.expected[o], kReplyBound);
    outcome.count(up.size() == t0.upload.size() && bits >= 0.0);
  }
  probe_kernels(*rig->client_ctx, rig->upload_limbs, rig->upload_limbs, 24, tr,
                op, l.per_unit);
  decompose_serve(*rig, 24, a.seed, tr, op, l.dispatch_ms, outcome);
  for (const Tracer& t : tracers) tr.merge(t);
  finish_layers(l, tr, a, outcome);
  report_layers(l, report);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  print_header(args);
  Report report;
  Outcome outcome;
  try {
    if (args.workload == "client_paper") {
      run_paper(args, report, outcome);
    } else {
      run_serve(args, report, outcome);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abc_perfbench: %s\n", e.what());
    return 1;
  }
  const bool correct = outcome.attempted > 0 && outcome.failed == 0;
  report.print(outcome, correct);
  return correct ? 0 : 1;
}

// Serving daemon demo: one engine::Server, four concurrent ClientSession
// tenants. Each client registers its own key bundle over the loopback
// transport, then drives the PR 5 retrying round-trip facade against the
// daemon — uploads go through the daemon's shared request queue to
// whichever worker is free, responses come back as "ABCB" download
// envelopes, and every slot is verified against the sent messages. A
// rotate request per client checks the compute path too.
//
// After the clients finish, the demo scrapes the daemon's metrics the way
// an operator would: an Op::kStats admin request over a Unix-domain
// socket, answered with the JSON document every instrumented subsystem
// feeds (counters, gauges, latency histograms, recent traces).
//
// Exits nonzero if any client's round trip fails to verify — the same
// check CI's example smoke gates on.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/serve_clients [--stats-json <path>] [--key-cache-mb <n>]
//
// --stats-json writes the scraped kStats payload to <path> (CI validates
// it with tools/check_stats_scrape.py). --key-cache-mb sizes the daemon's
// shared expanded-key cache (default from ServerConfig; small values
// demonstrate regeneration churn in the keycache.* metrics).

#include <unistd.h>

#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/client_session.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"

int main(int argc, char** argv) {
  using namespace abc;
  std::string stats_json_path;
  std::size_t key_cache_mb = 0;  // 0 = ServerConfig default
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      stats_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--key-cache-mb") == 0 && i + 1 < argc) {
      key_cache_mb = static_cast<std::size_t>(std::atol(argv[++i]));
    }
  }
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  std::puts("== ABC-FHE serving daemon (4 concurrent tenants) ==\n");

  // The daemon publishes one parameter set and schedules across per-core
  // workers; clients never share state with it except through frames.
  const ckks::CkksParams params = ckks::CkksParams::test_small(11, 3);
  server::ServerConfig cfg;
  cfg.workers = 2;
  cfg.param_sets = {params};
  if (key_cache_mb > 0) cfg.key_cache_bytes = key_cache_mb << 20;
  server::Server daemon(cfg);
  std::printf("daemon up: %zu workers, queue capacity %zu, N = 2^%d\n\n",
              daemon.config().workers, daemon.config().queue_capacity,
              params.log_n);

  constexpr int kClients = 4;
  std::mutex log_m;
  std::vector<std::string> failures;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto fail = [&](const std::string& why) {
        std::lock_guard<std::mutex> lock(log_m);
        failures.push_back("client " + std::to_string(c) + ": " + why);
      };
      try {
        // Each tenant: own context, own keys, own connection.
        auto ctx = ckks::CkksContext::create(params);
        engine::ClientSession session(ctx, engine::SessionConfig{{1}});
        server::LoopbackChannel chan(daemon);
        const u64 tenant = server::register_over_channel(
            chan, 0, session.key_bundle());

        // Random batch, verified echo round trip with bounded retry.
        std::mt19937_64 rng(static_cast<u64>(c) + 1);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        std::vector<std::vector<std::complex<double>>> msgs(3);
        for (auto& m : msgs) {
          m.resize(ctx->slots());
          for (auto& z : m) z = {dist(rng), dist(rng)};
        }
        const std::size_t limbs = ctx->max_limbs() - 1;
        const auto echo = session.round_trip_with_retry(
            msgs, limbs,
            server::as_session_transport(chan, tenant, server::Op::kEcho));
        if (!echo.ok) {
          fail("echo round trip failed to verify");
          return;
        }

        // One rotate request: decrypt and spot-check the slots moved.
        const auto resp = chan.call([&] {
          ckks::RequestFrame req;
          req.tenant = tenant;
          req.request_id = 1;
          req.op = static_cast<u8>(server::Op::kRotate);
          req.op_arg = 1;
          req.payload = session.upload(msgs, limbs);
          return req;
        }());
        if (resp.status != static_cast<u8>(server::Status::kOk)) {
          fail("rotate request answered " +
               std::string(server::status_name(
                   static_cast<server::Status>(resp.status))) +
               ": " + resp.error);
          return;
        }
        const auto rotated =
            ckks::deserialize_ciphertext_batch(ctx, resp.payload);
        const auto decoded = session.decrypt_batch(rotated);
        const std::size_t slots = ctx->slots();
        for (std::size_t i = 0; i < msgs.size(); ++i) {
          for (std::size_t j = 0; j < slots; ++j) {
            if (std::abs(decoded[i][j] - msgs[i][(j + 1) % slots]) > 1e-2) {
              fail("rotate slot mismatch at batch " + std::to_string(i) +
                   " slot " + std::to_string(j));
              return;
            }
          }
        }
        {
          std::lock_guard<std::mutex> lock(log_m);
          std::printf("client %d: tenant %llu verified echo + rotate "
                      "(%zu retries used)\n",
                      c, static_cast<unsigned long long>(tenant),
                      echo.rounds - 1);
        }
      } catch (const std::exception& e) {
        fail(e.what());
      }
    });
  }
  for (auto& t : clients) t.join();

  const server::ServerStats stats = daemon.stats();
  std::printf("\ndaemon: %llu accepted, %llu processed across %zu "
              "workers\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.processed),
              stats.per_worker_processed.size());
  // Operator-style observability: scrape Op::kStats over a Unix-domain
  // socket — the exact path a monitoring agent would use against a
  // deployed daemon — and show a few headline numbers.
  try {
    const std::string sock_path =
        "/tmp/abc_serve_clients_" + std::to_string(::getpid()) + ".sock";
    server::UdsServer uds(daemon, sock_path);
    server::UdsChannel chan(sock_path);
    ckks::RequestFrame req;
    req.request_id = 1;
    req.op = static_cast<u8>(server::Op::kStats);
    const ckks::ResponseFrame resp = chan.call(req);
    if (resp.status != static_cast<u8>(server::Status::kOk)) {
      std::fprintf(stderr, "kStats scrape answered %s: %s\n",
                   server::status_name(
                       static_cast<server::Status>(resp.status)),
                   resp.error.c_str());
      return 1;
    }
    const std::string json(resp.payload.begin(), resp.payload.end());
    std::printf("kStats scrape over UDS: %zu bytes of JSON\n", json.size());
    if (!stats_json_path.empty()) {
      std::FILE* f = std::fopen(stats_json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", stats_json_path.c_str());
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("stats written to %s\n", stats_json_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kStats scrape failed: %s\n", e.what());
    return 1;
  }

  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (!failures.empty()) {
    for (const auto& f : failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
    return 1;
  }
  std::printf("all %d clients verified in %.2f s\n", kClients, secs);
  return 0;
}

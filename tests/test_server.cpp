// The serving-daemon battery: multi-threaded soak (responses bit-identical
// to serial execution at every worker count), the shared request queue
// feeding every worker, backpressure/overload with typed rejections,
// warm-context cache keying, failpoint-driven fault drills on
// accept/queue-full/dispatch/evaluate, and the Unix-domain-socket
// transport end to end.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstring>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "backend/thread_pool_backend.hpp"
#include "common/failpoint.hpp"
#include "obs/metrics.hpp"
#include "engine/batch_evaluator.hpp"
#include "engine/client_session.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"

namespace abc {
namespace {

using server::LoopbackChannel;
using server::Op;
using server::Server;
using server::ServerConfig;
using server::Status;
using server::UdsChannel;
using server::UdsServer;

ckks::CkksParams small_params() { return ckks::CkksParams::test_small(10, 3); }

std::vector<std::vector<std::complex<double>>> random_batch(
    std::size_t batch, std::size_t slots, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::vector<std::complex<double>>> msgs(batch);
  for (auto& m : msgs) {
    m.resize(slots);
    for (auto& z : m) z = {dist(rng), dist(rng)};
  }
  return msgs;
}

ckks::KeyBundleFrames frames_of(const engine::KeyBundle& kb) {
  return ckks::KeyBundleFrames{kb.public_key, kb.relin_key, kb.galois_keys};
}

ckks::RequestFrame make_request(u64 tenant, u64 id, Op op, i64 arg,
                                std::vector<u8> payload) {
  ckks::RequestFrame req;
  req.tenant = tenant;
  req.request_id = id;
  req.op = static_cast<u8>(op);
  req.op_arg = arg;
  req.payload = std::move(payload);
  return req;
}

Status status_of(const ckks::ResponseFrame& resp) {
  return static_cast<Status>(resp.status);
}

/// Every test leaves the failpoint registry clean.
struct ServerTest : ::testing::Test {
  void TearDown() override { fail::disarm_all(); }
};

/// One synthetic client: a ClientSession whose uploads become request
/// payloads. The session lives on its *own* context built from the same
/// parameters the server publishes — exactly the remote-client shape.
struct Client {
  std::shared_ptr<const ckks::CkksContext> ctx;
  engine::ClientSession session;

  explicit Client(const ckks::CkksParams& params,
                  std::vector<int> rotations = {1})
      : ctx(ckks::CkksContext::create(params)),
        session(ctx, engine::SessionConfig{std::move(rotations)}) {}

  std::size_t eval_limbs() const { return ctx->max_limbs() - 1; }
};

// ---------------------------------------------------------------------------
// Soak: bit-identity vs serial execution at every worker count
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SoakResponsesBitIdenticalToSerialAtEveryWorkerCount) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  const ckks::KeyBundleFrames frames = frames_of(client.session.key_bundle());

  // A fixed request mix prepared once: the same bytes go to every server
  // configuration, so responses must match across configurations too.
  const auto msgs = random_batch(3, client.ctx->slots(), 2025);
  constexpr std::size_t kRequests = 9;
  std::vector<ckks::RequestFrame> requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Op op = (i % 3 == 0) ? Op::kEcho
                  : (i % 3 == 1) ? Op::kRotate
                                 : Op::kSquare;
    requests.push_back(make_request(
        /*tenant=*/1, /*id=*/i + 1, op, /*arg=*/op == Op::kRotate ? 1 : 0,
        client.session.upload(msgs, client.eval_limbs())));
  }

  std::vector<std::vector<u8>> reference;  // payloads from the first config
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.param_sets = {params};
    Server srv(cfg);
    // Fresh server, first tenant: id 1, matching the prepared frames.
    ASSERT_EQ(srv.register_tenant(params, frames), 1u);

    // N concurrent synthetic clients submit the mix in parallel.
    std::vector<std::future<ckks::ResponseFrame>> futures(kRequests);
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t i = static_cast<std::size_t>(c); i < kRequests;
               i += 3) {
            futures[i] = srv.submit(requests[i]);
          }
        });
      }
      for (auto& t : clients) t.join();
    }

    for (std::size_t i = 0; i < kRequests; ++i) {
      const ckks::ResponseFrame resp = futures[i].get();
      ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
      EXPECT_EQ(resp.request_id, requests[i].request_id);
      // Bit-identical to the serial reference on this server...
      const ckks::ResponseFrame serial = srv.process_serial(requests[i]);
      ASSERT_EQ(status_of(serial), Status::kOk) << serial.error;
      EXPECT_EQ(resp.payload, serial.payload) << "request " << i;
      // ...and to every other worker count.
      if (reference.size() <= i) {
        reference.push_back(resp.payload);
      } else {
        EXPECT_EQ(resp.payload, reference[i]) << "request " << i;
      }
    }
    const server::ServerStats stats = srv.stats();
    if (obs::kMetricsEnabled) {  // counters read 0 under ABC_NO_METRICS
      EXPECT_EQ(stats.accepted, kRequests);
      EXPECT_EQ(stats.processed, kRequests);
    }
  }
}

TEST_F(ServerTest, SharedQueueFeedsEveryWorkerWithoutChangingBytes) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  const ckks::KeyBundleFrames frames = frames_of(client.session.key_bundle());
  const auto msgs = random_batch(2, client.ctx->slots(), 7);

  ServerConfig cfg;
  cfg.workers = 2;
  cfg.param_sets = {params};
  Server srv(cfg);
  const u64 tenant = srv.register_tenant(params, frames);

  // A per-dispatch delay keeps whichever worker dequeues first busy, so
  // the rest of the burst must reach the other worker through the queue.
  fail::Policy slow;
  slow.action = fail::Action::kDelay;
  slow.delay_us = 1000;
  fail::arm(fail::points::kServerDispatch, slow);

  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());
  const ckks::ResponseFrame serial =
      srv.process_serial(make_request(tenant, 1, Op::kEcho, 0, upload));
  ASSERT_EQ(status_of(serial), Status::kOk) << serial.error;

  // Bounded retry so no scheduler pathology can flake the assertion.
  // per_worker_processed is a plain atomic array, exact in every build.
  auto idle_worker = [&] {
    const server::ServerStats stats = srv.stats();
    return std::min(stats.per_worker_processed[0],
                    stats.per_worker_processed[1]) == 0;
  };
  for (int round = 0; round < 20 && idle_worker(); ++round) {
    std::vector<std::future<ckks::ResponseFrame>> futures;
    for (u64 i = 0; i < 8; ++i) {
      futures.push_back(
          srv.submit(make_request(tenant, 100 + i, Op::kEcho, 0, upload)));
    }
    for (auto& f : futures) {
      const ckks::ResponseFrame resp = f.get();
      ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
      // Whichever worker ran it, the bytes are the bytes.
      EXPECT_EQ(resp.payload, serial.payload);
    }
  }
  const server::ServerStats stats = srv.stats();
  ASSERT_EQ(stats.per_worker_processed.size(), 2u);
  EXPECT_GT(stats.per_worker_processed[0], 0u);
  EXPECT_GT(stats.per_worker_processed[1], 0u);
}

// ---------------------------------------------------------------------------
// Backpressure and admission control (satellite 1)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, OverloadFloodRejectsTypedImmediatelyAndRecovers) {
  // queue_capacity bounds the one queue all workers share, so at any
  // worker count the flood gets at most the capacity queued plus one
  // request in flight per worker.
  for (const std::size_t workers : {1u, 2u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 4;
    Server srv(cfg);

    // Slow the workers so the flood outruns them: ~20 ms per dispatch
    // against a burst of 64 sub-millisecond submits.
    fail::Policy slow;
    slow.action = fail::Action::kDelay;
    slow.delay_us = 20000;
    fail::arm(fail::points::kServerDispatch, slow);

    constexpr std::size_t kFlood = 64;
    std::vector<std::future<ckks::ResponseFrame>> futures;
    std::size_t immediate = 0;
    for (std::size_t i = 0; i < kFlood; ++i) {
      futures.push_back(srv.submit(make_request(9, i, static_cast<Op>(42), 0,
                                                {/*empty payload*/})));
      // A rejected request's future is ready before submit() returns —
      // admission never blocks the flooder on the flooded queue.
      if (futures.back().wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        ++immediate;
      }
    }

    std::size_t queue_full = 0;
    for (auto& f : futures) {
      const ckks::ResponseFrame resp = f.get();
      const Status s = status_of(resp);
      // Clean typed outcome for every request: processed (this op byte is
      // unknown, so kUnknownOp) or rejected at admission.
      ASSERT_TRUE(s == Status::kQueueFull || s == Status::kUnknownOp)
          << static_cast<int>(resp.status);
      if (s == Status::kQueueFull) {
        ++queue_full;
        EXPECT_FALSE(resp.error.empty());
      }
    }
    EXPECT_GT(queue_full, 0u);
    EXPECT_GE(immediate, queue_full);  // every rejection was instant
    EXPECT_LE(kFlood - queue_full, cfg.queue_capacity + workers);
    const server::ServerStats stats = srv.stats();
    if (obs::kMetricsEnabled) {  // counters read 0 under ABC_NO_METRICS
      EXPECT_EQ(stats.rejected_queue_full, queue_full);
      EXPECT_EQ(stats.accepted + stats.rejected_queue_full, kFlood);
    }

    // Recovery: with the delay gone the same server drains normally.
    fail::disarm_all();
    const ckks::ResponseFrame after =
        srv.call(make_request(9, 999, static_cast<Op>(42), 0, {}));
    EXPECT_EQ(status_of(after), Status::kUnknownOp);
  }
}

TEST_F(ServerTest, QueueFullFailpointCoversTheRejectionPath) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  Server srv(cfg);

  fail::Policy slow;
  slow.action = fail::Action::kDelay;
  slow.delay_us = 20000;
  fail::arm(fail::points::kServerDispatch, slow);
  fail::arm(fail::points::kServerQueueFull, fail::Policy{});  // throws

  std::vector<std::future<ckks::ResponseFrame>> futures;
  for (std::size_t i = 0; i < 32; ++i) {
    futures.push_back(
        srv.submit(make_request(9, i, static_cast<Op>(42), 0, {})));
  }
  std::size_t failpoint_rejections = 0;
  for (auto& f : futures) {
    const ckks::ResponseFrame resp = f.get();
    // Even with a fault injected *inside* the rejection path, the
    // response is still typed kQueueFull — never a hang or a crash.
    if (status_of(resp) == Status::kQueueFull) {
      ++failpoint_rejections;
      EXPECT_NE(resp.error.find(fail::points::kServerQueueFull),
                std::string::npos);
    }
  }
  EXPECT_GT(failpoint_rejections, 0u);
  EXPECT_EQ(fail::fires(fail::points::kServerQueueFull),
            failpoint_rejections);
}

TEST_F(ServerTest, AdmissionBoundsPayloadBytesBeforeEnqueue) {
  ServerConfig cfg;
  cfg.max_request_bytes = 16;
  Server srv(cfg);

  auto rejected = srv.submit(
      make_request(1, 1, Op::kEcho, 0, std::vector<u8>(17, 0xab)));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ckks::ResponseFrame resp = rejected.get();
  EXPECT_EQ(status_of(resp), Status::kTooLarge);
  EXPECT_FALSE(resp.error.empty());

  // At the bound is admitted (and then rejected downstream as garbage —
  // a *different* typed error, proving it reached processing).
  const ckks::ResponseFrame at_bound =
      srv.call(make_request(1, 2, Op::kEcho, 0, std::vector<u8>(16, 0xab)));
  EXPECT_EQ(status_of(at_bound), Status::kUnknownTenant);
  if (obs::kMetricsEnabled) EXPECT_EQ(srv.stats().rejected_too_large, 1u);
}

TEST_F(ServerTest, StoppedServerAnswersShuttingDown) {
  Server srv(ServerConfig{});
  srv.stop();
  auto f = srv.submit(make_request(1, 1, Op::kEcho, 0, {}));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(status_of(f.get()), Status::kShuttingDown);
  srv.stop();  // idempotent
}

TEST_F(ServerTest, EveryFailureModeAnswersItsTypedStatus) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  ServerConfig cfg;
  cfg.param_sets = {params};
  Server srv(cfg);
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 3);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());

  // The good path first, so the errors below are errors of the input.
  EXPECT_EQ(status_of(srv.call(make_request(tenant, 1, Op::kEcho, 0, upload))),
            Status::kOk);
  // Unregistered tenant.
  EXPECT_EQ(status_of(srv.call(make_request(tenant + 99, 2, Op::kEcho, 0,
                                            upload))),
            Status::kUnknownTenant);
  // Op byte outside the enum.
  EXPECT_EQ(
      status_of(srv.call(make_request(tenant, 3, static_cast<Op>(42), 0, {}))),
      Status::kUnknownOp);
  // Garbage ciphertext envelope.
  EXPECT_EQ(status_of(srv.call(
                make_request(tenant, 4, Op::kEcho, 0, {0x01, 0x02, 0x03}))),
            Status::kBadRequest);
  // Rotation step with no registered Galois key.
  EXPECT_EQ(
      status_of(srv.call(make_request(tenant, 5, Op::kRotate, 3, upload))),
      Status::kBadRequest);
  // Register against a menu index the server does not publish.
  EXPECT_EQ(status_of(srv.call(make_request(0, 6, Op::kRegister, 7,
                                            {0x00, 0x01}))),
            Status::kBadRequest);
  // Register with a corrupt bundle envelope.
  EXPECT_EQ(status_of(srv.call(make_request(0, 7, Op::kRegister, 0,
                                            {0x41, 0x42, 0x43}))),
            Status::kBadRequest);
  // None of it took the server down.
  EXPECT_EQ(status_of(srv.call(make_request(tenant, 8, Op::kEcho, 0, upload))),
            Status::kOk);
}

// ---------------------------------------------------------------------------
// Warm-context cache keying (satellite 3)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SameParamsShareOneWarmContextDifferentParamsNever) {
  const ckks::CkksParams params_a = small_params();
  const ckks::CkksParams params_b = ckks::CkksParams::test_small(10, 2);
  ServerConfig cfg;
  cfg.param_sets = {params_a, params_b};
  Server srv(cfg);

  const auto ctx_a1 = srv.context_for(params_a);
  const auto ctx_a2 = srv.context_for(params_a);
  const auto ctx_b = srv.context_for(params_b);
  EXPECT_EQ(ctx_a1.get(), ctx_a2.get());  // same params: one warm context
  EXPECT_NE(ctx_a1.get(), ctx_b.get());   // different params: never shared

  // Two tenants registering under the same menu entry land on the shared
  // context; registration over the wire hands back distinct monotone ids.
  LoopbackChannel chan(srv);
  Client c1(params_a);
  Client c2(params_a);
  const u64 id1 =
      server::register_over_channel(chan, 0, c1.session.key_bundle());
  const u64 id2 =
      server::register_over_channel(chan, 0, c2.session.key_bundle());
  EXPECT_LT(id1, id2);  // ids never reused, strictly increasing
  EXPECT_EQ(srv.context_for(params_a).get(), ctx_a1.get());
}

TEST_F(ServerTest, SharedContextKeepsStreamAndSecretIdsMonotoneAcrossTenants) {
  // Loopback tenants that build their sessions directly on the daemon's
  // cached context: the context-wide counters must keep every tenant's
  // key and encryption streams disjoint (the PR 5 never-alias guarantee,
  // now across tenants of one warm context).
  const ckks::CkksParams params = small_params();
  Server srv(ServerConfig{.param_sets = {params}});
  const auto ctx = srv.context_for(params);

  engine::ClientSession s1(ctx);
  engine::ClientSession s2(ctx);
  EXPECT_NE(s1.secret_key().stream_id, s2.secret_key().stream_id);
  EXPECT_LT(s1.secret_key().stream_id, s2.secret_key().stream_id);

  // Both sessions encrypting the same messages on the shared context:
  // every ciphertext keystream id is unique — within a session (the
  // context-wide counter) and across sessions (the secret id folded into
  // the stream id) — so no two tenants can ever alias a keystream.
  const auto msgs = random_batch(2, ctx->slots(), 11);
  auto cts1 = s1.encrypt(msgs, ctx->max_limbs());
  auto cts2 = s2.encrypt(msgs, ctx->max_limbs());
  std::vector<u64> ids;
  for (const auto& ct : cts1) {
    ASSERT_TRUE(ct.compressed_c1.has_value());
    ids.push_back(ct.compressed_c1->stream_id);
  }
  for (const auto& ct : cts2) {
    ASSERT_TRUE(ct.compressed_c1.has_value());
    ids.push_back(ct.compressed_c1->stream_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  // The context-wide counter itself is monotone across tenants: a fresh
  // reservation lands above everything handed out so far.
  EXPECT_GT(ctx->reserve_stream_ids(1), 0u);
}

// ---------------------------------------------------------------------------
// Fault drills (tentpole battery + failpoint weave)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, AcceptFaultAnswersTypedAndServerSurvives) {
  Server srv(ServerConfig{});
  fail::Policy boom;
  boom.action = fail::Action::kThrowRuntimeError;
  fail::arm(fail::points::kServerAccept, boom);

  auto f = srv.submit(make_request(1, 1, static_cast<Op>(42), 0, {}));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ckks::ResponseFrame resp = f.get();
  EXPECT_EQ(status_of(resp), Status::kInternal);
  EXPECT_NE(resp.error.find(fail::points::kServerAccept), std::string::npos);
  EXPECT_GT(fail::fires(fail::points::kServerAccept), 0u);

  fail::disarm(fail::points::kServerAccept);
  EXPECT_EQ(status_of(srv.call(make_request(1, 2, static_cast<Op>(42), 0, {}))),
            Status::kUnknownOp);
}

TEST_F(ServerTest, DispatchFaultFailsOneRequestNotTheWorker) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  Server srv(ServerConfig{.param_sets = {params}});
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 5);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());
  const ckks::ResponseFrame serial =
      srv.process_serial(make_request(tenant, 1, Op::kEcho, 0, upload));

  fail::Policy once;
  once.action = fail::Action::kThrowRuntimeError;
  once.max_fires = 1;
  fail::arm(fail::points::kServerDispatch, once);

  const ckks::ResponseFrame faulted =
      srv.call(make_request(tenant, 1, Op::kEcho, 0, upload));
  EXPECT_EQ(status_of(faulted), Status::kInternal);
  EXPECT_NE(faulted.error.find(fail::points::kServerDispatch),
            std::string::npos);

  // The worker that absorbed the fault serves the retry bit-identically.
  const ckks::ResponseFrame retried =
      srv.call(make_request(tenant, 1, Op::kEcho, 0, upload));
  ASSERT_EQ(status_of(retried), Status::kOk) << retried.error;
  EXPECT_EQ(retried.payload, serial.payload);
}

TEST_F(ServerTest, EvaluateItemFaultIsTypedAndLeavesNoResidue) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  Server srv(ServerConfig{.param_sets = {params}});
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 13);
  const ckks::RequestFrame request = make_request(
      tenant, 1, Op::kRotate, 1,
      client.session.upload(msgs, client.eval_limbs()));
  const ckks::ResponseFrame serial = srv.process_serial(request);
  ASSERT_EQ(status_of(serial), Status::kOk) << serial.error;

  fail::arm(fail::points::kEvaluateItem, fail::Policy{});  // InvalidArgument
  EXPECT_EQ(status_of(srv.call(request)), Status::kBadRequest);
  fail::disarm(fail::points::kEvaluateItem);

  // Same request bytes after the drill: bit-identical to the reference.
  const ckks::ResponseFrame after = srv.call(request);
  ASSERT_EQ(status_of(after), Status::kOk) << after.error;
  EXPECT_EQ(after.payload, serial.payload);
}

// ---------------------------------------------------------------------------
// BatchEvaluator: the server-side engine in isolation
// ---------------------------------------------------------------------------

TEST_F(ServerTest, BatchEvaluatorBitIdenticalAcrossBackends) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  const ckks::KeyBundleFrames frames = frames_of(client.session.key_bundle());
  const auto msgs = random_batch(4, client.ctx->slots(), 23);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());

  auto run = [&](std::shared_ptr<backend::PolyBackend> backend) {
    auto ctx = ckks::CkksContext::create(params, std::move(backend));
    const server::TenantSession keys =
        server::parse_tenant_bundle(ctx, frames);
    const auto cts = ckks::deserialize_ciphertext_batch(ctx, upload);
    engine::BatchEvaluator eval(ctx);
    const auto rotated = eval.rotate_batch(cts, 1, keys.expand_gks());
    const auto squared = eval.square_relin_batch(cts, keys.expand_rlk());
    return std::make_pair(ckks::serialize_ciphertext_batch(rotated),
                          ckks::serialize_ciphertext_batch(squared));
  };

  const auto scalar = run(nullptr);
  const auto pooled = run(std::make_shared<backend::ThreadPoolBackend>(4));
  EXPECT_EQ(scalar.first, pooled.first);    // rotate: any worker count
  EXPECT_EQ(scalar.second, pooled.second);  // square: any worker count
}

TEST_F(ServerTest, BatchEvaluatorReportModeIsolatesTheFaultedItem) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  const ckks::KeyBundleFrames frames = frames_of(client.session.key_bundle());
  const auto msgs = random_batch(3, client.ctx->slots(), 29);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());

  auto ctx = ckks::CkksContext::create(params);  // scalar: in-order items
  const server::TenantSession keys = server::parse_tenant_bundle(ctx, frames);
  const ckks::GaloisKeys gks = keys.expand_gks();
  const auto cts = ckks::deserialize_ciphertext_batch(ctx, upload);
  engine::BatchEvaluator eval(ctx);
  const auto clean = eval.rotate_batch(cts, 1, gks);

  fail::Policy second_item;
  second_item.trigger = fail::Trigger::kNthHit;
  second_item.nth = 2;
  fail::arm(fail::points::kEvaluateItem, second_item);
  engine::BatchErrorReport report;
  const auto faulted = eval.rotate_batch(cts, 1, gks, report);
  fail::disarm_all();

  ASSERT_EQ(report.size(), cts.size());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failed, 1u);
  EXPECT_FALSE(report.items[1].ok);  // scalar backend: hit 2 = item 1
  EXPECT_TRUE(report.items[0].ok);
  EXPECT_TRUE(report.items[2].ok);
  // Survivors are the exact bytes of the clean run.
  EXPECT_EQ(ckks::serialize_ciphertext(faulted[0]),
            ckks::serialize_ciphertext(clean[0]));
  EXPECT_EQ(ckks::serialize_ciphertext(faulted[2]),
            ckks::serialize_ciphertext(clean[2]));
}

// ---------------------------------------------------------------------------
// Unix-domain-socket transport
// ---------------------------------------------------------------------------

TEST_F(ServerTest, UdsTransportServesConcurrentSessionsEndToEnd) {
  const ckks::CkksParams params = small_params();
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.param_sets = {params};
  Server srv(cfg);
  const std::string path = "./abc_uds_test.sock";
  UdsServer uds(srv, path);

  // Four concurrent clients, each with its own connection and session,
  // each doing a full verified echo round trip through the socket.
  std::vector<std::string> failures;
  std::mutex failures_m;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(params);
        UdsChannel chan(path);
        const u64 tenant = server::register_over_channel(
            chan, 0, client.session.key_bundle());
        const auto msgs =
            random_batch(2, client.ctx->slots(), 100 + static_cast<u64>(c));
        const auto report = client.session.round_trip_with_retry(
            msgs, client.eval_limbs(),
            server::as_session_transport(chan, tenant, Op::kEcho));
        if (!report.ok) {
          throw std::runtime_error("round trip did not verify");
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(failures_m);
        failures.push_back("client " + std::to_string(c) + ": " + e.what());
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& f : failures) ADD_FAILURE() << f;

  // A compute op over the same socket: rotate by 1 and check the slots
  // actually moved.
  Client client(params);
  UdsChannel chan(path);
  const u64 tenant =
      server::register_over_channel(chan, 0, client.session.key_bundle());
  const auto msgs = random_batch(2, client.ctx->slots(), 200);
  ckks::ResponseFrame resp = chan.call(make_request(
      tenant, 1, Op::kRotate, 1,
      client.session.upload(msgs, client.eval_limbs())));
  ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
  const auto rotated =
      ckks::deserialize_ciphertext_batch(client.ctx, resp.payload);
  const auto decoded = client.session.decrypt_batch(rotated);
  ASSERT_EQ(decoded.size(), msgs.size());
  const std::size_t slots = client.ctx->slots();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    for (std::size_t j = 0; j < slots; ++j) {
      EXPECT_NEAR(decoded[i][j].real(), msgs[i][(j + 1) % slots].real(), 1e-2);
      EXPECT_NEAR(decoded[i][j].imag(), msgs[i][(j + 1) % slots].imag(), 1e-2);
    }
  }
  uds.stop();
}

TEST_F(ServerTest, UdsRejectsOversizedFrameClaimWithoutAllocating) {
  ServerConfig cfg;
  cfg.max_request_bytes = 1u << 20;
  Server srv(cfg);
  const std::string path = "./abc_uds_bound_test.sock";
  UdsServer uds(srv, path);

  // Raw socket speaking the framing by hand: claim a 4 GiB frame. The
  // server must answer a typed kTooLarge response (having allocated
  // nothing close to the claim) and close the connection.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const u8 huge_claim[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, huge_claim, 4, 0), 4);

  u8 header[4] = {};
  std::size_t got = 0;
  while (got < 4) {
    const ssize_t n = ::recv(fd, header + got, 4 - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  u64 len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<u64>(header[i]) << (8 * i);
  ASSERT_GT(len, 0u);
  ASSERT_LT(len, u64{1} << 20);  // a small typed response, not an echo
  std::vector<u8> frame(static_cast<std::size_t>(len));
  got = 0;
  while (got < frame.size()) {
    const ssize_t n = ::recv(fd, frame.data() + got, frame.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const ckks::ResponseFrame resp = ckks::deserialize_response_frame(frame);
  EXPECT_EQ(status_of(resp), Status::kTooLarge);
  EXPECT_FALSE(resp.error.empty());
  ::close(fd);
  uds.stop();
}

}  // namespace
}  // namespace abc

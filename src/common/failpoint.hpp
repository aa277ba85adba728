#pragma once

/// @file failpoint.hpp
/// Deterministic fault-injection registry — the failure-semantics test rig
/// for everything above it. A named `ABC_FAILPOINT(name)` is a single
/// relaxed atomic load and a predictable branch while nothing is armed
/// (cheap enough for hot paths; the engine-throughput bench verifies no
/// measurable overhead), and only takes the slow path once a test or an
/// `ABC_FAILPOINTS=` env spec arms a policy for that name.
///
/// Policies are deterministic on purpose: fire-on-Nth-hit counts hits,
/// fire-with-probability draws from a per-point splitmix64 PRNG seeded by
/// the policy — rerunning the same serial program replays the same fault
/// pattern. (Under a thread pool the *global* hit order depends on
/// scheduling, so probabilistic points are for robustness sweeps, not
/// bit-identity tests; per-item determinism tests inject faults through
/// deterministically malformed inputs instead.)
///
/// Actions model the failures the serving daemon must survive: throwing
/// abc::InvalidArgument (a rejected input), abc::LogicError (an internal
/// invariant tripping), std::runtime_error (a non-abc exception crossing
/// the layer), std::bad_alloc (allocation failure, FAB-style memory
/// pressure), or a delay (a stalled worker) that continues normally.
///
/// Env spec grammar (parsed once at process start, before main):
///
///     ABC_FAILPOINTS="<entry>(;<entry>)*"
///     entry   := <name>=<action>[@<mod>(,<mod>)*]
///     action  := throw | logic | runtime | badalloc | delay:<microseconds>
///     mod     := hit:<n>          fire on the n-th hit only (1-based)
///              | prob:<p>[/<seed>] fire each hit with probability p
///              | limit:<k>         disarm after k fires
///
/// e.g. ABC_FAILPOINTS="serialize.ct=throw@hit:2;backend.worker_job=
/// delay:200@prob:0.01/7,limit:4". A malformed spec aborts the process
/// with a message — a fault-injection run with a silently ignored spec
/// would test nothing.
///
/// Compile-out: defining ABC_NO_FAILPOINTS removes even the branch; the
/// registry API stays linkable so tests build either way.

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace abc::fail {

/// What an armed failpoint does when its trigger fires.
enum class Action {
  kThrowInvalidArgument,  // abc::InvalidArgument — a rejected input
  kThrowLogicError,       // abc::LogicError — an invariant violation
  kThrowRuntimeError,     // std::runtime_error — a non-abc exception
  kThrowBadAlloc,         // std::bad_alloc — allocation failure
  kDelay,                 // sleep delay_us, then continue normally
};

/// When an armed failpoint fires.
enum class Trigger {
  kAlways,       // every hit
  kNthHit,       // hit number `nth` only (1-based)
  kProbability,  // each hit independently with `probability` (seeded PRNG)
};

struct Policy {
  Action action = Action::kThrowInvalidArgument;
  Trigger trigger = Trigger::kAlways;
  u64 nth = 1;               // kNthHit: the 1-based hit index that fires
  double probability = 1.0;  // kProbability: per-hit chance in [0, 1]
  u64 seed = 1;              // kProbability: seeds the per-point PRNG
  u64 delay_us = 0;          // kDelay: microseconds to sleep per fire
  u64 max_fires = 0;         // disarm after this many fires; 0 = unlimited
};

/// Arms (or re-arms, resetting counters) a policy for @p name.
void arm(std::string_view name, const Policy& policy);
/// Disarms @p name; a no-op when it was not armed.
void disarm(std::string_view name);
void disarm_all();

bool armed(std::string_view name);
/// Hits observed while armed / times the policy actually fired.
u64 hits(std::string_view name);
u64 fires(std::string_view name);

/// Lifetime totals across every point and every arm/disarm cycle
/// (per-point state dies with disarm; these never reset). Monotone —
/// the obs metrics registry re-exports them as failpoint.hits/fires.
u64 total_hits();
u64 total_fires();

/// Parses and arms an ABC_FAILPOINTS-grammar spec; throws InvalidArgument
/// on a malformed spec. Exposed for tests and tools.
void install_spec(std::string_view spec);

/// RAII arm/disarm for tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string_view name, const Policy& policy)
      : name_(name) {
    arm(name_, policy);
  }
  ~ScopedFailpoint() { disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

/// The failpoint catalog. Every ABC_FAILPOINT in the tree uses one of
/// these names, and the fault-matrix suite iterates kAll — a point absent
/// here is a point no test will ever drive, so additions belong in both
/// places (and in the docs/ARCHITECTURE.md table).
namespace points {
inline constexpr const char* kPrngStreamSetup = "prng.stream_setup";
inline constexpr const char* kDeserializeCiphertext = "serialize.ct";
inline constexpr const char* kDeserializeBatch = "serialize.batch";
inline constexpr const char* kDeserializeKey = "serialize.key";
inline constexpr const char* kBackendWorkerJob = "backend.worker_job";
inline constexpr const char* kBackendNestedJob = "backend.nested_job";
inline constexpr const char* kKeySwitchScratch = "keyswitch.scratch";
inline constexpr const char* kEncryptItem = "engine.encrypt_item";
inline constexpr const char* kDecryptItem = "engine.decrypt_item";
inline constexpr const char* kVerifyItem = "engine.verify_item";
inline constexpr const char* kKeygenDigit = "engine.keygen_digit";

inline constexpr const char* kAll[] = {
    kPrngStreamSetup,   kDeserializeCiphertext, kDeserializeBatch,
    kDeserializeKey,    kBackendWorkerJob,      kBackendNestedJob,
    kKeySwitchScratch,  kEncryptItem,           kDecryptItem,
    kVerifyItem,        kKeygenDigit,
};

// Serving-daemon points. Kept in their own array because kAll is the
// *client round-trip* catalog (the fault matrix proves every kAll entry
// sits on the ClientSession path); these sit on the server's
// accept/queue-full/dispatch/evaluate paths instead and are driven by
// tests/test_server.cpp's fault drills.
inline constexpr const char* kServerAccept = "server.accept";
inline constexpr const char* kServerQueueFull = "server.queue_full";
inline constexpr const char* kServerDispatch = "server.dispatch";
inline constexpr const char* kServerKeyRegen = "server.key_regen";
inline constexpr const char* kEvaluateItem = "engine.evaluate_item";

inline constexpr const char* kServerAll[] = {
    kServerAccept,   kServerQueueFull, kServerDispatch,
    kServerKeyRegen, kEvaluateItem,
};
}  // namespace points

namespace detail {

/// Number of currently armed points. The ABC_FAILPOINT fast path branches
/// on this being zero — one relaxed load, no fences, no registry lookup.
extern std::atomic<int> g_armed_count;

/// Slow path: registry lookup, trigger evaluation, action execution.
void hit(const char* name);

}  // namespace detail
}  // namespace abc::fail

#ifdef ABC_NO_FAILPOINTS
#define ABC_FAILPOINT(name) \
  do {                      \
  } while (false)
#else
/// Names a fault-injection site. No-op branch until the name is armed.
#define ABC_FAILPOINT(name)                                              \
  do {                                                                   \
    if (::abc::fail::detail::g_armed_count.load(                         \
            std::memory_order_relaxed) != 0) [[unlikely]] {              \
      ::abc::fail::detail::hit(name);                                    \
    }                                                                    \
  } while (false)
#endif

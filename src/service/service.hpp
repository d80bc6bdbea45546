// Multi-tenant authentication service: a request-level front end over
// the per-user decision pipeline.
//
// Architecture (DESIGN.md "Service layer" has the full story):
//
//   submit() ──▶ bounded admission queue ──▶ worker threads
//                (full ⇒ typed kOverloaded)      │ one request
//                                                ▼ per wake
//        shard[h(name) % N]: mutex + LRU of materialized models
//                │ miss ⇒ ModelSource::load (mmap materialize)
//                ▼
//        core::authenticate on the resolved model — the same call every
//        other front end makes, so a service decision equals a serial
//        replay bit for bit (the harness tests and bench_service check
//        this with checksums).  An observation the pipeline cannot
//        decide is answered with a typed kMalformedEntry reject.
//
// Shutdown: stop() refuses new submissions (immediate kShuttingDown
// responses), closes the queue, and joins the workers after they drain
// every admitted request — each request is answered exactly once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/authenticator.hpp"
#include "service/source.hpp"

namespace p2auth::service {

// Transport-level outcome of one request.  kOk means a decision was
// made (accept or reject lives in AuthResponse::result); the others are
// service-level refusals that never reached the pipeline.
enum class RequestStatus : std::uint8_t {
  kOk,
  kUnknownUser,    // name not present in any model store
  kOverloaded,     // admission queue full — shed, not queued
  kShuttingDown,   // submitted after stop()
};

const char* to_string(RequestStatus status) noexcept;

struct ServiceOptions {
  // Shard count for the user-model registry (routing is deterministic:
  // fnv1a64(name) % shards).
  std::size_t shards = 4;
  // Materialized-model LRU capacity per shard (0 = no caching; every
  // request re-materializes).
  std::size_t lru_capacity = 128;
  // Admission-queue bound; a full queue sheds with kOverloaded.
  std::size_t queue_capacity = 1024;
  // Worker threads (0 = util::resolve_threads default).
  std::size_t workers = 2;
  core::AuthOptions auth{};
};

struct AuthRequest {
  std::uint64_t request_id = 0;
  std::string user;
  core::Observation observation;
};

struct AuthResponse {
  std::uint64_t request_id = 0;
  RequestStatus status = RequestStatus::kOk;
  // The decision, valid when status == kOk.
  core::AuthResult result;
  // Service-side timings (microseconds; decision state excludes them).
  double queue_us = 0.0;    // admission -> dequeue
  double service_us = 0.0;  // dequeue -> decision
  // 1 on every decided (kOk) response: a worker decides one request at
  // a time.  Kept only for the benchmark's service.batch_size rows and
  // to be dropped with them.
  std::size_t batch_size = 0;
};

// Lifetime counters (monotonic; snapshot via AuthService::stats()).
struct ServiceStats {
  std::uint64_t submitted = 0;    // submit() calls
  std::uint64_t admitted = 0;     // entered the queue
  std::uint64_t overloaded = 0;   // shed at admission
  std::uint64_t shutdown_rejects = 0;  // submitted after stop()
  std::uint64_t completed = 0;    // decisions delivered (status kOk)
  std::uint64_t unknown_user = 0;
  std::uint64_t accepted = 0;     // of completed
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;   // materializations
  std::uint64_t evictions = 0;
};

class AuthService {
 public:
  // The service keeps `source` alive for its own lifetime.  Throws
  // std::invalid_argument on zero shards or queue capacity.
  AuthService(std::shared_ptr<ModelSource> source,
              ServiceOptions options = {});
  ~AuthService();  // stop()s if still running

  AuthService(const AuthService&) = delete;
  AuthService& operator=(const AuthService&) = delete;

  // Admits one request.  NEVER blocks: when the queue is full the
  // returned future is already satisfied with kOverloaded; after stop()
  // with kShuttingDown.  Every future is eventually satisfied exactly
  // once.
  std::future<AuthResponse> submit(AuthRequest request);

  // Graceful shutdown: refuses new submissions, drains every admitted
  // request, joins the workers.  Idempotent; safe from any thread.
  void stop();
  bool stopped() const noexcept;

  ServiceStats stats() const;
  const ServiceOptions& options() const noexcept { return options_; }

  // Deterministic shard routing, exposed so tests can pin it.
  std::size_t shard_of(std::string_view user) const noexcept;

 private:
  struct Pending;
  struct Shard;
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServiceOptions options_;
};

}  // namespace p2auth::service

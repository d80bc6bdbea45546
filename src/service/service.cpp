#include "service/service.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "io/format.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "service/lru.hpp"
#include "service/queue.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::service {

const char* to_string(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kUnknownUser: return "unknown_user";
    case RequestStatus::kOverloaded: return "overloaded";
    case RequestStatus::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

struct AuthService::Pending {
  AuthRequest request;
  std::promise<AuthResponse> promise;
  std::int64_t enqueue_us = 0;
};

struct AuthService::Shard {
  std::mutex mu;
  LruCache<std::shared_ptr<const core::EnrolledUser>> cache;

  explicit Shard(std::size_t capacity) : cache(capacity) {}
};

struct AuthService::Impl {
  std::shared_ptr<ModelSource> source;
  ServiceOptions options;
  BoundedQueue<Pending> queue;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::thread> workers;
  std::atomic<bool> accepting{true};
  std::once_flag stop_once;
  std::atomic<bool> stopped{false};

  // Stats (relaxed atomics: monotonic counters, no ordering needed).
  std::atomic<std::uint64_t> submitted{0}, admitted{0}, overloaded{0},
      shutdown_rejects{0}, completed{0}, unknown_user{0}, accepted{0},
      lru_hits{0}, lru_misses{0};

  Impl(std::shared_ptr<ModelSource> src, const ServiceOptions& opts)
      : source(std::move(src)), options(opts),
        queue(opts.queue_capacity) {
    shards.reserve(opts.shards);
    for (std::size_t i = 0; i < opts.shards; ++i) {
      shards.push_back(std::make_unique<Shard>(opts.lru_capacity));
    }
  }

  // Resolves a user through the shard cache, materializing from the
  // source on a miss.  nullptr = unknown name.  Concurrent misses for
  // one name may materialize twice; the second insert wins and both
  // copies decide identically (materialization is deterministic).
  std::shared_ptr<const core::EnrolledUser> resolve(std::string_view name) {
    Shard& shard = *shards[shard_index(name)];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (auto* hit = shard.cache.find(name)) {
        lru_hits.fetch_add(1, std::memory_order_relaxed);
        return *hit;
      }
    }
    std::optional<core::EnrolledUser> loaded = source->load(name);
    if (!loaded.has_value()) return nullptr;
    lru_misses.fetch_add(1, std::memory_order_relaxed);
    obs::add_counter("service.lru.miss");
    auto model =
        std::make_shared<const core::EnrolledUser>(std::move(*loaded));
    std::lock_guard<std::mutex> lock(shard.mu);
    // Re-check: if a racing miss inserted meanwhile, adopt the cached
    // pointer so the cache keeps one canonical model per name.
    if (auto* hit = shard.cache.find(name)) return *hit;
    shard.cache.insert(std::string(name), model);
    return model;
  }

  std::size_t shard_index(std::string_view name) const noexcept {
    return static_cast<std::size_t>(io::fnv1a64(name) %
                                    static_cast<std::uint64_t>(shards.size()));
  }

  std::uint64_t cache_evictions() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->cache.evictions();
    }
    return total;
  }

  void worker_loop() {
    while (std::optional<Pending> pending = queue.pop()) decide(*pending);
    obs::flush_thread_metrics();
  }

  void decide(Pending& pending);
};

void AuthService::Impl::decide(Pending& pending) {
  const std::int64_t start_us = obs::now_us();
  AuthResponse response;
  response.request_id = pending.request.request_id;
  response.queue_us = static_cast<double>(start_us - pending.enqueue_us);
  obs::observe_latency_us("service.queue_us", response.queue_us);

  const std::shared_ptr<const core::EnrolledUser> user =
      resolve(pending.request.user);
  if (user == nullptr) {
    unknown_user.fetch_add(1, std::memory_order_relaxed);
    obs::add_counter("service.unknown_user");
    response.status = RequestStatus::kUnknownUser;
    response.service_us = static_cast<double>(obs::now_us() - start_us);
    pending.promise.set_value(std::move(response));
    return;
  }
  try {
    response.result =
        core::authenticate(*user, pending.request.observation, options.auth);
  } catch (const std::exception&) {
    // An observation the models cannot score (empty trace, ragged
    // channels, a channel count or sample rate other than the enrolled
    // one) throws; the service answers it like the pipeline answers an
    // inconsistent keystroke log.  authenticate threw before committing,
    // so the service commits this reject itself.
    response.result = core::AuthResult{};
    response.result.reason = core::RejectReason::kMalformedEntry;
    core::commit_decision(user->user_id, response.result);
  }
  response.batch_size = 1;
  completed.fetch_add(1, std::memory_order_relaxed);
  if (response.result.accepted) {
    accepted.fetch_add(1, std::memory_order_relaxed);
  }
  obs::add_counter("service.completed");
  response.service_us = static_cast<double>(obs::now_us() - start_us);
  obs::observe_latency_us("service.total_us",
                          response.queue_us + response.service_us);
  pending.promise.set_value(std::move(response));
}

AuthService::AuthService(std::shared_ptr<ModelSource> source,
                         ServiceOptions options)
    : options_(options) {
  if (source == nullptr) {
    throw std::invalid_argument("AuthService: null model source");
  }
  if (options.shards == 0) {
    throw std::invalid_argument("AuthService: shards must be positive");
  }
  if (options.queue_capacity == 0) {
    throw std::invalid_argument(
        "AuthService: queue capacity must be positive");
  }
  impl_ = std::make_unique<Impl>(std::move(source), options_);
  const std::size_t workers = util::resolve_threads(options_.workers);
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

AuthService::~AuthService() { stop(); }

std::future<AuthResponse> AuthService::submit(AuthRequest request) {
  impl_->submitted.fetch_add(1, std::memory_order_relaxed);
  obs::add_counter("service.submitted");
  Pending pending;
  pending.request = std::move(request);
  pending.enqueue_us = obs::now_us();
  std::future<AuthResponse> future = pending.promise.get_future();
  if (!impl_->accepting.load(std::memory_order_acquire)) {
    impl_->shutdown_rejects.fetch_add(1, std::memory_order_relaxed);
    AuthResponse response;
    response.request_id = pending.request.request_id;
    response.status = RequestStatus::kShuttingDown;
    pending.promise.set_value(std::move(response));
    return future;
  }
  if (!impl_->queue.try_push(std::move(pending))) {
    // Typed load shedding: the queue is full (or closed by a racing
    // stop()); answer immediately instead of blocking or dropping.
    impl_->overloaded.fetch_add(1, std::memory_order_relaxed);
    obs::add_counter("service.overloaded");
    AuthResponse response;
    response.request_id = pending.request.request_id;
    response.status = impl_->queue.closed() ? RequestStatus::kShuttingDown
                                            : RequestStatus::kOverloaded;
    pending.promise.set_value(std::move(response));
    return future;
  }
  impl_->admitted.fetch_add(1, std::memory_order_relaxed);
  return future;
}

void AuthService::stop() {
  std::call_once(impl_->stop_once, [this] {
    impl_->accepting.store(false, std::memory_order_release);
    impl_->queue.close();
    for (std::thread& worker : impl_->workers) {
      if (worker.joinable()) worker.join();
    }
    impl_->stopped.store(true, std::memory_order_release);
  });
}

bool AuthService::stopped() const noexcept {
  return impl_->stopped.load(std::memory_order_acquire);
}

ServiceStats AuthService::stats() const {
  ServiceStats out;
  out.submitted = impl_->submitted.load(std::memory_order_relaxed);
  out.admitted = impl_->admitted.load(std::memory_order_relaxed);
  out.overloaded = impl_->overloaded.load(std::memory_order_relaxed);
  out.shutdown_rejects =
      impl_->shutdown_rejects.load(std::memory_order_relaxed);
  out.completed = impl_->completed.load(std::memory_order_relaxed);
  out.unknown_user = impl_->unknown_user.load(std::memory_order_relaxed);
  out.accepted = impl_->accepted.load(std::memory_order_relaxed);
  out.lru_hits = impl_->lru_hits.load(std::memory_order_relaxed);
  out.lru_misses = impl_->lru_misses.load(std::memory_order_relaxed);
  out.evictions = impl_->cache_evictions();
  return out;
}

std::size_t AuthService::shard_of(std::string_view user) const noexcept {
  return impl_->shard_index(user);
}

}  // namespace p2auth::service

// Service-layer suite: shard routing, the per-shard LRU, the bounded
// admission queue, typed overload shedding, graceful shutdown, and the
// service decisions' bit-identity against serial authentication.
//
// Concurrency-sensitive cases (overload, drain, backlog) are made
// deterministic with a gate source: a ModelSource wrapper whose load()
// blocks until the test releases it, so the worker can be parked at a
// known point while the test arranges the queue state it wants.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/binary.hpp"
#include "io/format.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "service/checksum.hpp"
#include "service/lru.hpp"
#include "service/queue.hpp"
#include "service/source.hpp"
#include "sim/dataset.hpp"

namespace p2auth::service {
namespace {

// ---------------------------------------------------------------------
// LruCache

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.insert("a", 1);
  cache.insert("b", 2);
  ASSERT_NE(cache.find("a"), nullptr);  // promotes a over b
  cache.insert("c", 3);                 // evicts b
  EXPECT_EQ(cache.find("b"), nullptr);
  ASSERT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(*cache.find("a"), 1);
  ASSERT_NE(cache.find("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, ReinsertAfterEvictionGetsFreshValue) {
  LruCache<int> cache(1);
  cache.insert("a", 1);
  cache.insert("b", 2);  // evicts a
  EXPECT_EQ(cache.find("a"), nullptr);
  cache.insert("a", 7);  // evicts b
  ASSERT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(*cache.find("a"), 7);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  LruCache<int> cache(0);
  EXPECT_EQ(cache.insert("a", 1), nullptr);
  EXPECT_EQ(cache.find("a"), nullptr);
  EXPECT_EQ(cache.evictions(), 0u);
}

// ---------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueue, TryPushRefusesWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full: refused, not blocked
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_TRUE(queue.try_push(4));  // one slot free again
  EXPECT_FALSE(queue.try_push(5));
}

TEST(BoundedQueue, PopReturnsItemsInFifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.try_push(int(i)));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.pop(), i);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, CloseDrainsThenStops) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.try_push(1));
  queue.close();
  EXPECT_FALSE(queue.try_push(2));  // no admissions after close
  EXPECT_EQ(queue.pop(), 1);             // drains what was admitted
  EXPECT_EQ(queue.pop(), std::nullopt);  // closed + drained
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(4);
  std::thread consumer([&] {
    EXPECT_EQ(queue.pop(), std::nullopt);  // wakes on close, not forever
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
}

// ---------------------------------------------------------------------
// Shard routing

TEST(Routing, Fnv1a64KnownVectors) {
  // Standard FNV-1a64 test vectors: shards route by io::fnv1a64, the
  // store's name-index hash, so routing must stay stable across
  // processes, platforms and releases.
  EXPECT_EQ(io::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(io::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(io::fnv1a64("abc"), 0xe71fa2190541574bull);
}

TEST(Routing, DeterministicAcrossInstances) {
  auto source = std::make_shared<InMemorySource>();
  ServiceOptions options;
  options.shards = 5;
  options.workers = 1;
  AuthService a(source, options);
  AuthService b(source, options);
  std::set<std::size_t> used;
  for (int i = 0; i < 200; ++i) {
    const std::string name = "user" + std::to_string(i);
    const std::size_t shard = a.shard_of(name);
    EXPECT_LT(shard, options.shards);
    EXPECT_EQ(shard, b.shard_of(name));
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), options.shards);  // 200 names cover 5 shards
}

// ---------------------------------------------------------------------
// Service behavior (deterministic via the gate source)

// Blocks every load() whose name starts with `gate_prefix` until the
// test opens the gate; other names pass straight through to `inner`.
class GateSource : public ModelSource {
 public:
  GateSource(std::shared_ptr<ModelSource> inner, std::string gate_prefix)
      : inner_(std::move(inner)), prefix_(std::move(gate_prefix)) {}

  std::optional<core::EnrolledUser> load(std::string_view name) override {
    if (name.substr(0, prefix_.size()) == prefix_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      entered_cv_.notify_all();
      gate_cv_.wait(lock, [&] { return open_; });
    }
    return inner_->load(name);
  }

  std::size_t num_users() const override { return inner_->num_users(); }

  // Blocks until `n` loads are parked at the gate.
  void wait_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  void open() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    gate_cv_.notify_all();
  }

 private:
  std::shared_ptr<ModelSource> inner_;
  std::string prefix_;
  std::mutex mu_;
  std::condition_variable entered_cv_, gate_cv_;
  std::size_t entered_ = 0;
  bool open_ = false;
};

AuthRequest named_request(std::uint64_t id, std::string user) {
  AuthRequest request;
  request.request_id = id;
  request.user = std::move(user);
  return request;
}

TEST(Service, ConstructorValidatesOptions) {
  auto source = std::make_shared<InMemorySource>();
  ServiceOptions zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(AuthService(source, zero_shards), std::invalid_argument);
  ServiceOptions zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(AuthService(source, zero_queue), std::invalid_argument);
  EXPECT_THROW(AuthService(nullptr, ServiceOptions{}), std::invalid_argument);
}

TEST(Service, UnknownUserIsTyped) {
  auto source = std::make_shared<InMemorySource>();
  ServiceOptions options;
  options.workers = 1;
  AuthService svc(source, options);
  const AuthResponse response =
      svc.submit(named_request(1, "nobody")).get();
  EXPECT_EQ(response.status, RequestStatus::kUnknownUser);
  EXPECT_EQ(response.request_id, 1u);
  svc.stop();
  EXPECT_EQ(svc.stats().unknown_user, 1u);
}

// A full admission queue sheds with kOverloaded — immediately, typed,
// never blocking, never dropping.  The worker is parked inside load()
// so the queue state is exact: one in flight, one queued, rest shed.
TEST(Service, OverloadShedsTyped) {
  auto gate = std::make_shared<GateSource>(
      std::make_shared<InMemorySource>(), "gate");
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  AuthService svc(std::shared_ptr<ModelSource>(gate), options);

  auto inflight = svc.submit(named_request(0, "gate0"));
  gate->wait_entered(1);  // worker parked; queue empty again
  auto queued = svc.submit(named_request(1, "gate1"));  // fills the queue
  std::vector<std::future<AuthResponse>> shed;
  for (std::uint64_t i = 2; i < 6; ++i) {
    shed.push_back(svc.submit(named_request(i, "gate" + std::to_string(i))));
    // Typed rejection is synchronous: the future is already satisfied.
    ASSERT_EQ(shed.back().wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  for (auto& f : shed) {
    EXPECT_EQ(f.get().status, RequestStatus::kOverloaded);
  }
  gate->open();
  EXPECT_EQ(inflight.get().status, RequestStatus::kUnknownUser);
  EXPECT_EQ(queued.get().status, RequestStatus::kUnknownUser);
  svc.stop();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.overloaded, 4u);
}

// stop() refuses new work and drains everything admitted exactly once:
// every future is satisfied (a double set_value would throw inside the
// service), and the counters reconcile.
TEST(Service, ShutdownDrainsAdmittedExactlyOnce) {
  auto gate = std::make_shared<GateSource>(
      std::make_shared<InMemorySource>(), "gate");
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  AuthService svc(std::shared_ptr<ModelSource>(gate), options);

  auto inflight = svc.submit(named_request(0, "gate0"));
  gate->wait_entered(1);
  std::vector<std::future<AuthResponse>> queued;
  for (std::uint64_t i = 1; i < 4; ++i) {
    queued.push_back(svc.submit(named_request(i, "gate" + std::to_string(i))));
  }
  std::thread stopper([&] { svc.stop(); });  // blocks joining the worker
  gate->open();
  stopper.join();
  EXPECT_TRUE(svc.stopped());
  EXPECT_EQ(inflight.get().status, RequestStatus::kUnknownUser);
  for (auto& f : queued) {
    EXPECT_EQ(f.get().status, RequestStatus::kUnknownUser);
  }
  // After stop() returns, submissions are refused with a typed status.
  EXPECT_EQ(svc.submit(named_request(9, "late")).get().status,
            RequestStatus::kShuttingDown);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.admitted, stats.completed + stats.unknown_user);
  EXPECT_EQ(stats.shutdown_rejects, 1u);
  svc.stop();  // idempotent
}

// ---------------------------------------------------------------------
// Decision correctness against the serial pipeline (real enrollment)

struct Enrolled {
  sim::Population population;
  keystroke::Pin pin{"1628"};
  core::EnrolledUser user;

  Enrolled() {
    sim::PopulationConfig cfg;
    cfg.num_users = 1;
    cfg.seed = 271;
    population = sim::make_population(cfg);
    util::Rng rng(653);
    sim::TrialOptions options;
    std::vector<core::Observation> pos, neg;
    util::Rng er = rng.fork("enroll");
    for (sim::Trial& t :
         sim::make_trials(population.users[0], pin, 6, options, er)) {
      pos.push_back({std::move(t.entry), std::move(t.trace)});
    }
    util::Rng pr = rng.fork("pool");
    for (sim::Trial& t :
         sim::make_third_party_pool(population, 30, options, pr)) {
      neg.push_back({std::move(t.entry), std::move(t.trace)});
    }
    core::EnrollmentConfig config;
    config.rocket.num_features = 500;
    user = core::enroll_user(pin, pos, neg, config);
  }

  core::Observation fresh_observation(std::uint64_t seed,
                                      bool attacker = false) const {
    util::Rng r(seed);
    sim::TrialOptions options;
    const ppg::UserProfile& subject =
        attacker ? population.attackers[seed % population.attackers.size()]
                 : population.users[0];
    sim::Trial trial = sim::make_trial(subject, pin, options, r);
    return {std::move(trial.entry), std::move(trial.trace)};
  }
};

const Enrolled& fixture() {
  static const Enrolled instance;
  return instance;
}

// Source with `count` aliases of the enrolled model under distinct names
// and user ids (cheap stand-in for a multi-tenant registry).
std::shared_ptr<InMemorySource> aliased_source(std::size_t count) {
  auto source = std::make_shared<InMemorySource>();
  for (std::size_t i = 0; i < count; ++i) {
    core::EnrolledUser copy = fixture().user;
    copy.user_id = static_cast<std::uint32_t>(100 + i);
    source->add("user" + std::to_string(i), std::move(copy));
  }
  return source;
}

TEST(Service, DecisionsMatchSerialAuthentication) {
  const Enrolled& f = fixture();
  auto source = aliased_source(2);
  ServiceOptions options;
  options.workers = 2;
  AuthService svc(std::shared_ptr<ModelSource>(source), options);
  std::vector<std::future<AuthResponse>> futures;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const core::Observation obs = f.fresh_observation(40 + i, i % 3 == 2);
    const std::string name = "user" + std::to_string(i % 2);
    expected.push_back(
        decision_checksum(core::authenticate(*source->load(name), obs)));
    AuthRequest request = named_request(i, name);
    request.observation = obs;
    futures.push_back(svc.submit(std::move(request)));
  }
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    const AuthResponse response = futures[i].get();
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(decision_checksum(response.result), expected[i])
        << "request " << i << " diverged from serial authenticate";
    EXPECT_GE(response.queue_us, 0.0);
    EXPECT_GT(response.service_us, 0.0);
  }
  svc.stop();
  EXPECT_EQ(svc.stats().completed, 6u);
}

// Workers' telemetry is readable while the service runs: a snapshot
// taken before stop() counts every decided request.
TEST(Service, LiveMetricsCountWorkerDecisions) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const Enrolled& f = fixture();
  auto source = aliased_source(2);
  ServiceOptions options;
  options.workers = 2;
  AuthService svc(std::shared_ptr<ModelSource>(source), options);
  std::vector<AuthRequest> requests;
  for (std::uint64_t i = 0; i < 8; ++i) {
    requests.push_back(named_request(i, "user" + std::to_string(i % 2)));
    requests.back().observation = f.fresh_observation(80 + i, i % 4 == 3);
  }
  obs::reset_metrics();
  std::vector<std::future<AuthResponse>> futures;
  for (AuthRequest& request : requests) {
    futures.push_back(svc.submit(std::move(request)));
  }
  for (std::future<AuthResponse>& future : futures) future.wait();
  const obs::MetricsSnapshot live = obs::snapshot_metrics();
  svc.stop();

  EXPECT_EQ(live.counter("service.completed"), 8u);
  EXPECT_EQ(live.counter("auth.attempts"), 8u);
  ASSERT_EQ(live.histograms.count("authenticate"), 1u);
  EXPECT_EQ(live.histograms.at("authenticate").count, 8u);
}

// A 1-deep LRU under alternating users must evict on every switch and
// re-materialize a model that decides bit-identically to the original.
TEST(Service, LruEvictionRematerializesCorrectly) {
  const Enrolled& f = fixture();
  auto source = aliased_source(3);
  ServiceOptions options;
  options.shards = 1;
  options.lru_capacity = 1;
  options.workers = 1;
  AuthService svc(std::shared_ptr<ModelSource>(source), options);
  const core::Observation obs = f.fresh_observation(77);
  std::vector<std::uint64_t> expected;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t u = 0; u < 3; ++u) {
      const std::string name = "user" + std::to_string(u);
      if (round == 0) {
        expected.push_back(
            decision_checksum(core::authenticate(*source->load(name), obs)));
      }
      AuthRequest request = named_request(round * 3 + u, name);
      request.observation = obs;
      const AuthResponse response = svc.submit(std::move(request)).get();
      ASSERT_EQ(response.status, RequestStatus::kOk);
      EXPECT_EQ(decision_checksum(response.result), expected[u]);
    }
  }
  svc.stop();
  const ServiceStats stats = svc.stats();
  // Every switch misses the 1-deep cache: 6 requests, 6 materializations,
  // 5 evictions, no hits.
  EXPECT_EQ(stats.lru_misses, 6u);
  EXPECT_EQ(stats.lru_hits, 0u);
  EXPECT_EQ(stats.evictions, 5u);
}

// Parking the single worker lets a backlog accumulate; releasing it must
// decide the backlog one request at a time — each matching the serial
// oracle bit for bit.
TEST(Service, BatchedBacklogMatchesSerial) {
  const Enrolled& f = fixture();
  auto inner = aliased_source(2);
  auto gate = std::make_shared<GateSource>(inner, "gate");
  ServiceOptions options;
  options.workers = 1;
  AuthService svc(std::shared_ptr<ModelSource>(gate), options);

  auto parked = svc.submit(named_request(99, "gate0"));
  gate->wait_entered(1);
  std::vector<std::future<AuthResponse>> futures;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const core::Observation obs = f.fresh_observation(60 + i, i == 4);
    const std::string name = "user" + std::to_string(i % 2);
    expected.push_back(
        decision_checksum(core::authenticate(*inner->load(name), obs)));
    AuthRequest request = named_request(i, name);
    request.observation = obs;
    futures.push_back(svc.submit(std::move(request)));
  }
  gate->open();
  EXPECT_EQ(parked.get().status, RequestStatus::kUnknownUser);
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    const AuthResponse response = futures[i].get();
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(decision_checksum(response.result), expected[i])
        << "backlogged request " << i << " diverged from serial authenticate";
    EXPECT_EQ(response.batch_size, 1u);  // one request per decision
  }
  svc.stop();
  EXPECT_EQ(svc.stats().completed, 5u);
}

TEST(Service, MalformedObservationIsDecidedNotFatal) {
  const Enrolled& f = fixture();
  auto source = aliased_source(1);
  ServiceOptions options;
  options.workers = 1;
  AuthService svc(std::shared_ptr<ModelSource>(source), options);
  AuthRequest request = named_request(5, "user0");  // empty observation
  const AuthResponse response = svc.submit(std::move(request)).get();
  // An empty observation is a decided, typed rejection (here: the PIN
  // span check fails before preprocessing even runs) — never a crash or
  // a hung future.
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_FALSE(response.result.accepted);
  EXPECT_NE(response.result.reason, core::RejectReason::kNone);

  // Observations the enrolled models cannot score: one PPG channel
  // fewer than enrolled, and a trace labeled 50 Hz instead of the
  // enrolled rate.  Serial authenticate throws on both; the service
  // answers each with a typed malformed-entry reject.
  core::Observation dropped = f.fresh_observation(91);
  ASSERT_GT(dropped.trace.channels.size(), 1u);
  dropped.trace.channels.pop_back();
  core::Observation relabeled = f.fresh_observation(92);
  ASSERT_NE(relabeled.trace.rate_hz, 50.0);
  relabeled.trace.rate_hz = 50.0;
  std::uint64_t id = 6;
  for (core::Observation* obs : {&dropped, &relabeled}) {
    AuthRequest bad = named_request(id++, "user0");
    bad.observation = *obs;
    const AuthResponse r = svc.submit(std::move(bad)).get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_FALSE(r.result.accepted);
    EXPECT_EQ(r.result.reason, core::RejectReason::kMalformedEntry);
  }

  // The same single worker survived and still decides a valid request.
  const core::Observation valid = f.fresh_observation(93);
  const std::uint64_t expected =
      decision_checksum(core::authenticate(*source->load("user0"), valid));
  AuthRequest good = named_request(id, "user0");
  good.observation = valid;
  const AuthResponse r = svc.submit(std::move(good)).get();
  ASSERT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(decision_checksum(r.result), expected);
  svc.stop();
  EXPECT_EQ(svc.stats().completed, 4u);
}

// A store record that fails its CRC must not escape the worker (an
// uncaught throw there ends the process).  The service answers it with
// a typed kCorruptModel, caches nothing, and keeps deciding.
TEST(Service, CorruptStoreRecordIsTypedNotFatal) {
  const Enrolled& f = fixture();
  core::UserRegistry registry;
  registry.add("alice", f.user);
  registry.add("bob", f.user);
  std::stringstream ss;
  io::save_user_registry_binary(registry, ss);
  std::string bytes = ss.str();
  // Records follow the file header in name order: this byte is alice's.
  bytes[io::kFileHeaderBytes + 1000] ^= 0x20;
  struct RemovedAtExit {
    std::string path;
    ~RemovedAtExit() { std::remove(path.c_str()); }
  } const store{"test_service.corrupt." + std::to_string(::getpid()) +
                ".p2mdl"};
  std::ofstream(store.path, std::ios::binary) << bytes;
  auto source = std::make_shared<MappedRegistrySource>(
      std::vector<std::string>{store.path});
  ServiceOptions options;
  options.workers = 1;
  AuthService svc(source, options);

  for (std::uint64_t id = 0; id < 2; ++id) {  // the second is not cached
    const AuthResponse r = svc.submit(named_request(id, "alice")).get();
    EXPECT_EQ(r.status, RequestStatus::kCorruptModel);
    EXPECT_STREQ(to_string(r.status), "corrupt_model");
  }

  const core::Observation obs = f.fresh_observation(94);
  const std::uint64_t expected =
      decision_checksum(core::authenticate(*source->load("bob"), obs));
  AuthRequest good = named_request(2, "bob");
  good.observation = obs;
  const AuthResponse r = svc.submit(std::move(good)).get();
  ASSERT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(decision_checksum(r.result), expected);

  svc.stop();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.corrupt_model, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.lru_misses, 1u);  // bob only
  EXPECT_EQ(stats.admitted, stats.completed + stats.corrupt_model);
}

// ---------------------------------------------------------------------
// BenchReport golden fields (threads / shards / backend plumbing)

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(BenchReportFields, ConcurrencyOverrideIsRecorded) {
  bench::BenchReport report("golden_fields");
  report.concurrency(/*threads=*/8, /*shards=*/4);
  report.write();
  const std::string json = slurp("BENCH_golden_fields.json");
  std::remove("BENCH_golden_fields.json");
  EXPECT_NE(json.find("\"threads\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\""), std::string::npos) << json;
}

TEST(BenchReportFields, ShardsAbsentForSingleTenantBenches) {
  bench::BenchReport report("golden_fields2");
  report.write();
  const std::string json = slurp("BENCH_golden_fields2.json");
  std::remove("BENCH_golden_fields2.json");
  EXPECT_EQ(json.find("\"shards\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"threads\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\""), std::string::npos) << json;
}

}  // namespace
}  // namespace p2auth::service

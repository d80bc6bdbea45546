// End-to-end service harness: synthetic sensor → P2MDL001 mmap store →
// AuthService → response, with hidden per-request ground truth.
//
// Shape follows the integration-plan idiom: the harness generates a
// deterministic seeded workload, keeps a secret checksum per request
// (computed through an INDEPENDENT path — serial core::authenticate on
// a separately materialized copy of each user), then replays the same
// workload through the concurrent service and asserts every decision
// digest matches bit for bit.  A second pass replays the workload
// through a single-worker, cacheless service to pin concurrent ==
// serial at the service layer too.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/binary.hpp"
#include "service/checksum.hpp"
#include "service/service.hpp"
#include "service/source.hpp"
#include "sim/dataset.hpp"

namespace p2auth::service {
namespace {

constexpr std::size_t kNames = 6;
constexpr std::size_t kRequests = 10;

// The full fixed workload: 2 real enrollments aliased across 6 registry
// names in an on-disk binary store, plus a seeded request mix (genuine,
// attacker, unknown-name) and its secret expected digests.
struct Harness {
  // Each test runs in its own process under ctest -j, and each maps its
  // own store: a shared path would let one process truncate the file the
  // other has mapped (SIGBUS).
  const std::string store_path =
      std::string("test_service_harness.") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
      std::to_string(::getpid()) + ".p2mdl";
  std::vector<keystroke::Pin> pins{keystroke::Pin("1628"),
                                   keystroke::Pin("0852")};
  sim::Population population;
  std::shared_ptr<MappedRegistrySource> source;
  std::vector<AuthRequest> workload;
  // Hidden ground truth: request_id -> serial decision digest (only for
  // known-name requests).
  std::map<std::uint64_t, std::uint64_t> secret;

  Harness() {
    sim::PopulationConfig cfg;
    cfg.num_users = 2;
    cfg.seed = 929;
    population = sim::make_population(cfg);
    util::Rng rng(31);
    sim::TrialOptions options;

    // Enroll two real models and alias them across the store's names.
    core::UserRegistry registry;
    std::vector<core::EnrolledUser> enrolled;
    for (std::size_t m = 0; m < 2; ++m) {
      std::vector<core::Observation> pos, neg;
      util::Rng er = rng.fork("enroll" + std::to_string(m));
      for (sim::Trial& t : sim::make_trials(population.users[m], pins[m], 6,
                                            options, er)) {
        pos.push_back({std::move(t.entry), std::move(t.trace)});
      }
      util::Rng pr = rng.fork("pool" + std::to_string(m));
      for (sim::Trial& t :
           sim::make_third_party_pool(population, 30, options, pr)) {
        neg.push_back({std::move(t.entry), std::move(t.trace)});
      }
      core::EnrollmentConfig config;
      config.rocket.num_features = 500;
      enrolled.push_back(core::enroll_user(pins[m], pos, neg, config));
    }
    for (std::size_t i = 0; i < kNames; ++i) {
      core::EnrolledUser copy = enrolled[i % 2];
      copy.user_id = static_cast<std::uint32_t>(500 + i);
      registry.add(name_of(i), std::move(copy));
    }
    io::save_user_registry_binary_file(registry, store_path);
    source = std::make_shared<MappedRegistrySource>(
        std::vector<std::string>{store_path});

    // Seeded workload: genuine entries, attacker entries (correct PIN,
    // wrong hand), and one unknown name.
    util::Rng wl = rng.fork("workload");
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      AuthRequest request;
      request.request_id = i;
      if (i == kRequests - 1) {
        request.user = "ghost";  // not in the store
        workload.push_back(std::move(request));
        continue;
      }
      const std::size_t name_idx = wl.uniform_int(kNames);
      const std::size_t model_idx = name_idx % 2;
      const bool attack = wl.uniform() < 0.3;
      const ppg::UserProfile& subject =
          attack ? population.attackers[i % population.attackers.size()]
                 : population.users[model_idx];
      util::Rng tr = wl.fork("trial" + std::to_string(i));
      sim::Trial trial =
          sim::make_trial(subject, pins[model_idx], options, tr);
      request.user = name_of(name_idx);
      request.observation = {std::move(trial.entry), std::move(trial.trace)};
      // Independent ground-truth path: a fresh materialization of the
      // user (not the service's cached copy) through the serial
      // single-request pipeline.
      secret[i] = decision_checksum(core::authenticate(
          *source->load(request.user), request.observation));
      workload.push_back(std::move(request));
    }
  }

  ~Harness() { std::remove(store_path.c_str()); }

  static std::string name_of(std::size_t i) {
    return "tenant" + std::to_string(i);
  }
};

const Harness& harness() {
  static const Harness instance;
  return instance;
}

// Replays the full workload through a service and returns the digest of
// every kOk response (by request id), asserting transport-level fields.
std::map<std::uint64_t, std::uint64_t> replay(AuthService& svc) {
  const Harness& h = harness();
  std::vector<std::future<AuthResponse>> futures;
  for (const AuthRequest& request : h.workload) {
    futures.push_back(svc.submit(AuthRequest(request)));
  }
  std::map<std::uint64_t, std::uint64_t> digests;
  for (auto& f : futures) {
    const AuthResponse response = f.get();
    if (response.status == RequestStatus::kUnknownUser) {
      EXPECT_EQ(response.request_id, kRequests - 1);
      continue;
    }
    EXPECT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.batch_size, 1u);
    digests[response.request_id] = decision_checksum(response.result);
  }
  return digests;
}

TEST(ServiceHarness, ConcurrentBatchedMatchesHiddenGroundTruth) {
  const Harness& h = harness();
  ServiceOptions options;
  options.shards = 3;
  options.lru_capacity = 2;  // forces evictions across 6 names
  options.workers = 3;
  AuthService svc(h.source, options);
  const auto digests = replay(svc);
  svc.stop();
  ASSERT_EQ(digests.size(), h.secret.size());
  for (const auto& [id, digest] : h.secret) {
    EXPECT_EQ(digests.at(id), digest)
        << "request " << id << " diverged from hidden ground truth";
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.completed + stats.unknown_user, stats.admitted);
  EXPECT_EQ(stats.unknown_user, 1u);
}

TEST(ServiceHarness, SerialReplayIsBitIdenticalToConcurrent) {
  const Harness& h = harness();
  // Single worker, no cache: the degenerate serial service.  Its
  // digests must equal both the concurrent run's and the hidden ground
  // truth — pinning concurrent == serial at every layer.
  ServiceOptions serial;
  serial.shards = 1;
  serial.lru_capacity = 0;
  serial.workers = 1;
  AuthService serial_svc(h.source, serial);
  const auto serial_digests = replay(serial_svc);
  serial_svc.stop();

  ServiceOptions concurrent;
  concurrent.workers = 2;
  AuthService concurrent_svc(h.source, concurrent);
  const auto concurrent_digests = replay(concurrent_svc);
  concurrent_svc.stop();

  EXPECT_EQ(serial_digests, concurrent_digests);
  ASSERT_EQ(serial_digests.size(), h.secret.size());
  for (const auto& [id, digest] : h.secret) {
    EXPECT_EQ(serial_digests.at(id), digest);
  }
  // With lru_capacity = 0 every request re-materializes from the mmap
  // store; re-materialized models decide identically.
  EXPECT_EQ(serial_svc.stats().lru_hits, 0u);
  EXPECT_EQ(serial_svc.stats().lru_misses, kRequests - 1);
}

}  // namespace
}  // namespace p2auth::service

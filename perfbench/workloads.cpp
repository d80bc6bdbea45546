#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "backend/policy.hpp"
#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/binary.hpp"
#include "keystroke/pinpad.hpp"
#include "ledger.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "service/checksum.hpp"
#include "service/service.hpp"
#include "service/source.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "stats.hpp"
#include "util/resource.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace p2auth;

namespace {

// ---- sizing ----------------------------------------------------------------

struct Sizes {
  std::size_t features = 9996;      // MiniRocket budget (EnrollmentConfig)
  std::size_t pool = 100;           // third-party entries
  std::size_t enroll_entries = 9;   // per user
  std::size_t blocks = 30;          // attempt blocks of 20 (block_plan)
  std::size_t names = 192;          // service registry names
  std::size_t stores = 12;          // store files the names are split over
  std::size_t lru_per_shard = 16;   // ServiceOptions::lru_capacity
  std::size_t enroll_users = 24;    // distinct users `enroll` cycles over
  std::size_t setup_reps = 5;       // set-ups per run (setup_s = median)
  std::size_t warmup_requests = 200;
};

Sizes sizes_for(bool smoke) {
  if (!smoke) return Sizes{};
  Sizes s;
  s.features = 840;
  s.pool = 24;
  s.enroll_entries = 6;
  s.blocks = 2;
  s.names = 12;
  s.stores = 2;
  s.lru_per_shard = 1;
  s.enroll_users = 2;
  s.setup_reps = 1;
  s.warmup_requests = 8;
  return s;
}

// Seed of the open-loop arrival schedule (see open_loop).
constexpr std::uint64_t kScheduleSeed = 0x0b5e55edULL;

// Correctness gates on accuracy against ground-truth labels.  They catch
// a broken classifier (accept-all, reject-all), not small accuracy drift.
constexpr double kMaxFrr = 0.35;
constexpr double kMaxFar = 0.25;

// ---- attempts --------------------------------------------------------------

enum class Category : std::uint8_t {
  kOneHanded,   // legitimate, one-handed
  kTwoHanded3,  // legitimate, two-handed with 3 watch-hand keys
  kTwoHanded2,  // legitimate, two-handed with 2 watch-hand keys
  kNoPin,       // legitimate no-PIN user typing any digits
  kEmulating,   // right PIN (or any digits for no-PIN), attacker's PPG
  kRandom,      // attacker typing a wrong PIN
};

bool is_legit(Category c) { return c <= Category::kNoPin; }

struct Attempt {
  std::size_t user = 0;  // index into the fixture's users
  core::Observation observation;
  Category category = Category::kOneHanded;
  std::uint64_t expected = 0;  // hidden serial-authenticate checksum
  double serial_us = 0.0;      // serial authenticate time, from set-up
};

// The auth workloads enroll kPinUsers users with a PIN and kNoPinUsers
// without; a few users per seed, so one user's quirks move little.
constexpr std::size_t kPinUsers = 5;
constexpr std::size_t kNoPinUsers = 3;

// One block of 20 attempts: 10 one-handed, 3 two-handed and 2 no-PIN
// legitimate entries, 4 emulating attacks and 1 wrong-PIN random attack.
// Targets rotate over the PIN users (0..kPinUsers-1) and the no-PIN users
// (the rest) from block to block.
std::vector<std::pair<Category, std::size_t>> block_plan(std::size_t block) {
  std::size_t next_pin = block, next_free = block;
  auto pin_user = [&] { return next_pin++ % kPinUsers; };
  auto free_user = [&] { return kPinUsers + next_free++ % kNoPinUsers; };
  std::vector<std::pair<Category, std::size_t>> plan;
  for (std::size_t i = 0; i < 10; ++i) {
    plan.emplace_back(Category::kOneHanded, pin_user());
  }
  plan.emplace_back(Category::kTwoHanded3, pin_user());
  plan.emplace_back(Category::kTwoHanded3, pin_user());
  plan.emplace_back(Category::kTwoHanded2, pin_user());
  plan.emplace_back(Category::kNoPin, free_user());
  plan.emplace_back(Category::kNoPin, free_user());
  for (std::size_t i = 0; i < 3; ++i) {
    plan.emplace_back(Category::kEmulating, pin_user());
  }
  plan.emplace_back(Category::kEmulating, free_user());
  plan.emplace_back(Category::kRandom, pin_user());
  return plan;
}

// Per-user probes of the enroll workload (untimed FRR/FAR).
const std::vector<Category>& enroll_probes() {
  static const std::vector<Category> probes = {
      Category::kOneHanded, Category::kOneHanded, Category::kTwoHanded3,
      Category::kEmulating, Category::kEmulating, Category::kRandom};
  return probes;
}

struct Outcomes {
  std::uint64_t legit = 0, legit_rejected = 0;
  std::uint64_t attacks = 0, attacks_accepted = 0;

  void add(Category c, bool accepted) {
    if (is_legit(c)) {
      ++legit;
      legit_rejected += accepted ? 0 : 1;
    } else {
      ++attacks;
      attacks_accepted += accepted ? 1 : 0;
    }
  }
  void merge(const Outcomes& o) {
    legit += o.legit;
    legit_rejected += o.legit_rejected;
    attacks += o.attacks;
    attacks_accepted += o.attacks_accepted;
  }
  double frr() const {
    return legit ? static_cast<double>(legit_rejected) / legit : 0.0;
  }
  double far() const {
    return attacks ? static_cast<double>(attacks_accepted) / attacks : 0.0;
  }
};

// ---- fixtures --------------------------------------------------------------

core::Observation observe(sim::Trial trial) {
  return core::Observation{std::move(trial.entry), std::move(trial.trace)};
}

struct Fixture {
  sim::Population population;
  std::vector<core::Observation> pool;  // raw third-party entries
  std::vector<keystroke::Pin> pins;     // per user; empty = no-PIN
  std::vector<std::vector<core::Observation>> entries;  // enrollment input
  std::vector<core::EnrolledUser> users;
  std::vector<Attempt> attempts;
  std::vector<std::vector<std::size_t>> probes;  // enroll: attempts per user
  // Service requests: send k for attempt a goes to alias
  // a.user + U * alias_ranks[k % size] of a's user (U = users.size()).
  std::vector<std::uint32_t> alias_ranks = {0};
};

// Registry name of alias i (aliases of user u are u, u + U, u + 2U, ...).
std::string alias_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "name%04zu", i);
  return buf;
}

// A PIN of four different digits, so every PIN user trains the same number
// of per-key models and seeds do not differ in model count.
keystroke::Pin distinct_digit_pin(util::Rng& rng) {
  for (;;) {
    const keystroke::Pin pin = sim::random_pin(rng);
    const std::string& d = pin.digits();
    if (d[0] != d[1] && d[0] != d[2] && d[0] != d[3] && d[1] != d[2] &&
        d[1] != d[3] && d[2] != d[3]) {
      return pin;
    }
  }
}

keystroke::Pin pin_other_than(util::Rng& rng, const keystroke::Pin& avoid) {
  for (;;) {
    keystroke::Pin pin = sim::random_pin(rng);
    if (pin != avoid) return pin;
  }
}

core::EnrollmentConfig enroll_config(const Sizes& sizes, bool no_pin) {
  core::EnrollmentConfig config;
  config.rocket.num_features = sizes.features;
  // A no-PIN user is verified by per-key models only.
  config.train_full_model = !no_pin;
  return config;
}

Attempt make_attempt(const Fixture& f, Category category, std::size_t user,
                     util::Rng& rng) {
  sim::TrialOptions options;
  const ppg::UserProfile& owner = f.population.users[user];
  const keystroke::Pin& pin = f.pins[user];
  const ppg::UserProfile& attacker =
      f.population.attackers[rng.uniform_int(
          static_cast<std::uint32_t>(f.population.attackers.size()))];
  sim::Trial trial;
  switch (category) {
    case Category::kOneHanded:
      trial = sim::make_trial(owner, pin, options, rng);
      break;
    case Category::kTwoHanded3:
      options.input_case = keystroke::InputCase::kTwoHandedThree;
      trial = sim::make_trial(owner, pin, options, rng);
      break;
    case Category::kTwoHanded2:
      options.input_case = keystroke::InputCase::kTwoHandedTwo;
      trial = sim::make_trial(owner, pin, options, rng);
      break;
    case Category::kNoPin:
      trial = sim::make_trial(owner, sim::random_pin(rng), options, rng);
      break;
    case Category::kEmulating:
      trial = pin.empty()
                  ? sim::make_trial(attacker, sim::random_pin(rng), options, rng)
                  : sim::make_emulating_attack(attacker, owner, pin, options,
                                               sim::EmulationOptions{}, rng);
      break;
    case Category::kRandom:
      trial = sim::make_trial(attacker, pin_other_than(rng, pin), options, rng);
      break;
  }
  Attempt a;
  a.user = user;
  a.observation = observe(std::move(trial));
  a.category = category;
  return a;
}

// Population, third-party pool, PINs and enrollment entries for `users`
// users, the last `no_pin` of which register without a PIN.
Fixture make_population_fixture(std::uint64_t seed, const Sizes& sizes,
                                std::size_t users, std::size_t no_pin) {
  Fixture f;
  sim::PopulationConfig pop;
  pop.num_users = users;
  pop.seed = seed;
  f.population = sim::make_population(pop);
  util::Rng rng(seed, 0x9e2fbe11c4ULL);
  util::Rng pool_rng = rng.fork("pool");
  for (sim::Trial& t : sim::make_third_party_pool(f.population, sizes.pool,
                                                  sim::TrialOptions{},
                                                  pool_rng)) {
    f.pool.push_back(observe(std::move(t)));
  }
  util::Rng pin_rng = rng.fork("pins");
  util::Rng entry_rng = rng.fork("entries");
  const std::vector<keystroke::Pin>& covering = keystroke::paper_pins();
  for (std::size_t u = 0; u < users; ++u) {
    const bool pinless = u + no_pin >= users;
    f.pins.push_back(pinless ? keystroke::Pin() : distinct_digit_pin(pin_rng));
    std::vector<core::Observation> entries;
    util::Rng ur = entry_rng.fork(u);
    for (std::size_t e = 0; e < sizes.enroll_entries; ++e) {
      util::Rng r = ur.fork(e);
      const keystroke::Pin& typed =
          pinless ? covering[e % covering.size()] : f.pins[u];
      entries.push_back(observe(sim::make_trial(
          f.population.users[u], typed, sim::TrialOptions{}, r)));
    }
    f.entries.push_back(std::move(entries));
  }
  return f;
}

core::EnrolledUser enroll(const Fixture& f, std::size_t u, const Sizes& sizes,
                          SpanLog& log, EnrollLedger* ledger) {
  const core::EnrollmentConfig config = enroll_config(sizes, f.pins[u].empty());
  if (ledger != nullptr) {
    return ledger_enroll(log, u, f.pins[u], f.entries[u], f.pool, config,
                         u % 2 == 0, *ledger);
  }
  return core::enroll_user(f.pins[u], f.entries[u], f.pool, config);
}

// auth_mixed fixture: the enrolled users and the shuffled attempt mix.
Fixture make_auth_fixture(std::uint64_t seed, const Sizes& sizes, SpanLog& log,
                          EnrollLedger* ledger) {
  Fixture f = make_population_fixture(seed, sizes, kPinUsers + kNoPinUsers,
                                      kNoPinUsers);
  for (std::size_t u = 0; u < kPinUsers + kNoPinUsers; ++u) {
    f.users.push_back(enroll(f, u, sizes, log, ledger));
  }
  util::Rng rng(seed, 0x7a11e5ULL);
  util::Rng gen = rng.fork("attempts");
  for (std::size_t b = 0; b < sizes.blocks; ++b) {
    for (const auto& [category, user] : block_plan(b)) {
      util::Rng r = gen.fork(f.attempts.size());
      f.attempts.push_back(make_attempt(f, category, user, r));
    }
  }
  util::Rng order = rng.fork("order");
  order.shuffle(f.attempts);
  return f;
}

// enroll fixture: PIN users with their enrollment entries and probes.
Fixture make_enroll_fixture(std::uint64_t seed, const Sizes& sizes) {
  Fixture f = make_population_fixture(seed, sizes, sizes.enroll_users, 0);
  util::Rng gen = util::Rng(seed, 0xe7a011ULL).fork("probes");
  for (std::size_t u = 0; u < sizes.enroll_users; ++u) {
    std::vector<std::size_t> mine;
    for (const Category c : enroll_probes()) {
      util::Rng r = gen.fork(f.attempts.size());
      mine.push_back(f.attempts.size());
      f.attempts.push_back(make_attempt(f, c, u, r));
    }
    f.probes.push_back(std::move(mine));
  }
  return f;
}

// Hidden ground truth: serial core::authenticate per attempt (also the
// warm-up of the calling thread's transform scratch).  In a traced run the
// same pass goes through the outside-in ledger.
void compute_truth(Fixture& f, const std::vector<std::size_t>& which,
                   SpanLog& log, AuthLedger* ledger) {
  for (const std::size_t i : which) {
    Attempt& a = f.attempts[i];
    const core::EnrolledUser& user = f.users[a.user];
    core::AuthResult r;
    if (ledger != nullptr) {
      r = ledger_attempt(log, i, user, a.observation, i % 2 == 0, *ledger);
      a.serial_us = ledger->authenticate_us.back();
    } else {
      const Clock::time_point t0 = Clock::now();
      r = core::authenticate(user, a.observation);
      a.serial_us = us_between(t0, Clock::now());
    }
    a.expected = service::decision_checksum(r);
  }
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// ---- serial authenticate loop ---------------------------------------------

struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  Outcomes outcomes;
  void merge(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    outcomes.merge(t.outcomes);
  }
};

struct SerialRun {
  std::vector<std::vector<double>> blocks;  // authenticate µs, per block
  Tally tally;

  std::vector<double> all() const {
    std::vector<double> out;
    for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
    return out;
  }
};

// The single client runs in kClientBlocks consecutive blocks (each long
// enough for 1000+ decisions, so p99 is supported per block), each on a
// fresh thread so that no per-thread state (transform scratch, CPU
// placement) carries from one block to the next.  Results are taken over
// the blocks' fast quarter (see stats.hpp).
constexpr int kClientBlocks = 15;

SerialRun run_serial(const Fixture& f, double seconds) {
  SerialRun run;
  std::size_t i = 0;
  for (int block = 0; block < kClientBlocks; ++block) {
    // The program's telemetry keeps every span an exited thread recorded;
    // drop them (set-up's and the previous block's) so peak RSS does not
    // grow with the number of attempts a run completes.
    obs::reset_trace();
    std::vector<double> latency;
    std::thread client([&] {
      const Clock::time_point deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds /
                                                           kClientBlocks));
      for (Clock::time_point now = Clock::now();
           now < deadline || latency.empty(); ++i) {
        const Attempt& a = f.attempts[i % f.attempts.size()];
        ++run.tally.attempted;
        try {
          const Clock::time_point t0 = Clock::now();
          const core::AuthResult r =
              core::authenticate(f.users[a.user], a.observation);
          now = Clock::now();
          latency.push_back(us_between(t0, now));
          if (service::decision_checksum(r) != a.expected) {
            ++run.tally.failed;
          } else {
            run.tally.outcomes.add(a.category, r.accepted);
          }
        } catch (const std::exception&) {
          ++run.tally.failed;
          now = Clock::now();
          if (latency.empty()) latency.push_back(0.0);
        }
      }
    });
    client.join();
    run.blocks.push_back(std::move(latency));
  }
  return run;
}

// ---- service ---------------------------------------------------------------

struct Service {
  std::vector<std::string> store_paths;
  std::shared_ptr<TimedSource> source;
  std::unique_ptr<service::AuthService> svc;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    if (svc) svc->stop();
    svc.reset();
    source.reset();
    for (const std::string& p : store_paths) std::remove(p.c_str());
  }
};

// Forces the file's dirty pages out, so write-back of a freshly written
// store happens during set-up instead of under the timed phases.
void flush_to_disk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot flush " + path);
  }
  ::close(fd);
}

// Writes `names` aliases of the fixture's users (name i -> user i % U) over
// `stores` P2MDL001 files, opens them through MappedRegistrySource and
// starts the service with its default workers, shards and batching.
void start_service(Service& s, const Fixture& f, std::size_t names,
                   std::size_t stores, std::size_t lru_per_shard,
                   const std::string& workdir, SpanLog& log) {
  const std::size_t per_store = (names + stores - 1) / stores;
  for (std::size_t k = 0; k * per_store < names; ++k) {
    core::UserRegistry registry;
    for (std::size_t i = k * per_store; i < std::min(names, (k + 1) * per_store);
         ++i) {
      core::EnrolledUser copy = f.users[i % f.users.size()];
      copy.user_id = static_cast<std::uint32_t>(1000 + i);
      registry.add(alias_name(i), std::move(copy));
    }
    const std::string path = workdir + "/perfbench_store" +
                             std::to_string(k) + ".p2mdl";
    io::save_user_registry_binary_file(registry, path);
    s.store_paths.push_back(path);
    flush_to_disk(path);
  }
  s.source = std::make_shared<TimedSource>(
      std::make_shared<service::MappedRegistrySource>(s.store_paths), log);
  service::ServiceOptions options;
  options.lru_capacity = lru_per_shard;
  s.svc = std::make_unique<service::AuthService>(s.source, options);
}

// Draws the zipf(1.1) alias ranks the service requests use.  The stream is
// much longer than the attempt list, so the names a run touches follow the
// zipf law rather than repeating one short sample.
void draw_alias_ranks(Fixture& f, std::size_t names, std::uint64_t seed) {
  const ZipfSampler zipf(names / f.users.size(), 1.1);
  util::Rng rng(seed, 0x21bf0ULL);
  f.alias_ranks.resize(1 << 16);
  for (std::uint32_t& r : f.alias_ranks) {
    r = static_cast<std::uint32_t>(zipf.draw(rng));
  }
}

// Request `seq` of a service run, carrying attempt `a`.
service::AuthRequest make_request(const Fixture& f, const Attempt& a,
                                  std::uint64_t seq) {
  const std::size_t rank = f.alias_ranks[seq % f.alias_ranks.size()];
  return service::AuthRequest{seq, alias_name(a.user + f.users.size() * rank),
                              a.observation};
}

struct ServiceRun {
  // Phase A (open loop).
  std::vector<double> latency_us;  // from each request's scheduled send
  std::vector<double> late_us;     // actual submit - scheduled send
  std::vector<double> submit_us, queue_us, service_us, overhead_us, batch;
  // Phase B (closed loop).
  std::vector<double> window_rates;  // decisions per second, per window
  std::size_t decided = 0;
  double serial_busy_us = 0.0;  // serial authenticate time, same requests

  // Median decisions/s over every phase-B window of the run.
  double throughput() const { return percentile(window_rates, 0.5).value; }
  // Serial authenticate decisions/s on the requests phase B decided.
  double serial_throughput() const {
    return serial_busy_us > 0.0 ? decided / (serial_busy_us / 1e6) : 0.0;
  }
  Tally tally;
};

void account(const service::AuthResponse& r, const Attempt& a, Tally& t) {
  ++t.attempted;
  if (r.status != service::RequestStatus::kOk ||
      service::decision_checksum(r.result) != a.expected) {
    ++t.failed;
    return;
  }
  t.outcomes.add(a.category, r.result.accepted);
}

// Phase A: one generator thread sends Poisson arrivals at kOpenLoopRateHz
// for `seconds`.  Latency runs from each request's scheduled send time, so
// generator stalls count against it.  Between sends the same thread waits
// on the oldest outstanding response, so it observes that completion
// exactly; a response found already complete behind it is stamped with the
// service's own completion time (admission + queue_us + service_us),
// capped at when it was seen.  The arrival times are one fixed Poisson
// sample path, the same for every seed: seeds differ in what is
// requested, not in how it bunches.
void open_loop(service::AuthService& svc, const Fixture& f,
               std::size_t& cursor, double seconds, SpanLog& log,
               ServiceRun& run) {
  const std::vector<Attempt>& attempts = f.attempts;
  struct Pending {
    std::future<service::AuthResponse> future;
    std::size_t attempt = 0;
    Clock::time_point due;
    Clock::time_point admitted;  // submit() returned
  };
  const std::vector<double> schedule =
      poisson_schedule(kOpenLoopRateHz, seconds, kScheduleSeed);
  std::deque<Pending> live;

  auto settle = [&](Pending& p, Clock::time_point seen, bool waited_on) {
    try {
      const service::AuthResponse r = p.future.get();
      const Attempt& a = attempts[p.attempt];
      Clock::time_point done = seen;
      if (!waited_on) {
        done = std::min(seen, p.admitted + std::chrono::duration_cast<
                                               Clock::duration>(
                                               std::chrono::duration<double,
                                                                     std::micro>(
                                                   r.queue_us + r.service_us)));
      }
      run.latency_us.push_back(us_between(p.due, done));
      run.queue_us.push_back(r.queue_us);
      run.service_us.push_back(r.service_us);
      run.overhead_us.push_back(r.service_us - a.serial_us);
      run.batch.push_back(static_cast<double>(r.batch_size));
      account(r, a, run.tally);
    } catch (const std::exception&) {
      ++run.tally.attempted;
      ++run.tally.failed;
    }
  };
  // Settles the oldest response once ready (waiting at most until
  // `until`), then every later one that is already complete.
  auto collect = [&](Clock::time_point until) {
    while (!live.empty() &&
           live.front().future.wait_until(until) == std::future_status::ready) {
      const Clock::time_point seen = Clock::now();
      settle(live.front(), seen, true);
      live.pop_front();
      for (auto it = live.begin(); it != live.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          settle(*it, seen, false);
          it = live.erase(it);
        } else {
          ++it;
        }
      }
    }
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[k]));
    collect(due);
    std::this_thread::sleep_until(due);
    const std::size_t seq = cursor++;
    const std::size_t idx = seq % attempts.size();
    service::AuthRequest request = make_request(f, attempts[idx], seq);
    const Clock::time_point t0 = Clock::now();
    std::future<service::AuthResponse> future = svc.submit(std::move(request));
    const Clock::time_point t1 = Clock::now();
    log.add("service.submit", "bench.open_loop", seq, t0, t1);
    run.late_us.push_back(us_between(due, t0));
    run.submit_us.push_back(us_between(t0, t1));
    live.push_back(Pending{std::move(future), idx, due, t1});
  }
  collect(Clock::now() + std::chrono::hours(1));  // drain
}

// Phase B (and warm-up): `clients` threads each submit one request and wait
// for it, until `seconds` pass or `max_requests` (0 = no cap) are sent.
void closed_loop(service::AuthService& svc, const Fixture& f,
                 std::size_t& cursor,
                 std::size_t clients, double seconds, std::size_t max_requests,
                 ServiceRun& run) {
  std::atomic<std::size_t> next{cursor};
  const std::size_t stop_at =
      max_requests ? cursor + max_requests : static_cast<std::size_t>(-1);
  std::vector<Tally> tallies(clients);
  std::vector<double> serial_us(clients, 0.0);
  std::vector<std::vector<double>> done_s(clients);  // completion times
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        while (Clock::now() < deadline) {
          const std::size_t seq = next.fetch_add(1);
          if (seq >= stop_at) break;
          const Attempt& a = f.attempts[seq % f.attempts.size()];
          const service::AuthResponse r =
              svc.submit(make_request(f, a, seq)).get();
          account(r, a, tallies[c]);
          serial_us[c] += a.serial_us;
          done_s[c].push_back(us_between(start, Clock::now()) / 1e6);
        }
      } catch (const std::exception&) {
        ++tallies[c].attempted;
        ++tallies[c].failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = us_between(start, Clock::now()) / 1e6;
  cursor = std::min(next.load(), stop_at);
  Tally total;
  double serial_total_us = 0.0;
  std::vector<double> completions;
  for (std::size_t c = 0; c < clients; ++c) {
    total.merge(tallies[c]);
    serial_total_us += serial_us[c];
    completions.insert(completions.end(), done_s[c].begin(), done_s[c].end());
  }
  for (const double r : window_rates(completions, wall_s, 3)) {
    run.window_rates.push_back(r);
  }
  run.decided += completions.size();
  run.serial_busy_us += serial_total_us;
  run.tally.merge(total);
}

double lru_hit_rate(const service::ServiceStats& before,
                    const service::ServiceStats& after) {
  const double hits = static_cast<double>(after.lru_hits - before.lru_hits);
  const double misses =
      static_cast<double>(after.lru_misses - before.lru_misses);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

// ---- reporting -------------------------------------------------------------

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// Adds the median and the tail latency (percentile `tail_q`), each as the
// lower quartile over blocks (given, or split from `samples` in whole
// rounds of `round` by the support rule), with their sample-support notes.
void add_latency(RunResult& out, const std::vector<double>& samples,
                 const std::vector<std::vector<double>>& given_blocks,
                 const std::string& what, double tail_q,
                 std::size_t round = 1) {
  for (const auto& [q, name] : {std::pair{0.50, "latency_p50_us"},
                                std::pair{tail_q, "latency_tail_us"}}) {
    const Blocked b = given_blocks.empty()
                          ? blocked_percentile(samples, q, round)
                          : percentile_over_blocks(given_blocks, q);
    out.metrics.push_back({name, b.value, "us"});
    out.notes.push_back(
        std::string(name) + " = p" + fmt("%g", 100.0 * q) + " " +
        fmt("%.1f us", b.value) + ": lower quartile of " +
        std::to_string(b.blocks) +
        " blocks of " + std::to_string(b.block.count) + " " + what + " (" +
        std::to_string(samples.size()) + " in all), " +
        std::to_string(b.block.beyond) + " beyond it per block" +
        (b.blocks > 1 ? fmt(", block spread (q3-q1)/median %.3f",
                            quartiles(b.values).relative_iqr())
                      : std::string()) +
        (b.block.supported ? "" : "  UNDER-SAMPLED: fewer than 10 beyond"));
    std::string per_block = std::string(name) + " per block:";
    for (const double v : b.values) per_block += fmt(" %.1f", v);
    out.notes.push_back(per_block);
  }
}

void add_quality(RunResult& out, const Tally& t) {
  out.attempted = t.attempted;
  out.failed = t.failed;
  const double fail_frac =
      t.attempted ? static_cast<double>(t.failed) / t.attempted : 0.0;
  out.quality = {{"frr", t.outcomes.frr(), "fraction"},
                 {"far", t.outcomes.far(), "fraction"},
                 {"fail_frac", fail_frac, "fraction"}};
  out.notes.push_back("frr " + std::to_string(t.outcomes.legit_rejected) +
                      "/" + std::to_string(t.outcomes.legit) +
                      " legitimate, far " +
                      std::to_string(t.outcomes.attacks_accepted) + "/" +
                      std::to_string(t.outcomes.attacks) + " attacks");
}

void check_gates(RunResult& out, const Tally& t, bool smoke) {
  if (t.failed > 0) {
    out.correct = false;
    out.notes.push_back("FAIL: " + std::to_string(t.failed) +
                        " exceptions, refusals or checksum mismatches");
  }
  if (smoke) return;  // tiny models: accuracy is not meaningful
  if (t.outcomes.legit == 0 || t.outcomes.frr() > kMaxFrr) {
    out.correct = false;
    out.notes.push_back(fmt("FAIL: frr %.3f above gate", t.outcomes.frr()));
  }
  if (t.outcomes.attacks == 0 || t.outcomes.far() > kMaxFar) {
    out.correct = false;
    out.notes.push_back(fmt("FAIL: far %.3f above gate", t.outcomes.far()));
  }
}

double median_of(const std::vector<double>& v) {
  return percentile(v, 0.5).value;
}

void add_attribution(RunResult& out, const RunOptions& o,
                     const Fixture& f) {
  std::size_t features = 0;
  for (const core::EnrolledUser& u : f.users) {
    if (u.full_model) features = u.full_model->rocket().num_features();
  }
  out.attribution = {
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"seconds", fmt("%g", o.seconds)},
      {"trace", o.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"pool_threads", std::to_string(util::resolve_threads(0))},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"features", std::to_string(features)},
      {"kernel_isa", backend::kernels().name},
      {"obs_compiled_in", obs::kCompiledIn ? "1" : "0"},
      {"smoke", o.smoke ? "1" : "0"},
  };
}

// Times one set-up `reps` times; keeps the last fixture.  setup_s is the
// median, so one slow set-up does not move it.
template <typename Build>
double repeated_setup(std::size_t reps, Build&& build) {
  std::vector<double> times;
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    build();
    times.push_back(us_between(t0, Clock::now()) / 1e6);
  }
  return median_of(times);
}

// ---- per-layer metrics -----------------------------------------------------

struct Layers {
  const SpanLog* log = nullptr;
  const AuthLedger* auth = nullptr;
  const EnrollLedger* enroll = nullptr;
  const ServiceRun* service = nullptr;
  std::uint64_t materializations = 0;
  double lru_hit_rate = 0.0;
  double untraced_p50_us = 0.0;
  double traced_p50_us = 0.0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_layer_metrics(RunResult& out, const Layers& in) {
  const SpanLog& log = *in.log;
  auto p = [&](const char* span, double q = 0.5) {
    return percentile(log.durations(span), q).value;
  };
  auto add = [&](const char* name, double value, const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  const AuthLedger& al = *in.auth;
  const EnrollLedger& el = *in.enroll;
  const ServiceRun& sr = *in.service;
  const auto attempts = static_cast<double>(al.attempts);

  add("core.prepare_us", p("core.prepare"), "us");
  add("core.preprocess_us", p("core.preprocess"), "us");
  add("core.gating_us", p("core.gating"), "us");
  add("signal.median_filter_us", p("signal.median_filter"), "us");
  add("signal.calibration_us", p("signal.calibration"), "us");
  add("signal.detrend_us", p("signal.detrend"), "us");
  add("signal.energy_us", p("signal.energy"), "us");
  add("core.segmentation_us", p("core.segmentation"), "us");
  add("ml.transform_us", p("ml.transform"), "us");
  add("linalg.ridge_decision_us", p("linalg.ridge_decision"), "us");
  add("core.score_us", p("core.score"), "us");
  add("core.finish_us", p("core.finish"), "us");
  add("obs.commit_us", p("obs.commit"), "us");
  add("core.authenticate_us", p("core.authenticate"), "us");
  add("core.units_per_attempt", ratio(static_cast<double>(al.units), attempts),
      "count");

  double stage = 0.0, total = 0.0;
  std::size_t flags = 0;
  for (std::size_t k = 0; k < kAuthPaths; ++k) {
    const AuthLedger::PathSums& s = al.paths[k];
    const std::string slug = path_slug(static_cast<AuthPath>(k));
    const double r = s.attempts ? ratio(s.stage_sum_us, s.total_us) : 1.0;
    stage += s.stage_sum_us;
    total += s.total_us;
    out.metrics.push_back({"core.path_share." + slug,
                           ratio(static_cast<double>(s.attempts), attempts),
                           "fraction"});
    out.metrics.push_back({"core.stage_sum_ratio." + slug, r, "ratio"});
    const bool flagged = s.attempts > 0 && std::abs(r - 1.0) > 0.05;
    flags += flagged ? 1 : 0;
    out.notes.push_back("ledger " + slug + ": stage sum / authenticate = " +
                        fmt("%.4f", r) + " over " +
                        std::to_string(s.attempts) + " of " +
                        std::to_string(al.attempts) + " attempts" +
                        (s.attempts ? "" : " (no samples; reported as 1)") +
                        (flagged ? "  FLAG: off by more than 5%" : ""));
  }
  add("core.stage_sum_ratio", ratio(stage, total), "ratio");
  add("core.ledger_attempts", attempts, "count");

  add("service.submit_us", percentile(sr.submit_us, 0.5).value, "us");
  add("service.queue_us", percentile(sr.queue_us, 0.5).value, "us");
  add("service.queue_us_p99", percentile(sr.queue_us, 0.99).value, "us");
  add("service.service_us", percentile(sr.service_us, 0.5).value, "us");
  add("service.service_us_p99", percentile(sr.service_us, 0.99).value, "us");
  add("service.batch_size_mean", mean(sr.batch), "count");
  add("service.batch_size_max",
      sr.batch.empty() ? 0.0 : *std::max_element(sr.batch.begin(), sr.batch.end()),
      "count");
  add("service.overhead_us", percentile(sr.overhead_us, 0.5).value, "us");
  add("service.vs_serial", ratio(sr.throughput(), sr.serial_throughput()),
      "ratio");
  add("io.materialize_us", p("io.materialize"), "us");
  add("io.materialize_us_p99", p("io.materialize", 0.99), "us");
  add("io.materialize_count", static_cast<double>(in.materializations),
      "count");
  add("service.lru_hit_rate", in.lru_hit_rate, "fraction");
  add("bench.late_p99_us", percentile(sr.late_us, 0.99).value, "us");
  out.notes.push_back("service phase A: " + std::to_string(sr.latency_us.size()) +
                      " timed requests; queue/service p99 over the same");

  add("core.extract_us", p("core.extract"), "us");
  add("core.train_us", p("core.train"), "us");
  add("ml.fit_us", p("ml.fit"), "us");
  add("ml.transform_batch_us", p("ml.transform_batch"), "us");
  add("linalg.ridge_fit_us", p("linalg.ridge_fit"), "us");
  add("core.enroll_us", p("core.enroll"), "us");
  const double er = ratio(el.stage_sum_us, el.total_us);
  add("core.enroll_stage_sum_ratio", er, "ratio");
  const bool enroll_flag = std::abs(er - 1.0) > 0.05;
  flags += enroll_flag ? 1 : 0;
  out.notes.push_back("ledger enroll: stage sum / enroll_user = " +
                      fmt("%.4f", er) + " over " + std::to_string(el.users) +
                      " users" + (enroll_flag ? "  FLAG: off by more than 5%" : ""));
  add("core.ledger_flags", static_cast<double>(flags), "count");
  add("bench.trace_overhead", ratio(in.traced_p50_us, in.untraced_p50_us),
      "ratio");

  if (al.mismatches + el.mismatches > 0) {
    out.correct = false;
    out.notes.push_back("FAIL: outside-in replay diverged from the program (" +
                        std::to_string(al.mismatches) + " attempts, " +
                        std::to_string(el.mismatches) + " enrollments)");
  }
}

// Traced service pass over `f`'s attempts: a store of `names` aliases
// (one per user when names == users), a warm-up, then phase A and phase B
// for half of `seconds` each.
void service_pass(Fixture& f, const RunOptions& o, const Sizes& sizes,
                  std::size_t names, std::size_t stores, double seconds,
                  SpanLog& log, ServiceRun& run, Layers& layers) {
  if (names > f.users.size()) draw_alias_ranks(f, names, o.seed);
  Service s;
  start_service(s, f, names, stores, sizes.lru_per_shard, o.workdir, log);
  std::size_t cursor = 0;
  ServiceRun warm;
  closed_loop(*s.svc, f, cursor, 2, 1e9, sizes.warmup_requests, warm);
  const service::ServiceStats before = s.svc->stats();
  const std::uint64_t loads = s.source->loads();
  open_loop(*s.svc, f, cursor, seconds / 2, log, run);
  closed_loop(*s.svc, f, cursor, 2, seconds / 2, 0, run);
  layers.lru_hit_rate = lru_hit_rate(before, s.svc->stats());
  layers.materializations = s.source->loads() - loads;
  run.tally.merge(warm.tally);
}

// ---- workloads -------------------------------------------------------------

RunResult run_auth_mixed(const RunOptions& o, const Sizes& sizes) {
  RunResult out;
  SpanLog log;
  if (!o.trace) {
    Fixture f;
    const double setup_s = repeated_setup(sizes.setup_reps, [&] {
      f = make_auth_fixture(o.seed, sizes, log, nullptr);
      compute_truth(f, all_indices(f.attempts.size()), log, nullptr);
    });
    const SerialRun run = run_serial(f, o.seconds);
    out.metrics.push_back({"setup_s", setup_s, "s"});
    add_latency(out, run.all(), run.blocks, "authenticate calls", 0.99);
    out.metrics.push_back(
        {"throughput_per_s", rate_over_blocks(run.blocks), "1/s"});
    out.metrics.push_back({"peak_rss_mib", util::peak_rss_mib(), "MiB"});
    add_quality(out, run.tally);
    check_gates(out, run.tally, o.smoke);
    add_attribution(out, o, f);
    return out;
  }

  // Traced: enroll through the ledger, then an untraced and a traced pass
  // of equal length, then the service pass over the same attempts.
  EnrollLedger el;
  AuthLedger al;
  ServiceRun sr;
  Layers layers;
  log.set_enabled(true);
  Fixture f = make_auth_fixture(o.seed, sizes, log, &el);
  log.set_enabled(false);
  compute_truth(f, all_indices(f.attempts.size()), log, nullptr);
  const SerialRun untraced = run_serial(f, o.seconds / 3);
  log.set_enabled(true);
  Tally tally = untraced.tally;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds / 3));
  // At least one full pass, so every path is in the ledger.
  for (std::size_t i = 0; i < f.attempts.size() || Clock::now() < deadline;
       ++i) {
    const std::size_t k = i % f.attempts.size();
    const Attempt& a = f.attempts[k];
    ++tally.attempted;
    const core::AuthResult r = ledger_attempt(log, i, f.users[a.user],
                                              a.observation, i % 2 == 0, al);
    if (service::decision_checksum(r) != a.expected) ++tally.failed;
  }
  // The multi-tenant layers, on the same attempts: zipf-drawn aliases over
  // the P2MDL001 store with the LRU below the names touched.
  service_pass(f, o, sizes, sizes.names, sizes.stores, o.seconds / 3, log, sr,
               layers);
  tally.merge(sr.tally);
  layers.log = &log;
  layers.auth = &al;
  layers.enroll = &el;
  layers.service = &sr;
  layers.untraced_p50_us = median_of(untraced.all());
  layers.traced_p50_us = median_of(al.authenticate_us);
  add_layer_metrics(out, layers);
  add_quality(out, tally);
  check_gates(out, tally, o.smoke);
  add_attribution(out, o, f);
  log.write_chrome_trace(o.workdir + "/perfbench_trace_auth_mixed.json",
                         200000);
  return out;
}

RunResult run_enroll(const RunOptions& o, const Sizes& sizes) {
  RunResult out;
  SpanLog log;
  Fixture f;
  const double setup_s =
      repeated_setup(o.trace ? 1 : sizes.setup_reps,
                     [&] { f = make_enroll_fixture(o.seed, sizes); });
  const std::size_t n = f.pins.size();

  // Enrolls users round-robin for `seconds`; the first enrollment of each
  // user is scored on its probes (untimed), repeats must reproduce the
  // same models bit for bit.
  std::vector<std::uint64_t> digests(n, 0);
  Tally tally;
  auto pass = [&](double seconds, EnrollLedger* ledger,
                  std::vector<double>& latency) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t i = 0; latency.empty() || Clock::now() < deadline; ++i) {
      const std::size_t u = i % n;
      ++tally.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        core::EnrolledUser user = enroll(f, u, sizes, log, ledger);
        latency.push_back(ledger ? ledger->enroll_us.back()
                                 : us_between(t0, Clock::now()));
        const std::uint64_t digest = model_digest(user);
        if (digests[u] == 0) {
          digests[u] = digest;
          for (const std::size_t k : f.probes[u]) {
            const Attempt& a = f.attempts[k];
            tally.outcomes.add(a.category,
                               core::authenticate(user, a.observation).accepted);
          }
          if (f.users.size() < 3) f.users.push_back(std::move(user));
        } else if (digest != digests[u]) {
          ++tally.failed;
        }
      } catch (const std::exception&) {
        ++tally.failed;
      }
    }
  };

  if (!o.trace) {
    std::vector<double> latency;
    pass(o.seconds, nullptr, latency);
    out.metrics.push_back({"setup_s", setup_s, "s"});
    // Blocks are whole rounds over the users, so each holds the same users.
    add_latency(out, latency, {}, "enrolled users", 0.90, n);
    out.metrics.push_back(
        {"throughput_per_s", blocked_rate(latency, min_samples_for(0.5), n),
         "1/s"});
    out.metrics.push_back({"peak_rss_mib", util::peak_rss_mib(), "MiB"});
  } else {
    EnrollLedger el;
    AuthLedger al;
    ServiceRun sr;
    Layers layers;
    std::vector<double> untraced, traced;
    pass(o.seconds / 3, nullptr, untraced);
    log.set_enabled(true);
    pass(o.seconds / 3, &el, traced);
    // Authentication and service layers on the probes of the users kept.
    f.attempts = [&] {
      std::vector<Attempt> kept;
      for (std::size_t u = 0; u < f.users.size(); ++u) {
        for (const std::size_t k : f.probes[u]) {
          kept.push_back(std::move(f.attempts[k]));
          kept.back().user = u;
        }
      }
      return kept;
    }();
    compute_truth(f, all_indices(f.attempts.size()), log, &al);
    service_pass(f, o, sizes, f.users.size(), 1, o.seconds / 3, log, sr,
                 layers);
    tally.merge(sr.tally);
    layers.log = &log;
    layers.auth = &al;
    layers.enroll = &el;
    layers.service = &sr;
    layers.untraced_p50_us = median_of(untraced);
    layers.traced_p50_us = median_of(traced);
    add_layer_metrics(out, layers);
    log.write_chrome_trace(o.workdir + "/perfbench_trace_enroll.json", 200000);
  }
  add_quality(out, tally);
  check_gates(out, tally, o.smoke);
  add_attribution(out, o, f);
  return out;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  const Sizes sizes = sizes_for(options.smoke);
  std::filesystem::create_directories(options.workdir);
  if (options.workload == "auth_mixed") return run_auth_mixed(options, sizes);
  if (options.workload == "enroll") return run_enroll(options, sizes);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench

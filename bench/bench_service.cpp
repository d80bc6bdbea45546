// Service-layer load harness: closed- and open-loop generators over
// service::AuthService with a zipf-skewed user population and a
// configurable attacker mix.
//
// The workload is fully seeded and deterministic: M real enrollments
// are aliased across N registry names, saved to a P2MDL001 store and
// served through the mmap MappedRegistrySource, so the bench exercises
// the same resolve path production would.  Every request carries a
// hidden ground-truth digest — decision_checksum of a serial
// core::authenticate replay on the same (user, observation) — and the
// bench exits nonzero if any concurrent service decision differs by a
// single bit.  Also probed, each with a gated invariant flag:
//
//   * bit_identical      — service == serial replay for every request;
//   * overload_typed     — a saturated admission queue sheds with
//                          kOverloaded, answers everything, drops nothing;
//   * shutdown_drained   — stop() drains every admitted request exactly
//                          once and later submissions get kShuttingDown;
//   * decision_rate      — every admitted known-user request decided;
//   * service_vs_serial_speedup — closed-loop concurrent throughput over
//                          the serial replay of the same workload.
//
// Reported (ungated): p50/p95/p99 latency and QPS per loop mode, and
// LRU statistics.  --quick shrinks everything for CI; writes
// BENCH_service.json for tools/check_bench_regression.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/binary.hpp"
#include "service/checksum.hpp"
#include "service/service.hpp"
#include "service/source.hpp"
#include "sim/dataset.hpp"
#include "util/rng.hpp"

namespace {

using namespace p2auth;
using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string user_name(std::size_t i) { return "user" + std::to_string(i); }

// One pre-generated request plus its hidden ground truth.
struct WorkItem {
  service::AuthRequest request;
  std::uint64_t expected_checksum = 0;
};

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Percentiles percentiles(std::vector<double> latencies) {
  Percentiles out;
  if (latencies.empty()) return out;
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double q) {
    const std::size_t idx = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
    return latencies[idx];
  };
  out.p50 = at(0.50);
  out.p95 = at(0.95);
  out.p99 = at(0.99);
  return out;
}

// Zipf(s) sampler over [0, n) with a precomputed CDF; rank == index so
// user0 is the hottest name.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t draw(util::Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct LoopResult {
  Percentiles lat;          // microseconds, client-observed
  double wall_s = 0.0;
  double qps = 0.0;
  std::uint64_t ok = 0, overloaded = 0, other = 0, mismatches = 0;
};

// Folds one settled response into `out`, checking its checksum against
// the hidden ground truth.
void account(const service::AuthResponse& response,
             const std::vector<WorkItem>& work, LoopResult& out) {
  switch (response.status) {
    case service::RequestStatus::kOk: {
      ++out.ok;
      const std::uint64_t expected =
          work[response.request_id].expected_checksum;
      if (service::decision_checksum(response.result) != expected) {
        ++out.mismatches;
      }
      break;
    }
    case service::RequestStatus::kOverloaded:
      ++out.overloaded;
      break;
    default:
      ++out.other;
      break;
  }
}

// Closed loop: `clients` threads partition the work, each submitting one
// request and blocking on its future before the next.  Peak sustainable
// QPS for this concurrency level.
LoopResult run_closed_loop(service::AuthService& svc,
                           const std::vector<WorkItem>& work,
                           std::size_t clients) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<LoopResult> partial(clients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < work.size(); i += clients) {
        const Clock::time_point t0 = Clock::now();
        service::AuthResponse response =
            svc.submit(work[i].request).get();
        lat[c].push_back(us_between(t0, Clock::now()));
        account(response, work, partial[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.wall_s = us_between(start, Clock::now()) / 1e6;
  std::vector<double> all;
  for (std::size_t c = 0; c < clients; ++c) {
    all.insert(all.end(), lat[c].begin(), lat[c].end());
    out.ok += partial[c].ok;
    out.overloaded += partial[c].overloaded;
    out.other += partial[c].other;
    out.mismatches += partial[c].mismatches;
  }
  out.lat = percentiles(std::move(all));
  out.qps = out.wall_s > 0.0 ? static_cast<double>(out.ok) / out.wall_s : 0.0;
  return out;
}

// Open loop: one submitter paces Poisson arrivals at `rate_hz`
// regardless of completion — queueing shows up as latency (and, past
// saturation, typed shed), exactly what a closed loop hides.  Latency is
// in-service time (queue + decide) from the response itself.
LoopResult run_open_loop(service::AuthService& svc,
                         const std::vector<WorkItem>& work, double rate_hz,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::future<service::AuthResponse>> futures;
  futures.reserve(work.size());
  const Clock::time_point start = Clock::now();
  double next_s = 0.0;
  for (const WorkItem& item : work) {
    next_s += -std::log(1.0 - rng.uniform()) / rate_hz;  // exp inter-arrival
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(next_s));
    std::this_thread::sleep_until(due);
    futures.push_back(svc.submit(item.request));
  }
  LoopResult out;
  std::vector<double> lat;
  for (std::future<service::AuthResponse>& f : futures) {
    const service::AuthResponse response = f.get();
    if (response.status == service::RequestStatus::kOk) {
      lat.push_back(response.queue_us + response.service_us);
    }
    account(response, work, out);
  }
  out.wall_s = us_between(start, Clock::now()) / 1e6;
  out.lat = percentiles(std::move(lat));
  out.qps = out.wall_s > 0.0 ? static_cast<double>(out.ok) / out.wall_s : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t names = 0, requests = 0;
  std::uint64_t seed = 7;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--users" && i + 1 < argc) names = std::stoul(argv[++i]);
    if (arg == "--requests" && i + 1 < argc) requests = std::stoul(argv[++i]);
    if (arg == "--seed" && i + 1 < argc) seed = std::stoull(argv[++i]);
  }
  const std::size_t models = quick ? 2 : 4;   // real enrollments
  if (names == 0) names = quick ? 48 : 256;   // registry names (aliased)
  if (requests == 0) requests = quick ? 48 : 400;
  const std::size_t clients = 4;
  const double attacker_frac = 0.25;

  bench::BenchReport report("service");
  util::Rng rng(seed);

  // ---- enroll M models, alias across N names, save the mmap store ----
  std::printf("enrolling %zu models, aliasing across %zu names...\n", models,
              names);
  sim::PopulationConfig pop_cfg;
  pop_cfg.num_users = models;
  pop_cfg.seed = seed;
  const sim::Population population = sim::make_population(pop_cfg);
  const std::vector<keystroke::Pin> pins = {
      keystroke::Pin("1628"), keystroke::Pin("0852"), keystroke::Pin("7391"),
      keystroke::Pin("4067")};
  sim::TrialOptions trial_options;
  std::vector<core::EnrolledUser> enrolled;
  const double enroll_s = bench::timed_s([&] {
    for (std::size_t m = 0; m < models; ++m) {
      const keystroke::Pin& pin = pins[m % pins.size()];
      std::vector<core::Observation> pos, neg;
      util::Rng er = rng.fork("enroll" + std::to_string(m));
      for (sim::Trial& t :
           sim::make_trials(population.users[m], pin, 6, trial_options, er)) {
        pos.push_back({std::move(t.entry), std::move(t.trace)});
      }
      util::Rng pr = rng.fork("pool" + std::to_string(m));
      for (sim::Trial& t :
           sim::make_third_party_pool(population, 30, trial_options, pr)) {
        neg.push_back({std::move(t.entry), std::move(t.trace)});
      }
      core::EnrollmentConfig config;
      config.rocket.num_features = quick ? 500 : 2000;
      enrolled.push_back(core::enroll_user(pin, pos, neg, config));
    }
  });
  const std::string store_path = "bench_service.p2mdl";
  core::UserRegistry registry;
  for (std::size_t i = 0; i < names; ++i) {
    core::EnrolledUser copy = enrolled[i % models];
    copy.user_id = static_cast<std::uint32_t>(1000 + i);
    registry.add(user_name(i), std::move(copy));
  }
  io::save_user_registry_binary_file(registry, store_path);
  auto source = std::make_shared<service::MappedRegistrySource>(
      std::vector<std::string>{store_path});

  // ---- pre-generate the seeded workload + hidden ground truth --------
  std::printf("generating %zu requests (zipf names, %.0f%% attacker mix)...\n",
              requests, 100.0 * attacker_frac);
  const ZipfSampler zipf(names, 1.1);
  util::Rng wl = rng.fork("workload");
  std::vector<WorkItem> work(requests);
  std::map<std::string, core::EnrolledUser> truth_cache;
  double serial_s = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t name_idx = zipf.draw(wl);
    const std::size_t model_idx = name_idx % models;
    const bool attack = wl.uniform() < attacker_frac;
    const ppg::UserProfile& subject =
        attack ? population.attackers[name_idx % population.attackers.size()]
               : population.users[model_idx];
    util::Rng tr = wl.fork("trial" + std::to_string(i));
    sim::Trial trial =
        sim::make_trial(subject, pins[model_idx % pins.size()], trial_options,
                        tr);
    work[i].request.request_id = i;
    work[i].request.user = user_name(name_idx);
    work[i].request.observation = {std::move(trial.entry),
                                   std::move(trial.trace)};
    // Hidden ground truth: serial core::authenticate on the same
    // materialized user — the oracle the service must match bit for
    // bit.
    const std::string& name = work[i].request.user;
    auto it = truth_cache.find(name);
    if (it == truth_cache.end()) {
      it = truth_cache.emplace(name, *source->load(name)).first;
    }
    const core::EnrolledUser& user = it->second;
    serial_s += bench::timed_s([&] {
      work[i].expected_checksum = service::decision_checksum(
          core::authenticate(user, work[i].request.observation));
    });
  }

  // ---- closed loop ---------------------------------------------------
  service::ServiceOptions svc_options;
  svc_options.shards = 4;
  svc_options.lru_capacity = quick ? 16 : 64;
  svc_options.queue_capacity = 1024;
  svc_options.workers = 2;
  std::printf("closed loop: %zu clients over %zu requests...\n", clients,
              requests);
  LoopResult closed;
  service::ServiceStats closed_stats;
  bool closed_drained = false;
  {
    service::AuthService svc(source, svc_options);
    closed = run_closed_loop(svc, work, clients);
    svc.stop();
    closed_stats = svc.stats();
    closed_drained =
        closed_stats.admitted == closed_stats.completed +
                                     closed_stats.unknown_user +
                                     closed_stats.corrupt_model &&
        svc.submit({}).get().status == service::RequestStatus::kShuttingDown;
  }

  // ---- open loop at ~70% of the measured closed-loop capacity --------
  const double rate_hz = std::max(10.0, 0.7 * closed.qps);
  std::printf("open loop: Poisson arrivals at %.1f req/s...\n", rate_hz);
  LoopResult open;
  service::ServiceStats open_stats;
  bool open_drained = false;
  {
    service::AuthService svc(source, svc_options);
    open = run_open_loop(svc, work, rate_hz, seed + 1);
    svc.stop();
    open_stats = svc.stats();
    open_drained = open_stats.admitted == open_stats.completed +
                                              open_stats.unknown_user +
                                              open_stats.corrupt_model;
  }

  // ---- overload probe: tiny queue, slow consumption, fast burst ------
  // Deterministically saturates admission: one worker deciding one
  // request at a time (milliseconds each) against a burst of
  // sub-microsecond submissions into a 2-deep queue.  Every response
  // must arrive, the excess must be typed kOverloaded, nothing may
  // block or vanish.
  std::uint64_t probe_ok = 0, probe_overloaded = 0, probe_other = 0;
  {
    service::ServiceOptions tiny = svc_options;
    tiny.queue_capacity = 2;
    tiny.workers = 1;
    service::AuthService svc(source, tiny);
    std::vector<std::future<service::AuthResponse>> futures;
    const std::size_t burst = std::min<std::size_t>(work.size(), 32);
    futures.reserve(burst);
    for (std::size_t i = 0; i < burst; ++i) {
      futures.push_back(svc.submit(work[i].request));
    }
    for (auto& f : futures) {
      const service::AuthResponse r = f.get();
      if (r.status == service::RequestStatus::kOk) {
        ++probe_ok;
      } else if (r.status == service::RequestStatus::kOverloaded) {
        ++probe_overloaded;
      } else {
        ++probe_other;
      }
    }
    svc.stop();
  }

  // ---- invariants (all gated at 1.0) ---------------------------------
  const bool bit_identical =
      closed.mismatches == 0 && open.mismatches == 0 &&
      closed.ok == requests;  // ample queue: nothing shed in closed loop
  const bool overload_typed = probe_overloaded > 0 && probe_other == 0 &&
                              probe_ok + probe_overloaded >= 1 &&
                              probe_ok >= 1;
  const bool shutdown_drained = closed_drained && open_drained;
  const double decided = static_cast<double>(closed.ok + open.ok);
  const double admitted_known =
      static_cast<double>(closed_stats.completed + open_stats.completed);
  const bool decision_rate_ok = decided == admitted_known && decided > 0;
  const double speedup = closed.wall_s > 0.0 ? serial_s / closed.wall_s : 0.0;

  util::Table table({"loop", "requests", "ok", "shed", "p50 us", "p95 us",
                     "p99 us", "qps"});
  table.begin_row()
      .cell("closed")
      .cell(static_cast<long long>(requests))
      .cell(static_cast<long long>(closed.ok))
      .cell(static_cast<long long>(closed.overloaded))
      .cell(closed.lat.p50, 0)
      .cell(closed.lat.p95, 0)
      .cell(closed.lat.p99, 0)
      .cell(closed.qps, 1);
  table.begin_row()
      .cell("open")
      .cell(static_cast<long long>(requests))
      .cell(static_cast<long long>(open.ok))
      .cell(static_cast<long long>(open.overloaded))
      .cell(open.lat.p50, 0)
      .cell(open.lat.p95, 0)
      .cell(open.lat.p99, 0)
      .cell(open.qps, 1);
  report.table(table, "load", "service load harness");

  std::printf(
      "\nserial replay %.2fs, closed loop %.2fs (speedup %.2fx); "
      "lru hits %llu / misses %llu\n",
      serial_s, closed.wall_s, speedup,
      static_cast<unsigned long long>(closed_stats.lru_hits),
      static_cast<unsigned long long>(closed_stats.lru_misses));

  report.concurrency(svc_options.workers, svc_options.shards);
  report.value("bit_identical", bit_identical ? 1.0 : 0.0);
  report.value("overload_typed", overload_typed ? 1.0 : 0.0);
  report.value("shutdown_drained", shutdown_drained ? 1.0 : 0.0);
  report.value("decision_rate", decision_rate_ok ? 1.0 : 0.0);
  report.value("service_vs_serial_speedup", speedup);
  report.value("closed_p50_us", closed.lat.p50);
  report.value("closed_p95_us", closed.lat.p95);
  report.value("closed_p99_us", closed.lat.p99);
  report.value("closed_qps", closed.qps);
  report.value("open_p50_us", open.lat.p50);
  report.value("open_p95_us", open.lat.p95);
  report.value("open_p99_us", open.lat.p99);
  report.value("open_qps", open.qps);
  report.value("open_rate_hz", rate_hz);
  report.value("enroll_s", enroll_s);
  report.value("lru_hit_rate",
               closed_stats.lru_hits + closed_stats.lru_misses > 0
                   ? static_cast<double>(closed_stats.lru_hits) /
                         static_cast<double>(closed_stats.lru_hits +
                                             closed_stats.lru_misses)
                   : 0.0);
  report.write();
  std::remove(store_path.c_str());

  // Self-enforced: the harness is the proof, so a violated invariant is
  // a failed bench run, not just a low number in the JSON.
  bool failed = false;
  if (!bit_identical) {
    std::printf("FAIL: service decisions diverge from serial replay "
                "(%llu + %llu mismatches)\n",
                static_cast<unsigned long long>(closed.mismatches),
                static_cast<unsigned long long>(open.mismatches));
    failed = true;
  }
  if (!overload_typed) {
    std::printf("FAIL: overload probe (ok=%llu overloaded=%llu other=%llu)\n",
                static_cast<unsigned long long>(probe_ok),
                static_cast<unsigned long long>(probe_overloaded),
                static_cast<unsigned long long>(probe_other));
    failed = true;
  }
  if (!shutdown_drained) {
    std::printf("FAIL: shutdown did not drain admitted requests exactly "
                "once\n");
    failed = true;
  }
  if (!decision_rate_ok) {
    std::printf("FAIL: decided %g != admitted known-user %g\n", decided,
                admitted_known);
    failed = true;
  }
  return failed ? 1 : 0;
}

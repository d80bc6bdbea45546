// Experiment harness: runs a full enrollment + authentication study over
// a simulated population, producing the accuracy / TRR numbers behind the
// paper's evaluation figures.
//
// One `run_experiment` call corresponds to one bar group / curve point in
// the paper: it builds the population, enrolls every user (their own
// entries as positives + the shared third-party pool as negatives), then
// tests held-out legitimate entries, random attacks and emulating
// attacks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "core/metrics.hpp"
#include "keystroke/timing.hpp"
#include "obs/drift.hpp"
#include "ppg/sensor.hpp"
#include "sim/population.hpp"
#include "sim/scenarios.hpp"

namespace p2auth::core {

// Ground-truth label of one harness attempt (the harness knows which
// stream it simulated; deployed code never does).
enum class AttemptKind { kLegitimate, kRandomAttack, kEmulatingAttack };

struct ExperimentConfig {
  sim::PopulationConfig population{};
  ppg::SensorConfig sensors = ppg::SensorConfig::prototype_wristband();
  // Input case used by legitimate users at *test* time (enrollment is
  // always one-handed, as in the paper's registration procedure).
  keystroke::InputCase test_case = keystroke::InputCase::kOneHanded;
  // Paper: the user enters at most 9 PINs during enrollment; >= 18
  // repetitions were collected, so ~9 are left for testing.
  std::size_t enroll_entries = 9;
  std::size_t test_entries = 9;
  // Paper default: 100 third-party samples (Fig. 14 sweeps this).
  std::size_t third_party_samples = 100;
  std::size_t random_attacks_per_user = 10;     // 150 total over 15 users
  std::size_t emulating_attacks_per_user = 10;
  bool privacy_boost = false;
  bool no_pin = false;
  // Watch wearing position for every simulated entry (paper section VI).
  ppg::WearingPosition wearing = ppg::WearingPosition::kInnerWrist;
  // Body activity at *test* time (enrollment is a deliberate seated act).
  ppg::ActivityState test_activity = ppg::ActivityState::kStatic;
  // Daily-life condition applied to *test* attempts (legitimate and
  // attack alike; enrollment stays clean, mirroring the registration
  // procedure).  The default profile is an exact no-op — identical RNG
  // draws, bit-identical trials — so pre-scenario results reproduce.
  sim::ScenarioProfile test_scenario{};
  // Evaluate the PPG factor in isolation for random attacks (see
  // EXPERIMENTS.md; with the PIN check active a random 4-digit guess is
  // rejected with probability 0.9999 before the biometric even runs).
  bool bypass_pin_for_random_attack = true;
  EnrollmentConfig enrollment{};
  AuthOptions auth{};
  std::uint64_t seed = 2023;
  // Parallelism of the third-party pool extraction and the per-user sweep
  // on the shared pool; 0 = the util::resolve_threads default
  // (P2AUTH_THREADS, else all hardware threads).  Results are identical
  // for every value (see thread_pool.hpp).
  std::size_t threads = 0;
  // Called at the start of each user's evaluation (possibly from a pool
  // worker; distinct users may call it concurrently).  Intended for
  // progress reporting; an exception thrown here aborts the sweep exactly
  // like a failure inside the evaluation itself.
  std::function<void(std::size_t user_index)> on_user_start;
  // Called after every authentication decision with its ground-truth
  // label (possibly concurrently for distinct users; attempts of one
  // user arrive in order from a single worker).  Gives observability
  // harnesses the oracle view the deployed system never has.
  std::function<void(std::size_t user_index, AttemptKind kind,
                     const AuthResult& result)>
      on_decision;
  // Feed per-user drift monitors with ground-truth labels during the
  // sweep and roll them up into ExperimentResult::drift: legitimate
  // waveform scores -> genuine side, attack scores -> imposter side.
  // The evaluation then acts as the oracle the online monitor is
  // validated against (tests/test_drift.cpp).
  bool monitor_drift = false;
  obs::DriftOptions drift{};
};

struct UserOutcome {
  std::uint32_t user_id = 0;
  AuthMetrics metrics;
  // Engaged when config.monitor_drift: this user's monitor, seeded with
  // their enrollment-time baseline and fed with ground-truth labels.
  std::optional<obs::DriftMonitor> drift;
};

struct ExperimentResult {
  std::vector<UserOutcome> per_user;
  AuthMetrics pooled;
  // Engaged when config.monitor_drift: population-wide roll-up (merged
  // per-user monitors).
  std::optional<obs::DriftMonitor> drift;

  double mean_accuracy() const;
  double stddev_accuracy() const;
  double mean_trr_random() const;
  double mean_trr_emulating() const;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace p2auth::core

#include "core/evaluation.hpp"

#include <stdexcept>
#include <string>

#include "keystroke/pinpad.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::core {

namespace {

Observation to_observation(sim::Trial trial) {
  return Observation{std::move(trial.entry), std::move(trial.trace)};
}

std::vector<Observation> to_observations(std::vector<sim::Trial> trials) {
  std::vector<Observation> out;
  out.reserve(trials.size());
  for (auto& t : trials) out.push_back(to_observation(std::move(t)));
  return out;
}

UserOutcome evaluate_user(std::size_t user_index,
                          const sim::Population& population,
                          const std::vector<ExtractedEntry>& negatives,
                          const ExperimentConfig& config) {
  const ppg::UserProfile& user = population.users[user_index];
  util::Rng rng(config.seed ^ (0xabcdef12345ULL * (user_index + 1)),
                0x9d2c5680ULL + user_index);

  const std::vector<keystroke::Pin>& pins = keystroke::paper_pins();
  const keystroke::Pin user_pin = pins[user_index % pins.size()];

  sim::TrialOptions enroll_options;
  enroll_options.sensors = config.sensors;
  enroll_options.input_case = keystroke::InputCase::kOneHanded;
  enroll_options.wearing = config.wearing;

  // --- Enrollment data. ---
  std::vector<Observation> positives;
  util::Rng enroll_rng = rng.fork("enroll");
  if (config.no_pin) {
    // No fixed PIN: enrollment cycles all five pad-covering PINs so every
    // digit key gets positive single-keystroke samples.
    for (std::size_t e = 0; e < config.enroll_entries; ++e) {
      util::Rng trial_rng = enroll_rng.fork(0xe00ULL + e);
      positives.push_back(to_observation(sim::make_trial(
          user, pins[e % pins.size()], enroll_options, trial_rng)));
    }
  } else {
    positives = to_observations(sim::make_trials(
        user, user_pin, config.enroll_entries, enroll_options, enroll_rng));
  }

  EnrollmentConfig enrollment = config.enrollment;
  enrollment.privacy_boost = config.privacy_boost;
  enrollment.seed = rng.fork("model-seed").next_u64();
  EnrolledUser enrolled =
      enroll_user(config.no_pin ? keystroke::Pin() : user_pin, positives,
                  negatives, enrollment);
  enrolled.user_id = user.user_id;

  AuthOptions auth = config.auth;
  auth.preprocess = enrollment.preprocess;
  auth.segmentation = enrollment.segmentation;

  UserOutcome outcome;
  outcome.user_id = user.user_id;
  if (config.monitor_drift) {
    outcome.drift.emplace(enrolled.score_baseline, config.drift);
  }

  // Oracle feed: the harness knows each attempt's true stream, so the
  // drift monitor gets ground-truth labels here (deployed code relies on
  // the PIN-factor proxy instead, see core/streaming.cpp).
  const auto decided = [&](AttemptKind kind, const AuthResult& result) {
    if (outcome.drift) {
      const bool scored = result.model_path == ModelPath::kFullWaveform ||
                          result.model_path == ModelPath::kBoost;
      if (scored) {
        if (kind == AttemptKind::kLegitimate) {
          outcome.drift->observe_genuine(result.waveform_score);
        } else {
          outcome.drift->observe_imposter(result.waveform_score);
        }
      }
      if (result.channels_assessed > 0) {
        outcome.drift->observe_channels(result.channel_mask,
                                        result.channels_assessed);
      }
    }
    if (config.on_decision) config.on_decision(user_index, kind, result);
  };

  // --- Legitimate test attempts. ---
  sim::TrialOptions test_options = enroll_options;
  test_options.input_case = config.test_case;
  test_options.activity = config.test_activity;
  util::Rng test_rng = rng.fork("test");
  for (std::size_t t = 0; t < config.test_entries; ++t) {
    const keystroke::Pin pin =
        config.no_pin ? pins[(t + 1) % pins.size()] : user_pin;
    util::Rng trial_rng = test_rng.fork(0x7e57ULL + t);
    const Observation obs = to_observation(sim::make_scenario_trial(
        user, pin, test_options, config.test_scenario, trial_rng));
    const AuthResult result = authenticate(enrolled, obs, auth);
    outcome.metrics.legitimate.add(result.accepted);
    decided(AttemptKind::kLegitimate, result);
  }

  // --- Random attacks. ---
  util::Rng ra_rng = rng.fork("random-attack");
  AuthOptions ra_auth = auth;
  ra_auth.skip_pin_check = config.bypass_pin_for_random_attack;
  for (std::size_t a = 0; a < config.random_attacks_per_user; ++a) {
    const ppg::UserProfile& attacker =
        population.attackers[a % population.attackers.size()];
    util::Rng trial_rng = ra_rng.fork(0x4aULL + a);
    const Observation obs = to_observation(sim::make_scenario_random_attack(
        attacker, test_options, config.test_scenario, trial_rng));
    const AuthResult result = authenticate(enrolled, obs, ra_auth);
    outcome.metrics.random_attack.add(result.accepted);
    decided(AttemptKind::kRandomAttack, result);
  }

  // --- Emulating attacks (correct PIN, imitated cadence). ---
  util::Rng ea_rng = rng.fork("emulating-attack");
  const keystroke::Pin ea_pin = config.no_pin ? pins[0] : user_pin;
  for (std::size_t a = 0; a < config.emulating_attacks_per_user; ++a) {
    const ppg::UserProfile& attacker =
        population.attackers[a % population.attackers.size()];
    util::Rng trial_rng = ea_rng.fork(0xeaULL + a);
    const Observation obs = to_observation(sim::make_scenario_emulating_attack(
        attacker, user, ea_pin, test_options, sim::EmulationOptions{},
        config.test_scenario, trial_rng));
    const AuthResult result = authenticate(enrolled, obs, auth);
    outcome.metrics.emulating_attack.add(result.accepted);
    decided(AttemptKind::kEmulatingAttack, result);
  }
  return outcome;
}

}  // namespace

double ExperimentResult::mean_accuracy() const {
  std::vector<double> v;
  v.reserve(per_user.size());
  for (const auto& u : per_user) v.push_back(u.metrics.accuracy());
  return mean(v);
}

double ExperimentResult::stddev_accuracy() const {
  std::vector<double> v;
  v.reserve(per_user.size());
  for (const auto& u : per_user) v.push_back(u.metrics.accuracy());
  return stddev(v);
}

double ExperimentResult::mean_trr_random() const {
  std::vector<double> v;
  v.reserve(per_user.size());
  for (const auto& u : per_user) v.push_back(u.metrics.trr_random());
  return mean(v);
}

double ExperimentResult::mean_trr_emulating() const {
  std::vector<double> v;
  v.reserve(per_user.size());
  for (const auto& u : per_user) v.push_back(u.metrics.trr_emulating());
  return mean(v);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.enroll_entries == 0 || config.test_entries == 0) {
    throw std::invalid_argument("run_experiment: need enroll and test data");
  }
  const sim::Population population = sim::make_population(config.population);
  if (population.users.empty()) {
    throw std::invalid_argument("run_experiment: empty population");
  }

  // Shared third-party pool (simulated once, reused for every user, as the
  // paper stores one third-party dataset on the phone).
  util::Rng pool_rng(config.seed ^ 0x3d9a7777ULL, 0x1357ULL);
  sim::TrialOptions pool_options;
  pool_options.sensors = config.sensors;
  pool_options.input_case = keystroke::InputCase::kOneHanded;
  pool_options.wearing = config.wearing;
  const std::vector<Observation> negatives =
      to_observations(sim::make_third_party_pool(
          population, config.third_party_samples, pool_options, pool_rng));

  // Preprocess + segment the shared pool once up front instead of once
  // per user inside enroll_user: extraction depends only on the
  // preprocess/segmentation options, which the sweep holds fixed (users
  // differ only in model seed and privacy-boost flag), so every user
  // trains on bit-identical extracted negatives.  Turns O(users x pool)
  // extraction work into O(pool).
  const std::vector<ExtractedEntry> extracted_negatives = extract_observations(
      negatives, config.enrollment, util::resolve_threads(config.threads));

  ExperimentResult result;
  result.per_user.resize(population.users.size());

  // Per-user sweep on the shared pool.  Each task writes only its own
  // result slot, so tallies are identical for every thread count; a
  // throwing user cancels the remaining dispatch and is reported below
  // with its index instead of silently draining the whole population
  // first (the old std::async fan-out did the latter).
  try {
    util::parallel_for(
        population.users.size(), /*chunk=*/1,
        [&](std::size_t i) {
          if (config.on_user_start) config.on_user_start(i);
          result.per_user[i] =
              evaluate_user(i, population, extracted_negatives, config);
        },
        util::resolve_threads(config.threads));
  } catch (const util::ParallelForError& e) {
    try {
      e.rethrow_cause();
    } catch (const std::exception& cause) {
      throw std::runtime_error("run_experiment: user " +
                               std::to_string(e.index()) +
                               " failed: " + cause.what());
    } catch (...) {
      throw std::runtime_error("run_experiment: user " +
                               std::to_string(e.index()) +
                               " failed: unknown exception");
    }
  }

  for (const auto& u : result.per_user) result.pooled.merge(u.metrics);
  if (config.monitor_drift) {
    for (const auto& u : result.per_user) {
      if (!u.drift) continue;
      if (!result.drift) {
        result.drift = u.drift;
      } else {
        result.drift->merge(*u.drift);
      }
    }
  }
  return result;
}

}  // namespace p2auth::core

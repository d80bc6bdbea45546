#include "core/enrollment.hpp"

#include <stdexcept>

#include "keystroke/pinpad.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::core {

void WaveformModel::train(const std::vector<std::vector<Series>>& positives,
                          const std::vector<std::vector<Series>>& negatives,
                          const ml::MiniRocketOptions& rocket_options,
                          const linalg::RidgeOptions& ridge_options,
                          util::Rng& rng, bool recenter_threshold) {
  if (positives.empty() || negatives.empty()) {
    throw std::invalid_argument("WaveformModel::train: both classes needed");
  }
  std::vector<std::vector<Series>> all = positives;
  all.insert(all.end(), negatives.begin(), negatives.end());
  rocket_ = ml::MultiChannelMiniRocket(rocket_options);
  util::Rng rocket_rng = rng.fork("rocket");
  rocket_.fit(all, rocket_rng);
  const linalg::Matrix features = rocket_.transform(all);
  std::vector<double> labels(all.size(), -1.0);
  for (std::size_t i = 0; i < positives.size(); ++i) labels[i] = 1.0;
  ridge_.fit(features, labels, ridge_options);
  trained_positives_ = positives.size();

  // The enrollment set is heavily imbalanced (the paper's default mixes
  // ~9 user entries with ~100 third-party samples), which pulls the ridge
  // regression's zero threshold toward "reject".  Recenter the operating
  // point of Eq. (9) at the midpoint between the class-mean
  // *leave-one-out* decision values — training-set decisions are useless
  // here because a lightly regularised ridge interpolates its labels.
  if (!recenter_threshold) {
    threshold_ = 0.0;
    return;
  }
  const linalg::Vector& loo = ridge_.loo_decisions();
  double mean_pos = 0.0, mean_neg = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (labels[i] > 0.0) {
      mean_pos += loo[i];
    } else {
      mean_neg += loo[i];
    }
  }
  mean_pos /= static_cast<double>(positives.size());
  mean_neg /= static_cast<double>(negatives.size());
  threshold_ = 0.5 * (mean_pos + mean_neg);
}

WaveformModel::QualityEstimate WaveformModel::estimate_quality() const {
  if (!trained()) throw std::logic_error("estimate_quality: not trained");
  const linalg::Vector& loo = ridge_.loo_decisions();
  if (loo.empty() || trained_positives_ == 0 ||
      trained_positives_ >= loo.size()) {
    throw std::logic_error(
        "estimate_quality: LOO diagnostics unavailable (deserialised "
        "model?)");
  }
  QualityEstimate q;
  std::size_t accepted_pos = 0, rejected_neg = 0;
  for (std::size_t i = 0; i < loo.size(); ++i) {
    const bool accepted = loo[i] - threshold_ >= 0.0;
    if (i < trained_positives_) {
      accepted_pos += accepted ? 1 : 0;
    } else {
      rejected_neg += accepted ? 0 : 1;
    }
  }
  q.estimated_accuracy = static_cast<double>(accepted_pos) /
                         static_cast<double>(trained_positives_);
  q.estimated_trr = static_cast<double>(rejected_neg) /
                    static_cast<double>(loo.size() - trained_positives_);
  return q;
}

WaveformModel::LooScores WaveformModel::loo_scores() const {
  LooScores scores;
  if (!trained()) return scores;
  const linalg::Vector& loo = ridge_.loo_decisions();
  if (loo.empty() || trained_positives_ == 0 ||
      trained_positives_ >= loo.size()) {
    return scores;  // deserialised model: no LOO diagnostics
  }
  scores.genuine.reserve(trained_positives_);
  scores.imposter.reserve(loo.size() - trained_positives_);
  for (std::size_t i = 0; i < loo.size(); ++i) {
    const double adjusted = loo[i] - threshold_;
    if (i < trained_positives_) {
      scores.genuine.push_back(adjusted);
    } else {
      scores.imposter.push_back(adjusted);
    }
  }
  return scores;
}

WaveformModel WaveformModel::from_parts(ml::MultiChannelMiniRocket rocket,
                                        linalg::RidgeClassifier ridge,
                                        double threshold) {
  if (!rocket.fitted() || !ridge.trained()) {
    throw std::invalid_argument("WaveformModel::from_parts: untrained parts");
  }
  if (rocket.num_features() != ridge.weights().size()) {
    throw std::invalid_argument(
        "WaveformModel::from_parts: feature/weight size mismatch");
  }
  WaveformModel model;
  model.rocket_ = std::move(rocket);
  model.ridge_ = std::move(ridge);
  model.threshold_ = threshold;
  return model;
}

double WaveformModel::decision(const std::vector<Series>& waveform) const {
  // Reuse one feature buffer per thread so steady-state scoring does not
  // allocate; its size tracks the largest model scored on this thread.
  thread_local linalg::Vector features;
  return decision(waveform, ml::thread_transform_scratch(), features);
}

double WaveformModel::decision(const std::vector<Series>& waveform,
                               ml::TransformScratch& scratch,
                               linalg::Vector& features) const {
  if (!trained()) throw std::logic_error("WaveformModel: not trained");
  features.resize(rocket_.num_features());
  rocket_.transform_into(waveform, features, scratch);
  return ridge_.decision(features) - threshold_;
}

bool WaveformModel::accept(const std::vector<Series>& waveform) const {
  return decision(waveform) >= 0.0;
}

linalg::Vector WaveformModel::decisions(
    const std::vector<std::vector<Series>>& batch,
    std::size_t max_threads) const {
  if (!trained()) throw std::logic_error("WaveformModel: not trained");
  const linalg::Matrix features = rocket_.transform(batch, max_threads);
  linalg::Vector out(batch.size(), 0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i] = ridge_.decision(features.row(i)) - threshold_;
  }
  return out;
}

bool EnrolledUser::has_key_model(char digit) const {
  const std::size_t k = keystroke::key_index(digit);
  return key_models[k].has_value() && key_models[k]->trained();
}

ExtractedEntry extract_observation(const Observation& obs,
                                   const EnrollmentConfig& config) {
  const PreprocessedEntry pre = preprocess_entry(obs, config.preprocess);
  ExtractedEntry out;
  // Anchor the full waveform at the first *detected* keystroke; if none
  // was detected (degenerate enrollment data), fall back to the first
  // calibrated index.
  std::size_t first = pre.calibrated_indices.empty()
                          ? 0
                          : pre.calibrated_indices.front();
  for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
    if (pre.keystroke_present[i]) {
      first = pre.calibrated_indices[i];
      break;
    }
  }
  out.full = extract_full_waveform(pre.filtered, first, pre.rate_hz,
                                   config.segmentation);
  for (std::size_t i = 0; i < pre.calibrated_indices.size(); ++i) {
    if (!pre.keystroke_present[i]) continue;
    out.segments.push_back(extract_segment(pre.filtered,
                                           pre.calibrated_indices[i],
                                           pre.rate_hz, config.segmentation));
    out.segment_digits.push_back(obs.entry.pin.at(i));
  }
  return out;
}

std::vector<ExtractedEntry> extract_observations(
    const std::vector<Observation>& observations,
    const EnrollmentConfig& config, std::size_t max_threads) {
  std::vector<ExtractedEntry> out(observations.size());
  try {
    util::parallel_for(
        observations.size(), /*chunk=*/1,
        [&](std::size_t i) {
          out[i] = extract_observation(observations[i], config);
        },
        max_threads);
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  return out;
}

void add_key_segments(const ExtractedEntry& entry, KeySegments& by_key) {
  for (std::size_t s = 0; s < entry.segments.size(); ++s) {
    by_key[keystroke::key_index(entry.segment_digits[s])].push_back(
        entry.segments[s]);
  }
}

std::vector<std::vector<Series>> key_model_negatives(
    std::size_t key, std::size_t positives,
    const std::vector<ExtractedEntry>& pool) {
  std::vector<std::vector<Series>> negatives;
  if (positives < kMinKeyPositives) return negatives;
  for (const ExtractedEntry& e : pool) {
    for (std::size_t s = 0; s < e.segments.size(); ++s) {
      if (keystroke::key_index(e.segment_digits[s]) == key) {
        negatives.push_back(e.segments[s]);
      }
    }
  }
  for (const ExtractedEntry& e : pool) {
    for (std::size_t s = 0;
         s < e.segments.size() && negatives.size() < kKeyNegatives; ++s) {
      negatives.push_back(e.segments[s]);
    }
  }
  return negatives;
}

EnrolledUser enroll_user(const keystroke::Pin& pin,
                         const std::vector<Observation>& positives,
                         const std::vector<Observation>& negatives,
                         const EnrollmentConfig& config) {
  if (positives.empty()) {
    throw std::invalid_argument("enroll_user: no enrollment entries");
  }
  if (negatives.empty()) {
    throw std::invalid_argument("enroll_user: no third-party data");
  }
  return enroll_user(pin, positives, extract_observations(negatives, config),
                     config);
}

EnrolledUser enroll_user(const keystroke::Pin& pin,
                         const std::vector<Observation>& positives,
                         const std::vector<ExtractedEntry>& neg,
                         const EnrollmentConfig& config) {
  if (positives.empty()) {
    throw std::invalid_argument("enroll_user: no enrollment entries");
  }
  if (neg.empty()) {
    throw std::invalid_argument("enroll_user: no third-party data");
  }

  EnrolledUser user;
  user.pin = pin;
  user.privacy_boost = config.privacy_boost;
  util::Rng rng(config.seed, 0xe17011e4d0ULL);

  // Extract the user's own entries; the third-party pool arrives already
  // extracted (shared across users in evaluation sweeps).
  const std::vector<ExtractedEntry> pos =
      extract_observations(positives, config);

  // --- Full-waveform model (one-handed case). ---
  if (config.train_full_model) {
    std::vector<std::vector<Series>> p, n;
    for (const auto& e : pos) p.push_back(e.full);
    for (const auto& e : neg) n.push_back(e.full);
    user.stats.full_positives = p.size();
    user.stats.full_negatives = n.size();
    WaveformModel model;
    util::Rng model_rng = rng.fork("full");
    model.train(p, n, config.rocket, config.ridge, model_rng,
                config.recenter_threshold);
    user.full_model = std::move(model);
  }

  // --- Privacy-boost model: fused single-keystroke waveforms. ---
  if (config.privacy_boost) {
    std::vector<std::vector<Series>> p, n;
    for (const auto& e : pos) {
      if (!e.segments.empty()) p.push_back(fuse_segments(e.segments));
    }
    for (const auto& e : neg) {
      if (!e.segments.empty()) n.push_back(fuse_segments(e.segments));
    }
    if (p.empty() || n.empty()) {
      throw std::invalid_argument(
          "enroll_user: privacy boost requires detectable keystrokes");
    }
    WaveformModel model;
    util::Rng model_rng = rng.fork("boost");
    model.train(p, n, config.rocket, config.ridge, model_rng,
                config.recenter_threshold);
    user.boost_model = std::move(model);
  }

  // --- Single-waveform models b_k (two-handed / no-PIN cases). ---
  if (config.train_single_models) {
    KeySegments pos_by_key;
    for (const auto& e : pos) {
      add_key_segments(e, pos_by_key);
      user.stats.segment_positives += e.segments.size();
    }
    for (const auto& e : neg) {
      user.stats.segment_negatives += e.segments.size();
    }
    // First pass (serial): build the negative sets of the keys that
    // train (key_model_negatives) and fork their RNG streams — forking
    // mutates the parent generator, so the fork order must stay exactly
    // the serial one for reproducibility.
    struct KeyTask {
      std::size_t key = 0;
      std::vector<std::vector<Series>> negatives;
      util::Rng rng;
    };
    std::vector<KeyTask> tasks;
    for (std::size_t k = 0; k < 10; ++k) {
      std::vector<std::vector<Series>> n =
          key_model_negatives(k, pos_by_key[k].size(), neg);
      if (n.empty()) continue;
      tasks.push_back(
          KeyTask{k, std::move(n), rng.fork(0x6b657900ULL + k)});
    }
    // Second pass: the per-key models are independent, so train them in
    // parallel on the shared pool (inline when enrollment itself already
    // runs inside a pool task, e.g. under run_experiment's user sweep).
    try {
      util::parallel_for(tasks.size(), /*chunk=*/1, [&](std::size_t t) {
        KeyTask& task = tasks[t];
        WaveformModel model;
        model.train(pos_by_key[task.key], task.negatives, config.rocket,
                    config.ridge, task.rng, config.recenter_threshold);
        user.key_models[task.key] = std::move(model);
      });
    } catch (const util::ParallelForError& e) {
      e.rethrow_cause();
    }
    user.stats.key_models_trained += tasks.size();
  }

  // --- Enrollment-time score baseline for the drift monitor: the
  // trained waveform models' threshold-adjusted leave-one-out decisions
  // (honest held-out scores, the same diagnostics estimate_quality
  // reads).  The live feed observes waveform-model scores, so the
  // baseline pools only those; per-key models contribute only in no-PIN
  // setups that train nothing else. ---
  auto fold_baseline = [&user](const WaveformModel& model) {
    const WaveformModel::LooScores scores = model.loo_scores();
    for (const double s : scores.genuine) user.score_baseline.genuine.add(s);
    for (const double s : scores.imposter) {
      user.score_baseline.imposter.add(s);
    }
  };
  if (user.full_model) fold_baseline(*user.full_model);
  if (user.boost_model) fold_baseline(*user.boost_model);
  if (!user.full_model && !user.boost_model) {
    for (const auto& key_model : user.key_models) {
      if (key_model) fold_baseline(*key_model);
    }
  }
  return user;
}

}  // namespace p2auth::core

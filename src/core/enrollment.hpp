// Enrollment Phase (paper section IV-B 2): builds the per-user
// authentication models.
//
// Legitimate-user identification is a binary classification problem: the
// training set mixes the user's own enrollment entries (positive class)
// with third-party data stored on the phone (negative class, paper
// default: 100 samples).  Three model families are trained:
//
//   * full-waveform model  — one-handed authentication (whole 4-keystroke
//     PPG window);
//   * boost model          — one-handed with privacy boost: the additive
//     fusion of the four single-keystroke waveforms (Eq. 4);
//   * single-waveform models b_k — one binary classifier per PIN digit,
//     used for two-handed and no-PIN authentication.
//
// Every model is a MiniRocket transform + ridge classifier with
// cross-validated regularisation, exactly the paper's pairing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/preprocess.hpp"
#include "core/segmentation.hpp"
#include "core/types.hpp"
#include "linalg/ridge.hpp"
#include "ml/minirocket.hpp"
#include "obs/drift.hpp"
#include "util/rng.hpp"

namespace p2auth::core {

// One trained (MiniRocket, ridge) pair over multi-channel waveforms.
class WaveformModel {
 public:
  WaveformModel() = default;

  // Trains on positive and negative multi-channel waveforms (all must
  // agree in shape).  Throws std::invalid_argument if either class is
  // empty.  `recenter_threshold` selects the operating point: true (the
  // default) places it at the midpoint of the class-mean leave-one-out
  // decisions, compensating the positive/negative imbalance of the
  // enrollment mix; false keeps the raw zero threshold of Eq. (9)
  // (sklearn RidgeClassifierCV behaviour, used for the Fig. 14 ablation).
  void train(const std::vector<std::vector<Series>>& positives,
             const std::vector<std::vector<Series>>& negatives,
             const ml::MiniRocketOptions& rocket_options,
             const linalg::RidgeOptions& ridge_options, util::Rng& rng,
             bool recenter_threshold = true);

  bool trained() const noexcept { return ridge_.trained(); }

  // Signed decision value (positive => legitimate user).  The
  // convenience overload routes through the calling thread's reusable
  // MiniRocket scratch, so repeated scoring on one thread reaches a
  // zero-allocation steady state.
  double decision(const std::vector<Series>& waveform) const;
  // Explicit-workspace variant for callers scoring many waveforms in one
  // attempt (the authenticator's per-keystroke vote loop): `features` is
  // resized to num_features and reused across calls.
  double decision(const std::vector<Series>& waveform,
                  ml::TransformScratch& scratch,
                  linalg::Vector& features) const;
  bool accept(const std::vector<Series>& waveform) const;

  // Scores a batch through the tiled MiniRocket batch engine; decisions
  // are bit-identical to per-waveform `decision` for any thread count.
  linalg::Vector decisions(const std::vector<std::vector<Series>>& batch,
                           std::size_t max_threads = 0) const;

  const ml::MultiChannelMiniRocket& rocket() const noexcept { return rocket_; }
  const linalg::RidgeClassifier& ridge() const noexcept { return ridge_; }
  // Operating-point shift applied to the raw ridge decision (midpoint of
  // the training class-mean decisions; compensates class imbalance).
  double threshold() const noexcept { return threshold_; }

  // Reassembles a model from persisted parts (see io/binary.hpp).
  static WaveformModel from_parts(ml::MultiChannelMiniRocket rocket,
                                  linalg::RidgeClassifier ridge,
                                  double threshold);

  // Enrollment-quality feedback estimated from the leave-one-out decision
  // values (available right after train(), before any test data exists):
  // what fraction of held-out positives/negatives the chosen operating
  // point classifies correctly.  A device uses this to tell the user
  // "enrollment weak, please re-enter" (fit-time only; not persisted).
  struct QualityEstimate {
    double estimated_accuracy = 0.0;  // held-out positives accepted
    double estimated_trr = 0.0;       // held-out negatives rejected
  };
  // Throws std::logic_error when called on a deserialised model (the LOO
  // diagnostics exist only on the freshly trained instance).
  QualityEstimate estimate_quality() const;

  // Threshold-adjusted held-out decision values from training (>= 0
  // accepts): the leave-one-out decision of each enrollment sample minus
  // the chosen operating point, split by true class.  These seed the
  // drift monitor's enrollment-time score baseline.  Empty on
  // deserialised models (no LOO diagnostics survive persistence).
  struct LooScores {
    std::vector<double> genuine;   // held-out positives
    std::vector<double> imposter;  // held-out negatives
  };
  LooScores loo_scores() const;

 private:
  ml::MultiChannelMiniRocket rocket_;
  linalg::RidgeClassifier ridge_;
  double threshold_ = 0.0;
  std::size_t trained_positives_ = 0;  // fit-time only, for quality
};

struct EnrollmentConfig {
  PreprocessOptions preprocess{};
  SegmentationOptions segmentation{};
  ml::MiniRocketOptions rocket{};
  linalg::RidgeOptions ridge{};
  // Train the optional privacy-boost model (one-handed fusion).
  bool privacy_boost = false;
  bool train_full_model = true;
  bool train_single_models = true;
  // Operating-point handling; see WaveformModel::train.
  bool recenter_threshold = true;
  std::uint64_t seed = 99;
};

struct EnrollmentStats {
  std::size_t full_positives = 0;
  std::size_t full_negatives = 0;
  std::size_t segment_positives = 0;
  std::size_t segment_negatives = 0;
  std::size_t key_models_trained = 0;
};

// The longest PIN the model store holds (P2MDL001's io::kMaxPinBytes);
// the streaming front end bounds a typed PIN by it.
inline constexpr std::size_t kMaxPinDigits = 64;

// A registered user: their PIN (empty = no-PIN mode) and trained models.
struct EnrolledUser {
  keystroke::Pin pin;
  bool privacy_boost = false;
  std::optional<WaveformModel> full_model;
  std::optional<WaveformModel> boost_model;
  // Index = digit ('0'..'9'); engaged only for digits with training data.
  std::array<std::optional<WaveformModel>, 10> key_models;
  EnrollmentStats stats;
  // Caller-assigned identity carried into audit records (0 = unset).
  std::uint32_t user_id = 0;
  // Enrollment-time decision-score distributions (threshold-adjusted LOO
  // decisions pooled across the trained models) — the reference the
  // online drift monitor compares live scores against.  Empty for users
  // reassembled from persisted models.
  obs::ScoreBaseline score_baseline;

  bool has_key_model(char digit) const;
};

// Per-entry extraction product shared by the three model families; also
// the unit of reuse for callers that enroll many users against one
// third-party pool (extraction depends only on preprocess/segmentation
// options, so a pool extracted once can serve every user).
struct ExtractedEntry {
  std::vector<Series> full;                   // fixed-span full waveform
  std::vector<std::vector<Series>> segments;  // per detected keystroke
  std::vector<char> segment_digits;           // digit of each segment
};

// Runs preprocessing + segmentation on one observation using the
// enrollment config's preprocess/segmentation options.
ExtractedEntry extract_observation(const Observation& obs,
                                   const EnrollmentConfig& config);

// extract_observation over a batch on the shared thread pool: entry i is
// observations[i]'s, bit-identical for any thread count.  `max_threads`
// follows the util::parallel_for convention (0 = the resolve_threads
// default).  A malformed observation throws extract_observation's own
// exception (std::invalid_argument), not util::ParallelForError.
std::vector<ExtractedEntry> extract_observations(
    const std::vector<Observation>& observations,
    const EnrollmentConfig& config, std::size_t max_threads = 0);

// Segments grouped by digit: slot k holds the segments typed on key k.
using KeySegments = std::array<std::vector<std::vector<Series>>, 10>;

// Appends each of `entry`'s segments to its digit's slot.
void add_key_segments(const ExtractedEntry& entry, KeySegments& by_key);

// The training recipe of the single-waveform model b_k, shared by
// enrollment and the template adapter's committee refresh.  Digit `key`'s
// model trains only with at least kMinKeyPositives positive segments.
// Its negatives are `pool`'s segments of the same key (the model must
// separate *who* pressed the key, not *which* key), topped up in pool
// order with segments of any key to kKeyNegatives when the pool is thin.
// Returns the negatives, or none when the model must not train.
inline constexpr std::size_t kMinKeyPositives = 2;
inline constexpr std::size_t kKeyNegatives = 20;
std::vector<std::vector<Series>> key_model_negatives(
    std::size_t key, std::size_t positives,
    const std::vector<ExtractedEntry>& pool);

// Enrolls a user from their own entries (`positives`) and the third-party
// pool (`negatives`).  For the standard mode, positives should all enter
// `pin`; for the no-PIN mode pass an empty `pin` and positives covering
// the digits the user will later type.
EnrolledUser enroll_user(const keystroke::Pin& pin,
                         const std::vector<Observation>& positives,
                         const std::vector<Observation>& negatives,
                         const EnrollmentConfig& config);

// Same, with the third-party pool already extracted (must have come from
// `extract_observation` with identical preprocess/segmentation options).
// Produces bit-identical models to the Observation overload.
EnrolledUser enroll_user(const keystroke::Pin& pin,
                         const std::vector<Observation>& positives,
                         const std::vector<ExtractedEntry>& negatives,
                         const EnrollmentConfig& config);

}  // namespace p2auth::core

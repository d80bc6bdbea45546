#include "core/adapt.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace p2auth::core {

namespace {

// True when every assessed channel stayed healthy (full-evidence attempt).
bool full_channel_evidence(const AuthResult& result) noexcept {
  if (result.channels_assessed == 0) return false;
  const std::uint32_t all =
      (result.channels_assessed >= 32)
          ? ~0u
          : ((1u << result.channels_assessed) - 1u);
  return (result.channel_mask & all) == all;
}

std::size_t accept_count(const WaveformModel& model,
                         const std::vector<std::vector<Series>>& batch) {
  if (batch.empty()) return 0;
  const linalg::Vector scores = model.decisions(batch);
  std::size_t accepted = 0;
  for (const double s : scores) accepted += s >= 0.0 ? 1 : 0;
  return accepted;
}

double median_decision(const WaveformModel& model,
                       const std::vector<std::vector<Series>>& batch) {
  const linalg::Vector scores = model.decisions(batch);
  std::vector<double> v(scores.begin(), scores.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Smallest clean cut `c` such that exactly k of `scores` are >= c
// (midpoint between the bordering scores, so the count is stable against
// floating-point re-association).
double midpoint_cut(std::vector<double> scores, std::size_t k) {
  std::sort(scores.begin(), scores.end(), std::greater<double>());
  if (k == 0) {
    return scores.front() + std::max(1e-6, 0.05 * std::abs(scores.front()));
  }
  if (k >= scores.size()) {
    return scores.back() - std::max(1e-6, 0.05 * std::abs(scores.back()));
  }
  return 0.5 * (scores[k - 1] + scores[k]);
}

// Operating-point shift of a retrained model (see try_refresh): pinned so
// the anchors keep `anchor_margin`, their median margin under the
// enrolled model, and clamped so the shifted model accepts no more of
// `negatives` than the outgoing model's `outgoing_accepts`.
double calibration_shift(const WaveformModel& trained,
                         const std::vector<std::vector<Series>>& anchors,
                         double anchor_margin,
                         const std::vector<std::vector<Series>>& negatives,
                         std::size_t outgoing_accepts) {
  const linalg::Vector decisions = trained.decisions(negatives);
  const double delta_pool = midpoint_cut(
      std::vector<double>(decisions.begin(), decisions.end()),
      outgoing_accepts);
  const double delta_genuine =
      median_decision(trained, anchors) - anchor_margin;
  return std::max(delta_genuine, delta_pool);
}

}  // namespace

TemplateAdapter::TemplateAdapter(EnrolledUser user,
                                 std::vector<Observation> enrollment_anchors,
                                 std::vector<ExtractedEntry> negative_pool,
                                 AdaptOptions options)
    : user_(std::move(user)),
      negative_pool_(std::move(negative_pool)),
      options_(std::move(options)),
      drift_(user_.score_baseline, options_.drift) {
  if (!user_.full_model || !user_.full_model->trained()) {
    throw std::invalid_argument(
        "TemplateAdapter: user has no trained full-waveform model");
  }
  if (!user_.score_baseline.valid()) {
    throw std::invalid_argument(
        "TemplateAdapter: user has no enrollment score baseline (needed "
        "for the admission margin; re-enroll rather than adapt "
        "deserialised models)");
  }
  if (enrollment_anchors.empty()) {
    throw std::invalid_argument(
        "TemplateAdapter: enrollment anchors required (they pin the "
        "retrain set to the enrolled identity)");
  }
  if (negative_pool_.empty()) {
    throw std::invalid_argument(
        "TemplateAdapter: third-party negative pool required (retrain "
        "negatives + poisoning-guard probe set)");
  }
  const std::vector<ExtractedEntry> anchors =
      extract_observations(enrollment_anchors, options_.enrollment);
  anchor_fulls_.reserve(anchors.size());
  for (const ExtractedEntry& entry : anchors) {
    anchor_fulls_.push_back(entry.full);
    add_key_segments(entry, anchor_segments_);
  }
  // Enrollment-time operating-point reference: the median decision of
  // the enrolled model over its own anchors.  Every refresh is
  // calibrated back to this fixed target (not to the previous
  // refresh's), so repeated adaptation cannot ratchet the operating
  // point in either direction, and the reference is measured on real
  // batch decisions of a fixed set — immune to the optimism of LOO
  // scores over margin-filtered candidates.
  enrolled_anchor_margin_ = median_decision(*user_.full_model, anchor_fulls_);
  // The same fixed reference per committee member, over the enrolled
  // anchor segments of its key.
  for (std::size_t k = 0; k < 10; ++k) {
    const std::optional<WaveformModel>& km = user_.key_models[k];
    if (!km || !km->trained() || anchor_segments_[k].empty()) continue;
    enrolled_key_margin_[k] = median_decision(*km, anchor_segments_[k]);
  }
}

double TemplateAdapter::admission_margin() const {
  return user_.score_baseline.genuine.quantile(options_.margin_quantile);
}

AuthResult TemplateAdapter::attempt(const Observation& obs, Truth truth) {
  ++stats_.attempts;
  if (stale_) {
    // Decided without scoring against models known to be bad.
    AuthResult result;
    result.reason = RejectReason::kTemplateStale;
    ++stats_.stale_rejects;
    commit_decision(user_.user_id, result);
    return result;
  }

  const AuthResult result = authenticate(user_, obs, options_.auth);
  feed_drift(drift_, result, truth);
  admit_if_eligible(obs, result);
  update_staleness();
  return result;
}

void TemplateAdapter::admit_if_eligible(const Observation& obs,
                                        const AuthResult& result) {
  ++attempts_since_admission_;
  // Only full-evidence, one-handed, full-waveform accepts are candidate
  // material: that is the model being adapted, scored on exactly the
  // evidence shape it trains on.
  if (!result.accepted || result.detected_case != DetectedCase::kOneHanded ||
      result.model_path != ModelPath::kFullWaveform ||
      !full_channel_evidence(result)) {
    return;
  }
  if (result.waveform_score < admission_margin()) {
    ++stats_.rejected_margin;
    obs::add_counter("adapt.candidate.rejected_margin");
    return;
  }
  // Quality gate: the channel-health assessment must find every channel
  // usable on the raw trace (degraded evidence never trains, even if the
  // pipeline scored it).
  const ChannelHealth health = assess_channels(obs.trace, options_.quality);
  if (health.usable_count() != obs.trace.num_channels()) {
    ++stats_.rejected_quality;
    obs::add_counter("adapt.candidate.rejected_quality");
    return;
  }
  ExtractedEntry entry = extract_observation(obs, options_.enrollment);
  if (!candidate_consensus(entry)) {
    ++stats_.rejected_consensus;
    obs::add_counter("adapt.candidate.rejected_consensus");
    return;
  }
  candidates_.push_back(std::move(entry));
  while (candidates_.size() > options_.candidate_capacity) {
    candidates_.pop_front();
  }
  ++stats_.admitted;
  attempts_since_admission_ = 0;
  stale_ = false;
  obs::add_counter("adapt.candidate.admitted");
}

bool TemplateAdapter::candidate_consensus(const ExtractedEntry& entry) const {
  // Each single-keystroke committee member votes on its own segment.
  // Members refresh only inside an accepted guarded refresh, trained
  // solely on segments the previous committee itself admitted
  // (refresh_key_models), so the gate tracks honest drift while staying
  // chained to the enrolled identity.
  std::size_t voters = 0, votes = 0;
  const std::size_t n =
      std::min(entry.segments.size(), entry.segment_digits.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char digit = entry.segment_digits[i];
    if (digit < '0' || digit > '9') continue;
    const std::optional<WaveformModel>& km =
        user_.key_models[static_cast<std::size_t>(digit - '0')];
    if (!km || !km->trained()) continue;
    ++voters;
    votes += km->accept(entry.segments[i]) ? 1 : 0;
  }
  if (voters == 0) return true;  // no key models enrolled: gate disabled
  return static_cast<double>(votes) >
         options_.consensus_fraction * static_cast<double>(voters);
}

void TemplateAdapter::force_candidate(const Observation& obs) {
  candidates_.push_back(extract_observation(obs, options_.enrollment));
  while (candidates_.size() > options_.candidate_capacity) {
    candidates_.pop_front();
  }
  obs::add_counter("adapt.candidate.forced");
}

void TemplateAdapter::update_staleness() {
  if (stale_) return;
  if (attempts_since_admission_ < kStaleAttemptWindow) return;
  for (const obs::DriftAlert& alert : drift_.check()) {
    if (alert.kind == obs::DriftAlertKind::kEstimatedFrrRising) {
      stale_ = true;
      obs::add_counter("adapt.stale_declared");
      return;
    }
  }
}

std::vector<std::vector<Series>> TemplateAdapter::negative_fulls() const {
  std::vector<std::vector<Series>> fulls;
  fulls.reserve(negative_pool_.size());
  for (const ExtractedEntry& e : negative_pool_) fulls.push_back(e.full);
  return fulls;
}

RefreshOutcome TemplateAdapter::try_refresh() {
  const WaveformModel& current = *user_.full_model;

  // Guard 3 (re-validation): re-score every buffered candidate with the
  // *outgoing* model and evict those below the admission margin or
  // failing the per-key consensus vote.  A candidate that reached the
  // buffer without genuinely clearing the gates (compromised ingest,
  // model rolled forward since admission) dies here before it can train
  // anything.
  const double margin = admission_margin();
  for (std::size_t i = candidates_.size(); i-- > 0;) {
    if (current.decision(candidates_[i].full) < margin ||
        !candidate_consensus(candidates_[i])) {
      candidates_.erase(candidates_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      ++stats_.revalidation_evicted;
      obs::add_counter("adapt.candidate.evicted");
    }
  }
  if (candidates_.size() < options_.min_candidates) {
    return RefreshOutcome::kNotReady;
  }

  // Sliding positive window: every anchor (the enrolled identity never
  // leaves the training set), topped with the newest candidates.
  std::vector<std::vector<Series>> positives = anchor_fulls_;
  const std::size_t room =
      options_.max_positives > positives.size()
          ? options_.max_positives - positives.size()
          : 0;
  const std::size_t take = std::min(room, candidates_.size());
  for (std::size_t i = candidates_.size() - take; i < candidates_.size();
       ++i) {
    positives.push_back(candidates_[i].full);
  }
  const std::vector<std::vector<Series>> negatives = negative_fulls();

  // Deterministic retrain stream: (enrollment seed, refresh ordinal).
  util::Rng rng(options_.enrollment.seed ^ (0xada9700ULL + refresh_count_),
                0xe17011e4d0ULL);
  ++refresh_count_;
  WaveformModel trained;
  util::Rng model_rng = rng.fork("full");
  trained.train(positives, negatives, options_.enrollment.rocket,
                options_.enrollment.ridge, model_rng,
                options_.enrollment.recenter_threshold);
  const WaveformModel::LooScores loo = trained.loo_scores();

  // Operating-point calibration.  The retrain recenters its threshold at
  // the LOO midpoint, which creeps stricter as margin-filtered
  // candidates tighten the genuine class (silently raising FRR with
  // every refresh) — but calibrating purely against the third-party
  // pool is too loose (an emulating attacker lives in the score gap
  // between third parties and the genuine user).  So the shift `delta`
  // is pinned on the genuine side and clamped on the imposter side:
  //
  //   * genuine anchor: shift so the fixed enrollment anchors score the
  //     same *median* margin under the refreshed model as they did under
  //     the originally enrolled model (reference fixed at construction;
  //     no refresh-over-refresh drift);
  //   * FAR clamp: never below the smallest shift at which the refreshed
  //     model accepts no more third-party pool samples than the
  //     outgoing model does (midpoint between the bordering pool
  //     decisions, so the count is stable against floating-point
  //     re-association).
  const std::size_t old_neg = accept_count(current, negatives);
  const double delta = calibration_shift(
      trained, anchor_fulls_, enrolled_anchor_margin_, negatives, old_neg);
  WaveformModel refreshed = WaveformModel::from_parts(
      trained.rocket(), trained.ridge(), trained.threshold() + delta);

  // Guard 4: behavioural check on the retained probe sets.  The FAR
  // proxy (third-party acceptance) must never rise, and the enrolled
  // anchors must not start failing — either means the boundary moved
  // toward somebody who is not the enrolled user.
  const std::size_t new_neg = accept_count(refreshed, negatives);
  const std::size_t old_anchor = accept_count(current, anchor_fulls_);
  const std::size_t new_anchor = accept_count(refreshed, anchor_fulls_);
  if (new_neg > old_neg || new_anchor < old_anchor) {
    // Poisoned or destabilising update: drop the model *and* the buffer
    // that produced it (its contents are suspect by construction).
    candidates_.clear();
    ++stats_.rollbacks;
    obs::add_counter("adapt.rollback");
    return RefreshOutcome::kRolledBack;
  }

  previous_ = Snapshot{current, user_.score_baseline, user_.key_models};
  user_.full_model = std::move(refreshed);

  // The calibration shift moves every threshold-adjusted score by
  // -delta; apply it to the LOO scores so the rebuilt baseline matches
  // what the deployed (calibrated) model will actually emit.
  obs::ScoreBaseline baseline;
  for (const double s : loo.genuine) baseline.genuine.add(s - delta);
  for (const double s : loo.imposter) baseline.imposter.add(s - delta);
  user_.score_baseline = baseline;
  reseed_drift(std::move(baseline));

  // Committee co-adaptation: the consensus voters refresh on the same
  // admitted window, each under its own calibration and FAR clamp.
  refresh_key_models(candidates_.size() - take, rng);

  candidates_.clear();
  stale_ = false;
  attempts_since_admission_ = 0;
  ++stats_.refreshes;
  obs::add_counter("adapt.refresh");
  return RefreshOutcome::kRefreshed;
}

void TemplateAdapter::refresh_key_models(std::size_t window_begin,
                                         util::Rng& rng) {
  // Positives per key: enrolled anchor segments (never leave the
  // training set) plus the segments of the candidates that survived
  // re-validation under the *previous* committee — the chain of
  // admissions is what anchors the committee to the enrolled identity.
  // Negatives follow enrollment's per-key recipe over the pool.
  KeySegments key_pos = anchor_segments_;
  for (std::size_t i = window_begin; i < candidates_.size(); ++i) {
    add_key_segments(candidates_[i], key_pos);
  }
  for (std::size_t k = 0; k < 10; ++k) {
    std::optional<WaveformModel>& member = user_.key_models[k];
    // Committee membership is fixed at enrollment: refreshes replace
    // members, they never seat new ones.
    if (!member || !member->trained() || anchor_segments_[k].empty()) {
      continue;
    }
    const std::vector<std::vector<Series>> negatives =
        key_model_negatives(k, key_pos[k].size(), negative_pool_);
    if (negatives.empty()) continue;
    WaveformModel trained;
    util::Rng key_rng = rng.fork(0x6b657900ULL + k);
    trained.train(key_pos[k], negatives, options_.enrollment.rocket,
                  options_.enrollment.ridge, key_rng,
                  options_.enrollment.recenter_threshold);
    // Same calibration discipline as the full model: pin the member's
    // vote boundary so the enrolled anchor segments keep their enrolled
    // median margin, clamped so it accepts no more of its negative
    // probe set than the member it replaces.
    const std::size_t old_neg = accept_count(*member, negatives);
    const double delta =
        calibration_shift(trained, anchor_segments_[k],
                          enrolled_key_margin_[k], negatives, old_neg);
    WaveformModel calibrated = WaveformModel::from_parts(
        trained.rocket(), trained.ridge(), trained.threshold() + delta);
    // Per-member guard (belt to the calibration's braces): a member that
    // would raise its own FAR proxy is discarded, the seat keeps its
    // previous occupant.
    if (accept_count(calibrated, negatives) > old_neg) continue;
    *member = std::move(calibrated);
    ++stats_.key_models_refreshed;
    obs::add_counter("adapt.key_model.refreshed");
  }
}

bool TemplateAdapter::rollback_last_refresh() {
  if (!previous_) return false;
  user_.full_model = std::move(previous_->model);
  user_.score_baseline = previous_->baseline;
  user_.key_models = std::move(previous_->key_models);
  reseed_drift(std::move(previous_->baseline));
  previous_.reset();
  obs::add_counter("adapt.manual_rollback");
  return true;
}

void TemplateAdapter::reseed_drift(obs::ScoreBaseline baseline) {
  drift_ = obs::DriftMonitor(std::move(baseline), options_.drift);
}

}  // namespace p2auth::core

#include "ledger.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "core/preprocess.hpp"
#include "core/quality.hpp"
#include "core/segmentation.hpp"
#include "keystroke/events.hpp"
#include "keystroke/pinpad.hpp"
#include "service/checksum.hpp"
#include "signal/detrend.hpp"
#include "signal/energy.hpp"
#include "signal/filters.hpp"
#include "signal/peaks.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace p2auth;

// ---- SpanLog ---------------------------------------------------------------

void SpanLog::add(const char* name, const char* parent, std::uint64_t request,
                  Clock::time_point start, Clock::time_point end) {
  if (!enabled()) return;
  Event e;
  e.name = name;
  e.parent = parent;
  e.request = request;
  e.thread = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  e.start_us = us_between(origin_, start);
  e.dur_us = us_between(start, end);
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(e);
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Event& e : events_) {
    if (name == e.name) out.push_back(e.dur_us);
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 std::size_t max_events) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[\n";
  const std::size_t n = std::min(max_events, events_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << e.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << e.thread << ",\"ts\":" << e.start_us << ",\"dur\":" << e.dur_us
        << ",\"args\":{\"request\":" << e.request << ",\"parent\":\""
        << e.parent << "\"}}";
  }
  out << "\n]}\n";
}

// ---- TimedSource -----------------------------------------------------------

std::optional<core::EnrolledUser> TimedSource::load(std::string_view name) {
  loads_.fetch_add(1, std::memory_order_relaxed);
  return timed(log_, "io.materialize", "service.worker", 0,
               [&] { return inner_->load(name); });
}

// ---- authentication ledger -------------------------------------------------

const char* path_slug(AuthPath path) {
  switch (path) {
    case AuthPath::kFull:
      return "full";
    case AuthPath::kPerKey:
      return "per_key";
    case AuthPath::kDecidedEarly:
      return "decided_early";
  }
  return "?";
}

namespace {

// preprocess_entry's rule for scaling a 100 Hz sample count to the trace
// rate (odd when `keep_odd`).
std::size_t scaled(std::size_t count_100hz, double rate_hz, bool keep_odd) {
  auto s = static_cast<std::size_t>(std::max(
      1.0, std::round(static_cast<double>(count_100hz) * rate_hz / 100.0)));
  if (keep_odd && s % 2 == 0) ++s;
  return s;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_waveform(const std::vector<core::Series>& a,
                   const std::vector<core::Series>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (!same_bits(a[c], b[c])) return false;
  }
  return true;
}

// Re-runs preprocess_entry's stages one public call at a time and checks
// the intermediate products against `pre`.  Returns false on divergence.
bool drill_preprocess(SpanLog& log, std::uint64_t request,
                      const core::Observation& observation,
                      const core::PreprocessOptions& options,
                      const core::PreprocessedEntry& pre) {
  const ppg::MultiChannelTrace& trace = observation.trace;
  const double rate = trace.rate_hz;
  const char* parent = "core.preprocess";
  const core::ChannelHealth health =
      timed(log, "core.gating", parent, request,
            [&] { return core::assess_channels(trace, options.quality); });
  if (!health.any_usable()) return pre.no_usable_channel();
  const std::size_t ref =
      core::pick_reference_channel(health, options.reference_channel);

  const std::size_t median_w =
      scaled(options.median_window_100hz, rate, /*keep_odd=*/true);
  const std::vector<core::Series> filtered =
      timed(log, "signal.median_filter", parent, request, [&] {
        std::vector<core::Series> out;
        out.reserve(trace.num_channels());
        for (std::size_t c = 0; c < trace.num_channels(); ++c) {
          if (!health.channels[c].usable) {
            out.emplace_back(trace.length(), 0.0);
          } else if (health.channels[c].nan_rate > 0.0) {
            core::Series repaired = trace.channels[c];
            core::repair_nonfinite(repaired);
            out.push_back(signal::median_filter(repaired, median_w));
          } else {
            out.push_back(signal::median_filter(trace.channels[c], median_w));
          }
        }
        return out;
      });

  const std::vector<std::size_t> calibrated =
      timed(log, "signal.calibration", parent, request, [&] {
        const std::vector<std::size_t> recorded = keystroke::recorded_indices(
            observation.entry, rate, trace.length());
        signal::CalibrationOptions calib = options.calibration;
        calib.sg_window = scaled(calib.sg_window, rate, true);
        calib.objective_window = scaled(calib.objective_window, rate, false);
        calib.search_half_width =
            scaled(calib.search_half_width, rate, false);
        calib.sg_window = std::max<std::size_t>(
            calib.sg_window, static_cast<std::size_t>(calib.sg_polyorder) +
                                 2 + ((calib.sg_polyorder % 2) ? 0 : 1));
        if (calib.sg_window % 2 == 0) ++calib.sg_window;
        return options.calibrate
                   ? signal::calibrate_keystrokes(filtered[ref], recorded,
                                                  calib)
                   : recorded;
      });

  const core::Series detrended =
      timed(log, "signal.detrend", parent, request, [&] {
        return options.detrend_before_energy
                   ? signal::detrend_smoothness_priors(filtered[ref],
                                                       options.detrend_lambda)
                   : filtered[ref];
      });

  signal::EnergyDetectorOptions energy = options.energy;
  energy.energy_window = scaled(energy.energy_window, rate, false);
  energy.search_half_width = scaled(energy.search_half_width, rate, false);
  std::vector<double> ste;
  const std::vector<bool> present =
      timed(log, "signal.energy", parent, request, [&] {
        ste = signal::short_time_energy(detrended, energy.energy_window);
        return signal::detect_keystrokes(detrended, calibrated, energy);
      });

  if (filtered.size() != pre.filtered.size()) return false;
  for (std::size_t c = 0; c < filtered.size(); ++c) {
    if (!same_bits(filtered[c], pre.filtered[c])) return false;
  }
  return ref == pre.reference_channel_used &&
         calibrated == pre.calibrated_indices &&
         same_bits(detrended, pre.detrended_reference) &&
         same_bits(ste, pre.short_time_energy) &&
         present == pre.keystroke_present;
}

// Re-extracts the scoring waveforms of `prepared` from the preprocessed
// channels and checks them against the planned units.
bool drill_segmentation(SpanLog& log, std::uint64_t request,
                        const core::EnrolledUser& user,
                        const core::Observation& observation,
                        const core::AuthOptions& options,
                        const core::PreprocessedEntry& pre,
                        const core::PreparedAuth& prepared) {
  const core::SegmentationOptions& seg = options.segmentation;
  const std::vector<std::vector<core::Series>> waveforms =
      timed(log, "core.segmentation", "core.prepare", request, [&] {
        std::vector<std::vector<core::Series>> out;
        const core::ModelPath path = prepared.result.model_path;
        if (path == core::ModelPath::kFullWaveform) {
          std::size_t first = pre.calibrated_indices.front();
          for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
            if (pre.keystroke_present[i]) {
              first = pre.calibrated_indices[i];
              break;
            }
          }
          out.push_back(core::extract_full_waveform(pre.filtered, first,
                                                    pre.rate_hz, seg));
        } else if (path == core::ModelPath::kBoost) {
          std::vector<std::vector<core::Series>> segments;
          for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
            if (!pre.keystroke_present[i]) continue;
            segments.push_back(core::extract_segment(
                pre.filtered, pre.calibrated_indices[i], pre.rate_hz, seg));
          }
          out.push_back(core::fuse_segments(segments));
        } else {
          for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
            if (!pre.keystroke_present[i] ||
                !user.has_key_model(observation.entry.pin.at(i))) {
              continue;
            }
            out.push_back(core::extract_segment(
                pre.filtered, pre.calibrated_indices[i], pre.rate_hz, seg));
          }
        }
        return out;
      });
  if (waveforms.size() != prepared.units.size()) return false;
  for (std::size_t i = 0; i < waveforms.size(); ++i) {
    if (!same_waveform(waveforms[i], prepared.units[i].waveform)) return false;
  }
  return true;
}

}  // namespace

core::AuthResult ledger_attempt(SpanLog& log, std::uint64_t request,
                    const core::EnrolledUser& user,
                    const core::Observation& observation,
                    bool authenticate_first, AuthLedger& ledger) {
  const core::AuthOptions options{};
  double total_us = 0.0;
  core::AuthResult reference;
  auto run_authenticate = [&] {
    reference = timed(
        log, "core.authenticate", "", request,
        [&] { return core::authenticate(user, observation, options); },
        &total_us);
  };

  if (authenticate_first) run_authenticate();

  // Outside-in replay of authenticate, one public phase at a time.
  double prepare_us = 0.0, score_us = 0.0, finish_us = 0.0, commit_us = 0.0;
  core::PreparedAuth prepared = timed(
      log, "core.prepare", "ledger.replay", request,
      [&] {
        return core::prepare_authentication(user, observation, options);
      },
      &prepare_us);
  const core::PreparedAuth plan = prepared;  // kept for the drill-down
  ml::TransformScratch& scratch = ml::thread_transform_scratch();
  thread_local linalg::Vector features;
  std::vector<double> decisions(prepared.units.size(), 0.0);
  if (!prepared.units.empty()) {
    timed(
        log, "core.score", "ledger.replay", request,
        [&] {
          for (std::size_t i = 0; i < prepared.units.size(); ++i) {
            decisions[i] = prepared.units[i].model->decision(
                prepared.units[i].waveform, scratch, features);
          }
        },
        &score_us);
  }
  const core::AuthResult replayed = timed(
      log, "core.finish", "ledger.replay", request,
      [&] {
        return core::finish_authentication(std::move(prepared), decisions);
      },
      &finish_us);
  timed(
      log, "obs.commit", "ledger.replay", request,
      [&] { core::commit_decision(user.user_id, replayed); }, &commit_us);

  if (!authenticate_first) run_authenticate();

  bool ok = service::decision_checksum(replayed) ==
            service::decision_checksum(reference);

  const AuthPath path =
      plan.decided ? AuthPath::kDecidedEarly
      : plan.result.model_path == core::ModelPath::kPerKeyVotes
          ? AuthPath::kPerKey
          : AuthPath::kFull;
  AuthLedger::PathSums& sums = ledger.paths[static_cast<std::size_t>(path)];
  sums.stage_sum_us += prepare_us + score_us + finish_us + commit_us;
  sums.total_us += total_us;
  ++sums.attempts;
  ++ledger.attempts;
  ledger.units += plan.units.size();
  ledger.authenticate_us.push_back(total_us);

  // Drill-down below the phases (not part of the ledger sums).
  const bool reached_preprocess =
      reference.reason != core::RejectReason::kWrongPin &&
      reference.reason != core::RejectReason::kMalformedEntry;
  if (reached_preprocess) {
    const core::PreprocessedEntry pre = timed(
        log, "core.preprocess", "core.prepare", request,
        [&] { return core::preprocess_entry(observation, options.preprocess); });
    ok = ok && drill_preprocess(log, request, observation, options.preprocess,
                                pre);
    if (!plan.decided) {
      ok = ok && drill_segmentation(log, request, user, observation, options,
                                    pre, plan);
    }
  }
  for (std::size_t i = 0; i < plan.units.size(); ++i) {
    const core::WaveformModel& model = *plan.units[i].model;
    features.resize(model.rocket().num_features());
    timed(log, "ml.transform", "core.score", request, [&] {
      model.rocket().transform_into(plan.units[i].waveform, features, scratch);
    });
    const double raw = timed(log, "linalg.ridge_decision", "core.score",
                             request,
                             [&] { return model.ridge().decision(features); });
    ok = ok && same_bits(raw - model.threshold(), decisions[i]);
  }
  if (!ok) ++ledger.mismatches;
  return reference;
}

// ---- enrollment ledger -----------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return service::checksum_mix(h, v);
}

std::uint64_t digest_model(std::uint64_t h, const core::WaveformModel& m) {
  for (const double w : m.ridge().weights()) {
    h = mix(h, std::bit_cast<std::uint64_t>(w));
  }
  h = mix(h, std::bit_cast<std::uint64_t>(m.ridge().bias()));
  h = mix(h, std::bit_cast<std::uint64_t>(m.threshold()));
  for (std::size_t c = 0; c < m.rocket().num_channels(); ++c) {
    for (const double b : m.rocket().channel(c).biases()) {
      h = mix(h, std::bit_cast<std::uint64_t>(b));
    }
  }
  return h;
}

// WaveformModel::train's steps as public calls, timed; returns whether the
// drilled ridge weights equal `trained`'s.
bool drill_train(SpanLog& log, std::uint64_t request,
                 const std::vector<std::vector<core::Series>>& positives,
                 const std::vector<std::vector<core::Series>>& negatives,
                 const core::EnrollmentConfig& config, util::Rng model_rng,
                 const core::WaveformModel& trained) {
  std::vector<std::vector<core::Series>> all = positives;
  all.insert(all.end(), negatives.begin(), negatives.end());
  ml::MultiChannelMiniRocket rocket(config.rocket);
  util::Rng rocket_rng = model_rng.fork("rocket");
  timed(log, "ml.fit", "core.train", request,
        [&] { rocket.fit(all, rocket_rng); });
  const linalg::Matrix features = timed(
      log, "ml.transform_batch", "core.train", request,
      [&] { return rocket.transform(all); });
  std::vector<double> labels(all.size(), -1.0);
  std::fill(labels.begin(),
            labels.begin() + static_cast<std::ptrdiff_t>(positives.size()),
            1.0);
  linalg::RidgeClassifier ridge;
  timed(log, "linalg.ridge_fit", "core.train", request,
        [&] { ridge.fit(features, labels, config.ridge); });
  return same_bits(ridge.weights(), trained.ridge().weights()) &&
         same_bits(ridge.bias(), trained.ridge().bias());
}

}  // namespace

std::uint64_t model_digest(const core::EnrolledUser& user) {
  std::uint64_t h = service::kChecksumSeed;
  if (user.full_model) h = digest_model(mix(h, 1), *user.full_model);
  if (user.boost_model) h = digest_model(mix(h, 2), *user.boost_model);
  for (std::size_t k = 0; k < user.key_models.size(); ++k) {
    if (user.key_models[k]) {
      h = digest_model(mix(h, 16 + k), *user.key_models[k]);
    }
  }
  return h;
}

core::EnrolledUser ledger_enroll(SpanLog& log, std::uint64_t request,
                                 const keystroke::Pin& pin,
                                 const std::vector<core::Observation>& positives,
                                 const std::vector<core::Observation>& negatives,
                                 const core::EnrollmentConfig& config,
                                 bool enroll_first, EnrollLedger& ledger) {
  if (config.privacy_boost) {
    throw std::invalid_argument("ledger_enroll: privacy boost not replayed");
  }
  double total_us = 0.0;
  core::EnrolledUser reference;
  auto run_enroll = [&] {
    reference = timed(
        log, "core.enroll", "", request,
        [&] { return core::enroll_user(pin, positives, negatives, config); },
        &total_us);
  };
  if (enroll_first) run_enroll();

  // Replay: extraction, the full-waveform model, then the per-key models
  // on the shared pool, with enroll_user's RNG stream layout.
  double extract_us = 0.0, full_us = 0.0, keys_us = 0.0;
  std::vector<core::ExtractedEntry> neg, pos;
  timed(
      log, "ledger.extract", "ledger.enroll", request,
      [&] {
        for (const core::Observation& o : negatives) {
          neg.push_back(timed(log, "core.extract", "ledger.extract", request,
                              [&] { return core::extract_observation(o, config); }));
        }
        for (const core::Observation& o : positives) {
          pos.push_back(timed(log, "core.extract", "ledger.extract", request,
                              [&] { return core::extract_observation(o, config); }));
        }
      },
      &extract_us);

  util::Rng rng(config.seed, 0xe17011e4d0ULL);
  std::vector<std::vector<core::Series>> full_pos, full_neg;
  for (const auto& e : pos) full_pos.push_back(e.full);
  for (const auto& e : neg) full_neg.push_back(e.full);
  std::optional<core::WaveformModel> full_model;
  util::Rng full_rng_start;
  if (config.train_full_model) {
    util::Rng full_rng = rng.fork("full");  // forks only when enroll_user does
    full_rng_start = full_rng;
    full_model.emplace();
    timed(
        log, "core.train", "ledger.enroll", request,
        [&] {
          full_model->train(full_pos, full_neg, config.rocket, config.ridge,
                            full_rng, config.recenter_threshold);
        },
        &full_us);
  }

  struct KeyTask {
    std::size_t key = 0;
    std::vector<std::vector<core::Series>> positives, negatives;
    util::Rng rng;
    util::Rng rng_start;
    core::WaveformModel model;
  };
  std::vector<KeyTask> tasks;
  if (config.train_single_models) {
    std::array<std::vector<std::vector<core::Series>>, 10> pos_by_key, neg_by_key;
    std::vector<std::vector<core::Series>> neg_any;
    for (const auto& e : pos) {
      for (std::size_t s = 0; s < e.segments.size(); ++s) {
        pos_by_key[keystroke::key_index(e.segment_digits[s])].push_back(
            e.segments[s]);
      }
    }
    for (const auto& e : neg) {
      for (std::size_t s = 0; s < e.segments.size(); ++s) {
        neg_by_key[keystroke::key_index(e.segment_digits[s])].push_back(
            e.segments[s]);
        neg_any.push_back(e.segments[s]);
      }
    }
    for (std::size_t k = 0; k < 10; ++k) {
      if (pos_by_key[k].size() < 2) continue;
      std::vector<std::vector<core::Series>> n = neg_by_key[k];
      for (std::size_t i = 0; i < neg_any.size() && n.size() < 20; ++i) {
        n.push_back(neg_any[i]);
      }
      if (n.empty()) continue;
      util::Rng key_rng = rng.fork(0x6b657900ULL + k);
      tasks.push_back(KeyTask{k, pos_by_key[k], std::move(n), key_rng,
                              key_rng, {}});
    }
    timed(
        log, "ledger.key_models", "ledger.enroll", request,
        [&] {
          try {
            util::parallel_for(tasks.size(), 1, [&](std::size_t t) {
              KeyTask& task = tasks[t];
              timed(log, "core.train", "ledger.key_models", request, [&] {
                task.model.train(task.positives, task.negatives, config.rocket,
                                 config.ridge, task.rng,
                                 config.recenter_threshold);
              });
            });
          } catch (const util::ParallelForError& e) {
            e.rethrow_cause();
          }
        },
        &keys_us);
  }

  if (!enroll_first) run_enroll();

  core::EnrolledUser replayed;
  replayed.pin = pin;
  replayed.full_model = full_model;
  for (const KeyTask& task : tasks) replayed.key_models[task.key] = task.model;
  bool ok = model_digest(replayed) == model_digest(reference);

  // Drill-down below WaveformModel::train (not part of the ledger sums).
  if (full_model) {
    ok = ok && drill_train(log, request, full_pos, full_neg, config,
                           full_rng_start, *full_model);
  }
  for (const KeyTask& task : tasks) {
    ok = ok && drill_train(log, request, task.positives, task.negatives,
                           config, task.rng_start, task.model);
  }

  ledger.stage_sum_us += extract_us + full_us + keys_us;
  ledger.total_us += total_us;
  ledger.enroll_us.push_back(total_us);
  ++ledger.users;
  if (!ok) ++ledger.mismatches;
  return reference;
}

}  // namespace perfbench

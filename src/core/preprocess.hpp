// PPG Samples Preprocessing (paper section IV-B 1): noise removal,
// fine-grained keystroke time calibration, and PIN input case
// identification.
//
// All sample-count parameters below are specified at the paper's 100 Hz
// reference rate and are scaled linearly with the actual trace rate, so
// the same configuration works across the Fig. 16/17 sampling-rate sweep.
#pragma once

#include <cstddef>
#include <vector>

#include "core/quality.hpp"
#include "core/types.hpp"
#include "signal/energy.hpp"
#include "signal/peaks.hpp"

namespace p2auth::core {

struct PreprocessOptions {
  // Noise Removal: median filter window (odd), at 100 Hz.
  std::size_t median_window_100hz = 5;
  // Fine-grained calibration parameters at 100 Hz (paper: objective
  // window 30).
  signal::CalibrationOptions calibration{};
  // Ablation switch: disable the fine-grained calibration and trust the
  // phone's coarse timestamps directly (DESIGN.md section 5).
  bool calibrate = true;
  // Ablation switch: skip detrending before the short-time-energy
  // analysis (the energy detector then sees baseline wander).
  bool detrend_before_energy = true;
  // Detrending regularisation for case identification.
  double detrend_lambda = 50.0;
  // Short-time-energy detector at 100 Hz (paper: window 20, threshold =
  // half the mean energy).
  signal::EnergyDetectorOptions energy{};
  // Channel used for calibration / case identification (0 = sensor-1
  // infrared, the cleanest channel).  When channel gating masks it, the
  // healthiest surviving channel substitutes (PreprocessedEntry reports
  // which channel was actually used).
  std::size_t reference_channel = 0;
  // Channel-health gating (degraded-sensor resilience): every channel's
  // health is scored and unusable ones are masked (zeroed, never
  // filtered) instead of aborting the whole attempt.
  QualityOptions quality{};
};

struct PreprocessedEntry {
  double rate_hz = 100.0;
  // Median-filtered channels (input to segmentation / models).
  std::vector<Series> filtered;
  // Detrended reference channel (input to the energy detector; kept for
  // the Fig. 5 bench).
  Series detrended_reference;
  // Short-time energy of the detrended reference (Fig. 5d).
  Series short_time_energy;
  // Per typed keystroke: the coarse recorded index and the calibrated one.
  std::vector<std::size_t> recorded_indices;
  std::vector<std::size_t> calibrated_indices;
  // Energy decision per typed keystroke: was this keystroke performed by
  // the watch-wearing hand?
  std::vector<bool> keystroke_present;
  DetectedCase detected_case = DetectedCase::kRejected;
  // Channel-health gating outcome, one entry per channel.
  ChannelHealth health;
  // Reference channel actually used after gating (== the configured one
  // unless it was masked).
  std::size_t reference_channel_used = 0;

  // True when gating masked every channel: the entry was rejected before
  // filtering and only `health` is meaningful.
  bool no_usable_channel() const noexcept { return !health.any_usable(); }
};

// Runs the full preprocessing stage on one observation.  Throws
// std::invalid_argument on empty traces, ragged channels or a missing
// reference channel.  Non-finite samples never throw: gating masks the
// channels that carry them, and a fully masked trace returns
// detected_case == kRejected with no_usable_channel() set.
PreprocessedEntry preprocess_entry(const Observation& observation,
                                   const PreprocessOptions& options = {});

// Maps a detected watch-hand keystroke count to the input case
// (4 -> one-handed, 3/2 -> two-handed, otherwise rejected).
DetectedCase classify_case(std::size_t detected_count) noexcept;

}  // namespace p2auth::core

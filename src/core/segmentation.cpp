#include "core/segmentation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace p2auth::core {

namespace {

// Copies [start, start + length) from `x` with zero padding outside the
// series.
Series window_with_padding(const Series& x, long long start,
                           std::size_t length) {
  Series out(length, 0.0);
  for (std::size_t i = 0; i < length; ++i) {
    const long long idx = start + static_cast<long long>(i);
    if (idx >= 0 && idx < static_cast<long long>(x.size())) {
      out[i] = x[static_cast<std::size_t>(idx)];
    }
  }
  return out;
}

}  // namespace

std::size_t segment_length(double rate_hz,
                           const SegmentationOptions& options) {
  return static_cast<std::size_t>(std::max(
      1.0,
      std::round((options.segment_before_s + options.segment_after_s) *
                 rate_hz)));
}

std::size_t full_waveform_length(double rate_hz,
                                 const SegmentationOptions& options) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(options.full_span_s * rate_hz)));
}

std::vector<Series> extract_segment(const std::vector<Series>& channels,
                                    std::size_t center_index, double rate_hz,
                                    const SegmentationOptions& options) {
  const obs::Span span("segmentation.extract", "core");
  if (channels.empty()) {
    throw std::invalid_argument("extract_segment: no channels");
  }
  if (rate_hz <= 0.0) {
    throw std::invalid_argument("extract_segment: rate must be positive");
  }
  const std::size_t length = segment_length(rate_hz, options);
  const long long start =
      static_cast<long long>(center_index) -
      static_cast<long long>(std::round(options.segment_before_s * rate_hz));
  std::vector<Series> out;
  out.reserve(channels.size());
  for (const Series& ch : channels) {
    out.push_back(window_with_padding(ch, start, length));
  }
  return out;
}

std::vector<Series> extract_full_waveform(
    const std::vector<Series>& channels, std::size_t first_index,
    double rate_hz, const SegmentationOptions& options) {
  const obs::Span span("segmentation.full_waveform", "core");
  if (channels.empty()) {
    throw std::invalid_argument("extract_full_waveform: no channels");
  }
  if (rate_hz <= 0.0) {
    throw std::invalid_argument("extract_full_waveform: rate positive");
  }
  const std::size_t length = full_waveform_length(rate_hz, options);
  const long long start =
      static_cast<long long>(first_index) -
      static_cast<long long>(std::round(options.full_lead_s * rate_hz));
  std::vector<Series> out;
  out.reserve(channels.size());
  for (const Series& ch : channels) {
    out.push_back(window_with_padding(ch, start, length));
  }
  return out;
}

std::vector<Series> fuse_segments(
    const std::vector<std::vector<Series>>& segments) {
  const obs::Span span("segmentation.fuse", "core");
  if (segments.empty()) {
    throw std::invalid_argument("fuse_segments: no segments");
  }
  const std::size_t channels = segments.front().size();
  const std::size_t length =
      channels > 0 ? segments.front().front().size() : 0;
  if (channels == 0 || length == 0) {
    throw std::invalid_argument("fuse_segments: empty segment");
  }
  std::vector<Series> fused(channels, Series(length, 0.0));
  for (const auto& segment : segments) {
    if (segment.size() != channels) {
      throw std::invalid_argument("fuse_segments: channel count mismatch");
    }
    for (std::size_t c = 0; c < channels; ++c) {
      if (segment[c].size() != length) {
        throw std::invalid_argument("fuse_segments: length mismatch");
      }
      for (std::size_t i = 0; i < length; ++i) fused[c][i] += segment[c][i];
    }
  }
  return fused;
}

}  // namespace p2auth::core

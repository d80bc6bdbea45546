#include "core/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "backend/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2auth::core {

namespace {

double steady_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace

StreamingAuthenticator::StreamingAuthenticator(const EnrolledUser& user,
                                               double rate_hz,
                                               std::size_t channels,
                                               StreamingOptions options)
    : user_(user),
      rate_hz_(rate_hz),
      channels_(channels),
      options_(std::move(options)) {
  if (rate_hz <= 0.0) {
    throw std::invalid_argument(
        "StreamingAuthenticator: rate must be positive");
  }
  if (channels == 0) {
    throw std::invalid_argument("StreamingAuthenticator: need channels");
  }
  if (options_.timeout_s <= 0.0) {
    throw std::invalid_argument("StreamingAuthenticator: bad time limits");
  }
  if (options_.lockout_threshold > 0 &&
      (options_.lockout_base_s <= 0.0 ||
       options_.lockout_max_s < options_.lockout_base_s)) {
    throw std::invalid_argument("StreamingAuthenticator: bad lockout");
  }
  max_buffer_samples_ =
      options_.max_buffer_samples > 0
          ? options_.max_buffer_samples
          : static_cast<std::size_t>(2.0 * options_.timeout_s * rate_hz_);
  trace_.rate_hz = rate_hz;
  trace_.channels.assign(channels, {});
  stats_.backend = backend::kernels().name;
}

double StreamingAuthenticator::now() const {
  return options_.clock ? options_.clock() : steady_seconds();
}

bool StreamingAuthenticator::locked_out() const {
  return locked_ && now() < locked_until_;
}

double StreamingAuthenticator::lockout_remaining_s() const {
  if (!locked_) return 0.0;
  return std::max(0.0, locked_until_ - now());
}

void StreamingAuthenticator::push_sample(std::span<const double> sample) {
  if (sample.size() != channels_) {
    throw std::invalid_argument(
        "StreamingAuthenticator::push_sample: channel count mismatch");
  }
  ++stats_.samples;
  if (!attempt_open_) {
    attempt_open_ = true;
    attempt_start_ = now();
  }
  if (trace_.length() >= max_buffer_samples_) {
    // Bounded buffer: drop the sample, flag the attempt.  poll() turns
    // the flag into a loud kBufferOverflow rejection.
    overflowed_ = true;
    ++stats_.overflow_dropped;
    obs::add_counter("streaming.overflow_dropped");
    return;
  }
  for (std::size_t c = 0; c < channels_; ++c) {
    trace_.channels[c].push_back(sample[c]);
  }
}

void StreamingAuthenticator::push_keystroke(char digit,
                                            double recorded_time_s) {
  // Validate *before* mutating the attempt: a throw must leave the
  // half-typed entry exactly as it was (events and PIN in sync).
  if (!std::isfinite(recorded_time_s)) {
    throw std::invalid_argument(
        "StreamingAuthenticator::push_keystroke: non-finite timestamp");
  }
  std::string digits = entry_.pin.digits();
  digits.push_back(digit);
  keystroke::Pin pin(digits);  // throws on non-digit

  ++stats_.keystrokes;
  if (!attempt_open_) {
    attempt_open_ = true;
    attempt_start_ = now();
  }
  if (entry_.events.size() >= kMaxPinDigits) {
    // Bounded PIN: drop the keystroke, flag the attempt, as push_sample
    // does with a full buffer.
    overflowed_ = true;
    return;
  }
  keystroke::KeystrokeEvent event;
  event.digit = digit;
  event.recorded_time_s = recorded_time_s;
  event.true_time_s = recorded_time_s;  // truth is unknown on-device
  entry_.events.push_back(event);
  entry_.pin = std::move(pin);
}

double StreamingAuthenticator::buffered_seconds() const noexcept {
  return static_cast<double>(trace_.length()) / rate_hz_;
}

void StreamingAuthenticator::reset() {
  for (auto& ch : trace_.channels) ch.clear();
  entry_ = keystroke::EntryRecord{};
  attempt_open_ = false;
  attempt_start_ = -1.0;
  overflowed_ = false;
}

AuthResult StreamingAuthenticator::finish_attempt(AuthResult result) {
  ++stats_.attempts;
  if (result.accepted) {
    ++stats_.accepted;
    consecutive_rejects_ = 0;
    lockout_level_ = 0;
    return result;
  }
  ++stats_.rejects_by_reason[result.reason];
  // Lockout state machine: genuine rejections count toward the
  // threshold; refusals issued *by* the lockout do not re-arm it.
  if (options_.lockout_threshold > 0 &&
      result.reason != RejectReason::kLockedOut &&
      ++consecutive_rejects_ >= options_.lockout_threshold) {
    const double backoff =
        std::min(options_.lockout_max_s,
                 options_.lockout_base_s *
                     std::pow(2.0, static_cast<double>(lockout_level_)));
    locked_ = true;
    locked_until_ = now() + backoff;
    ++lockout_level_;
    consecutive_rejects_ = 0;
    ++stats_.lockouts;
    obs::add_counter("streaming.lockouts");
  }
  return result;
}

AuthResult StreamingAuthenticator::reject_attempt(RejectReason reason) {
  // Account for the dropped buffer before clearing it (the decide path
  // hands its samples to the pipeline; a reject just drops them).
  obs::add_counter("streaming.dropped_samples", trace_.length());
  reset();
  obs::set_gauge("streaming.buffer_samples", 0.0);
  AuthResult result;
  result.reason = reason;
  commit_decision(user_.user_id, result);
  return finish_attempt(std::move(result));
}

std::optional<AuthResult> StreamingAuthenticator::poll() {
  if (!attempt_active()) return std::nullopt;
  obs::set_gauge("streaming.buffer_samples",
                 static_cast<double>(trace_.length()));

  // Lockout backoff: refuse the pending attempt outright.
  if (locked_out()) {
    ++stats_.lockout_rejects;
    return reject_attempt(RejectReason::kLockedOut);
  }

  // Buffer overflow: the attempt already lost samples; no sound decision
  // can be made from a truncated trace.
  if (overflowed_) return reject_attempt(RejectReason::kBufferOverflow);

  // Attempt age is the larger of stream time and monotonic-clock time
  // since the first push: a runaway stream trips the former, a stalled
  // stream (no samples arriving, so buffered_seconds() stops growing)
  // trips the latter.
  const double age =
      std::max(buffered_seconds(),
               attempt_open_ ? now() - attempt_start_ : 0.0);
  if (age > options_.timeout_s) {
    ++stats_.timeouts;
    return reject_attempt(RejectReason::kTimeout);
  }

  const std::size_t expected = user_.pin.empty() ? 4 : user_.pin.length();
  if (entry_.events.size() < expected) return std::nullopt;

  // Wait for the artifact tail after the final keystroke.
  const double last = entry_.events.back().recorded_time_s;
  if (buffered_seconds() < last + kStreamingTailS) return std::nullopt;

  const obs::Span span("streaming.decide", "core");
  Observation observation{entry_, trace_};
  reset();
  obs::set_gauge("streaming.buffer_samples", 0.0);
  return finish_attempt(authenticate(user_, observation, options_.auth));
}

}  // namespace p2auth::core

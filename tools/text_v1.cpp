#include "text_v1.hpp"

#include <cctype>
#include <charconv>
#include <istream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/serialize.hpp"

namespace p2auth::text_v1 {

namespace {

using util::SerializeErrc;
using util::SerializeError;

// Element-count cap applied when the stream is not seekable (a pipe):
// large enough for any real model, small enough that a corrupted length
// cannot demand unbounded memory before the per-element reads fail.
constexpr std::uint64_t kUnseekableLengthCap = 1u << 28;

[[noreturn]] void fail(SerializeErrc code, std::string_view tag,
                       const char* what) {
  throw SerializeError(code, "text_v1: " + std::string(what) + " at tag '" +
                                 std::string(tag) + "'");
}

bool ascii_iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

// Whitespace-delimited double token.  std::from_chars is used instead of
// strtod so parsing is independent of the host's LC_NUMERIC locale: a
// model saved under the C locale ("3.14") must load even when the app
// embedding the converter has called setlocale with e.g. de_DE (where
// strtod expects "3,14").  "nan"/"inf" spellings (what the v1 writer
// emitted for non-finite values that slipped into a store) are handled
// explicitly, leaving the accept/reject policy for non-finite values to
// the from_parts validators.
double read_double_token(std::istream& is, std::string_view tag) {
  std::string token;
  if (!(is >> token)) fail(SerializeErrc::kTruncated, tag, "bad double value");
  std::string_view body = token;
  double sign = 1.0;
  if (!body.empty() && (body.front() == '+' || body.front() == '-')) {
    if (body.front() == '-') sign = -1.0;
    body.remove_prefix(1);
  }
  if (ascii_iequals(body, "nan") || ascii_iequals(body, "nan(ind)")) {
    return sign * std::numeric_limits<double>::quiet_NaN();
  }
  if (ascii_iequals(body, "inf") || ascii_iequals(body, "infinity")) {
    return sign * std::numeric_limits<double>::infinity();
  }
  double v = 0.0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) {
    fail(SerializeErrc::kBadValue, tag, "bad double value");
  }
  return v;
}

std::uint64_t read_u64_token(std::istream& is, std::string_view tag,
                             const char* what) {
  std::string token;
  if (!(is >> token)) fail(SerializeErrc::kTruncated, tag, what);
  // istream extraction into uint64_t wraps "-1" to 2^64-1; a corrupted
  // count field must instead reject before any loop or allocation sees
  // the wrapped value.
  if (token.empty() || token.front() == '-' || token.front() == '+') {
    fail(SerializeErrc::kBadValue, tag, what);
  }
  std::uint64_t v = 0;
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, v);
  if (ec != std::errc{} || ptr != last) {
    fail(SerializeErrc::kBadValue, tag, what);
  }
  return v;
}

// Validates a length prefix of `n` elements, each at least
// `min_bytes_per_element` bytes of stream representation (the final
// element may omit its separator, hence the +1), before anything is
// allocated.  A 20-byte corrupted file claiming 10^18 doubles fails
// here with kLengthOverflow instead of throwing bad_alloc (or worse,
// succeeding) inside std::vector.
void check_length(std::istream& is, std::string_view tag, std::uint64_t n,
                  std::uint64_t min_bytes_per_element) {
  if (n == 0) return;
  if (const std::optional<std::uint64_t> rem = util::remaining_bytes(is)) {
    if (n > (*rem + 1) / min_bytes_per_element) {
      fail(SerializeErrc::kLengthOverflow, tag,
           "length prefix exceeds remaining stream bytes");
    }
  } else if (n > kUnseekableLengthCap) {
    fail(SerializeErrc::kLengthOverflow, tag,
         "length prefix exceeds the unseekable-stream cap");
  }
}

void expect_tag(std::istream& is, std::string_view tag) {
  std::string got;
  if (!(is >> got)) {
    fail(SerializeErrc::kTruncated, tag, "unexpected end of stream");
  }
  if (got != tag) {
    throw SerializeError(SerializeErrc::kBadTag,
                         "text_v1: expected tag '" + std::string(tag) +
                             "', found '" + got + "'");
  }
}

bool read_bool(std::istream& is, std::string_view tag) {
  expect_tag(is, tag);
  const std::uint64_t v = read_u64_token(is, tag, "bad bool value");
  if (v > 1) fail(SerializeErrc::kBadValue, tag, "bad bool value");
  return v == 1;
}

std::vector<int> read_int_vector(std::istream& is, std::string_view tag) {
  expect_tag(is, tag);
  const std::uint64_t n = read_u64_token(is, tag, "bad vector length");
  check_length(is, tag, n, 2);
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int& x : v) {
    std::string token;
    if (!(is >> token)) fail(SerializeErrc::kTruncated, tag, "truncated vector");
    const char* first = token.data();
    const char* last = token.data() + token.size();
    int value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) {
      fail(SerializeErrc::kBadValue, tag, "bad vector element");
    }
    x = value;
  }
  return v;
}

}  // namespace

std::uint64_t read_u64(std::istream& is, std::string_view tag) {
  expect_tag(is, tag);
  return read_u64_token(is, tag, "bad unsigned value");
}

double read_double(std::istream& is, std::string_view tag) {
  expect_tag(is, tag);
  return read_double_token(is, tag);
}

std::string read_string(std::istream& is, std::string_view tag) {
  expect_tag(is, tag);
  const std::uint64_t n = read_u64_token(is, tag, "bad string length");
  if (n == 0) return {};
  // The separator + n content bytes must still be in the stream before
  // the string is allocated.
  if (const std::optional<std::uint64_t> rem = util::remaining_bytes(is)) {
    if (n >= *rem) {
      fail(SerializeErrc::kLengthOverflow, tag,
           "string length exceeds remaining stream bytes");
    }
  } else if (n > kUnseekableLengthCap) {
    fail(SerializeErrc::kLengthOverflow, tag,
         "string length exceeds the unseekable-stream cap");
  }
  const int sep = is.get();
  if (sep != ' ') {
    fail(SerializeErrc::kBadSeparator, tag, "missing string separator");
  }
  std::string v(static_cast<std::size_t>(n), '\0');
  if (!is.read(v.data(), static_cast<std::streamsize>(n))) {
    fail(SerializeErrc::kTruncated, tag, "truncated string");
  }
  return v;
}

std::vector<double> read_vector(std::istream& is, std::string_view tag) {
  expect_tag(is, tag);
  const std::uint64_t n = read_u64_token(is, tag, "bad vector length");
  // Each stored double occupies at least one digit plus a separator.
  check_length(is, tag, n, 2);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) {
    x = read_double_token(is, tag);
  }
  return v;
}

namespace {

ml::MiniRocket read_minirocket(std::istream& is) {
  (void)read_string(is, "minirocket.v1");
  ml::MiniRocketOptions options;
  options.num_features = read_u64(is, "num_features_opt");
  options.max_dilations = read_u64(is, "max_dilations");
  const std::uint64_t pooling = read_u64(is, "pooling");
  if (pooling > static_cast<std::uint64_t>(ml::Pooling::kMax)) {
    throw SerializeError(SerializeErrc::kBadValue,
                         "text_v1: bad pooling value");
  }
  options.pooling = static_cast<ml::Pooling>(pooling);
  const std::size_t input_length = read_u64(is, "input_length");
  std::vector<int> dilations = read_int_vector(is, "dilations");
  const std::size_t biases_per_combo = read_u64(is, "biases_per_combo");
  std::vector<double> biases = read_vector(is, "biases");
  return ml::MiniRocket::from_parts(options, input_length,
                                    std::move(dilations), biases_per_combo,
                                    std::move(biases));
}

ml::MultiChannelMiniRocket read_multichannel_minirocket(std::istream& is) {
  (void)read_string(is, "mc-minirocket.v1");
  // The v1 wrapper stored only its feature budget; its other options
  // stay at their defaults.
  ml::MiniRocketOptions options;
  options.num_features = read_u64(is, "num_features_opt");
  const std::uint64_t channels = read_u64(is, "channels");
  if (channels == 0 || channels > 64) {
    throw SerializeError(SerializeErrc::kBadShape,
                         "text_v1: bad channel count");
  }
  std::vector<ml::MiniRocket> per_channel;
  per_channel.reserve(channels);
  for (std::uint64_t c = 0; c < channels; ++c) {
    per_channel.push_back(read_minirocket(is));
  }
  return ml::MultiChannelMiniRocket::from_parts(options,
                                                std::move(per_channel));
}

linalg::RidgeClassifier read_ridge(std::istream& is) {
  (void)read_string(is, "ridge.v1");
  linalg::Vector weights = read_vector(is, "weights");
  const double bias = read_double(is, "bias");
  const double lambda = read_double(is, "lambda");
  return linalg::RidgeClassifier::from_parts(std::move(weights), bias,
                                             lambda);
}

core::WaveformModel read_waveform_model(std::istream& is) {
  (void)read_string(is, "waveform-model.v1");
  ml::MultiChannelMiniRocket rocket = read_multichannel_minirocket(is);
  linalg::RidgeClassifier ridge = read_ridge(is);
  const double threshold = read_double(is, "threshold");
  try {
    return core::WaveformModel::from_parts(std::move(rocket),
                                           std::move(ridge), threshold);
  } catch (const std::invalid_argument& e) {
    // from_parts validates assembly invariants for programmatic callers;
    // when the parts came from a stream the failure is a corrupt store.
    throw SerializeError(SerializeErrc::kBadShape, e.what());
  }
}

}  // namespace

core::EnrolledUser read_enrolled_user(std::istream& is) {
  (void)read_string(is, "p2auth-enrolled-user.v1");
  core::EnrolledUser user;
  try {
    user.pin = keystroke::Pin(read_string(is, "pin"));
  } catch (const std::invalid_argument& e) {
    // A corrupted pin field (non-digit bytes) is a deserialization
    // failure, not a caller error.
    throw SerializeError(SerializeErrc::kBadValue, e.what());
  }
  user.privacy_boost = read_bool(is, "privacy_boost");
  user.stats.full_positives = read_u64(is, "stats.full_positives");
  user.stats.full_negatives = read_u64(is, "stats.full_negatives");
  user.stats.segment_positives = read_u64(is, "stats.segment_positives");
  user.stats.segment_negatives = read_u64(is, "stats.segment_negatives");
  user.stats.key_models_trained = read_u64(is, "stats.key_models");

  if (read_bool(is, "has_full_model")) {
    user.full_model = read_waveform_model(is);
  }
  if (read_bool(is, "has_boost_model")) {
    user.boost_model = read_waveform_model(is);
  }
  for (std::optional<core::WaveformModel>& key_model : user.key_models) {
    if (read_bool(is, "has_key_model")) key_model = read_waveform_model(is);
  }
  if (user.privacy_boost && !user.boost_model.has_value()) {
    throw SerializeError(
        SerializeErrc::kBadShape,
        "text_v1: privacy boost set without a boost model");
  }
  return user;
}

core::UserRegistry read_user_registry(std::istream& is) {
  (void)read_string(is, "p2auth-registry.v1");
  const std::uint64_t count = read_u64(is, "count");
  core::UserRegistry registry;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = read_string(is, "name");
    if (name.empty()) {
      throw SerializeError(SerializeErrc::kBadValue,
                           "text_v1: empty user name");
    }
    if (registry.find(name) != nullptr) {
      throw SerializeError(SerializeErrc::kDuplicateName,
                           "text_v1: duplicate user name '" + name + "'");
    }
    registry.add(name, read_enrolled_user(is));
  }
  return registry;
}

}  // namespace p2auth::text_v1

#include "io/binary.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "io/bytes.hpp"
#include "io/detail.hpp"
#include "io/mmap_registry.hpp"
#include "util/crc32.hpp"
#include "util/serialize.hpp"

namespace p2auth::io {

static_assert(kMaxPinBytes == core::kMaxPinDigits);

namespace {

using util::SerializeErrc;
using util::SerializeError;

[[noreturn]] void fail(SerializeErrc code, const std::string& what) {
  throw SerializeError(code, "P2MDL001: " + what);
}

void require_little_endian() {
  if (!host_is_little_endian()) {
    fail(SerializeErrc::kIoError,
         "the binary model format requires a little-endian host");
  }
}

// Model-presence bitmap in the USRH section: bit 0 = full model,
// bit 1 = boost model, bit (2 + k) = key model for digit k.
constexpr std::uint16_t kPresenceFull = 1u << 0;
constexpr std::uint16_t kPresenceBoost = 1u << 1;
constexpr std::uint16_t presence_key(std::size_t k) {
  return static_cast<std::uint16_t>(1u << (2 + k));
}
constexpr std::uint16_t kPresenceAllKnown = (1u << 12) - 1;

// ---- writing ----------------------------------------------------------

std::size_t begin_section(ByteWriter& w, std::uint32_t tag) {
  w.u32(tag);
  w.u32(0);
  return w.reserve_u64();  // payload length, patched by end_section
}

void end_section(ByteWriter& w, std::size_t len_pos) {
  w.patch_u64(len_pos, w.size() - (len_pos + sizeof(std::uint64_t)));
  w.pad8();
}

void write_minirocket_section(ByteWriter& w, const ml::MiniRocket& mr) {
  const std::size_t len_pos = begin_section(w, kTagMiniRocket);
  w.u64(mr.options().num_features);
  w.u64(mr.options().max_dilations);
  w.u64(static_cast<std::uint64_t>(mr.options().pooling));
  w.u64(mr.input_length());
  w.u64(mr.dilations().size());
  w.u64(mr.biases_per_combo());
  for (const int d : mr.dilations()) {
    const std::int32_t v = static_cast<std::int32_t>(d);
    w.bytes(&v, sizeof(v));
  }
  w.pad8();  // dilations are i32; re-align so the biases sit 8-aligned
  for (const double b : mr.biases()) w.f64(b);
  end_section(w, len_pos);
}

void write_ridge_section(ByteWriter& w, const linalg::RidgeClassifier& clf) {
  const std::size_t len_pos = begin_section(w, kTagRidge);
  w.f64(clf.bias());
  w.f64(clf.chosen_lambda());
  w.u64(clf.weights().size());
  for (const double x : clf.weights()) w.f64(x);
  end_section(w, len_pos);
}

void write_waveform_model(ByteWriter& w, const core::WaveformModel& model) {
  if (!model.trained()) {
    throw std::logic_error("save (binary): waveform model not trained");
  }
  const ml::MultiChannelMiniRocket& rocket = model.rocket();
  const std::size_t len_pos = begin_section(w, kTagWaveformModel);
  w.f64(model.threshold());
  w.u64(rocket.options().num_features);
  w.u64(rocket.options().max_dilations);
  w.u64(static_cast<std::uint64_t>(rocket.options().pooling));
  w.u64(rocket.num_channels());
  end_section(w, len_pos);
  for (std::size_t c = 0; c < rocket.num_channels(); ++c) {
    write_minirocket_section(w, rocket.channel(c));
  }
  write_ridge_section(w, model.ridge());
}

void write_file_header(ByteWriter& w, FileKind kind,
                       std::uint64_t record_count,
                       std::uint64_t index_offset) {
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u64(record_count);
  w.u64(index_offset);
  w.u64(0);  // reserved
}

struct NameEntry {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::string name;
};

std::vector<std::uint8_t> build_name_index(
    const std::vector<NameEntry>& entries) {
  ByteWriter w;
  const std::size_t len_pos = begin_section(w, kTagNameIndex);
  w.u64(entries.size());
  std::uint64_t name_off = 0;
  for (const NameEntry& e : entries) {
    w.u64(fnv1a64(e.name));
    w.u64(e.offset);
    w.u64(e.len);
    w.u64(name_off);
    w.u64(e.name.size());
    name_off += e.name.size();
  }
  for (const NameEntry& e : entries) w.str(e.name);
  end_section(w, len_pos);
  const std::uint32_t crc =
      util::crc32(std::span<const std::uint8_t>(w.buffer()));
  w.u32(kTagCrcTrailer);
  w.u32(crc);
  w.u64(0);
  return std::move(w.buffer());
}

void write_all(std::ostream& os, std::span<const std::uint8_t> bytes) {
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) fail(SerializeErrc::kIoError, "stream write failed");
}

// ---- parsing ----------------------------------------------------------

struct FileHeaderInfo {
  FileKind kind = FileKind::kEnrolledUser;
  std::uint64_t record_count = 0;
  std::uint64_t index_offset = 0;
};

FileHeaderInfo parse_file_header(std::span<const std::uint8_t> header) {
  require_little_endian();
  // Magic first, then length: a non-P2MDL001 file (e.g. a text store fed
  // to the binary loader) should say "bad magic", not "truncated".
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
    if (i >= header.size() ||
        header[i] != static_cast<std::uint8_t>(kMagic[i])) {
      fail(SerializeErrc::kBadMagic, "not a P2MDL001 file");
    }
  }
  if (header.size() < kFileHeaderBytes) {
    fail(SerializeErrc::kTruncated, "file shorter than its header");
  }
  ByteReader r(header.subspan(sizeof(kMagic),
                              kFileHeaderBytes - sizeof(kMagic)),
               "file header");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    fail(SerializeErrc::kVersionSkew,
         "unsupported format version " + std::to_string(version));
  }
  FileHeaderInfo info;
  const std::uint32_t kind = r.u32();
  if (kind != static_cast<std::uint32_t>(FileKind::kUserRegistry) &&
      kind != static_cast<std::uint32_t>(FileKind::kEnrolledUser)) {
    fail(SerializeErrc::kBadShape, "unknown file kind");
  }
  info.kind = static_cast<FileKind>(kind);
  info.record_count = r.u64();
  info.index_offset = r.u64();
  return info;
}

// Reads the next section header at `r`, checks the tag, and returns a
// bounded reader over the payload; `r` is advanced past payload+padding.
ByteReader next_section(ByteReader& r, std::span<const std::uint8_t> record,
                        std::size_t body_end, std::uint32_t expect_tag,
                        const char* what) {
  if (r.offset() + kSectionHeaderBytes > body_end) {
    r.fail(SerializeErrc::kTruncated, "section header past record body");
  }
  const std::uint32_t tag = r.u32();
  if (tag != expect_tag) r.fail(SerializeErrc::kBadTag, what);
  r.u32();  // reserved
  const std::uint64_t len = r.u64();
  if (len > body_end - r.offset()) {
    r.fail(SerializeErrc::kTruncated, "section payload past record body");
  }
  ByteReader payload(record.subspan(r.offset(), static_cast<std::size_t>(len)),
                     what);
  r.skip(static_cast<std::size_t>(len), what);
  r.skip_pad8(what);
  return payload;
}

// Checks the 16-byte trailer that follows `covered`: its tag, its
// reserved tail (the only bytes no CRC covers, so it must be zero for no
// byte to flip undetected) and the CRC-32 of `covered`.  `what` names
// the region ("record", "index") in the error.
void check_crc_trailer(std::span<const std::uint8_t> covered,
                       std::span<const std::uint8_t> trailer,
                       const std::string& what) {
  ByteReader t(trailer, "CRC trailer");
  if (t.u32() != kTagCrcTrailer) {
    fail(SerializeErrc::kBadTag, "missing " + what + " CRC trailer");
  }
  const std::uint32_t stored = t.u32();
  if (t.u64() != 0) {
    fail(SerializeErrc::kBadValue, "nonzero trailer reserved bytes");
  }
  if (stored != util::crc32(covered)) {
    fail(SerializeErrc::kBadCrc, what + " checksum mismatch");
  }
}

ml::MiniRocketOptions read_options(ByteReader& p) {
  ml::MiniRocketOptions options;
  options.num_features = p.u64();
  options.max_dilations = p.u64();
  const std::uint64_t pooling = p.u64();
  if (pooling > static_cast<std::uint64_t>(ml::Pooling::kMax)) {
    p.fail(SerializeErrc::kBadValue, "bad pooling value");
  }
  options.pooling = static_cast<ml::Pooling>(pooling);
  return options;
}

ml::MiniRocket decode_minirocket(ByteReader& p) {
  const ml::MiniRocketOptions options = read_options(p);
  const std::uint64_t input_length = p.u64();
  const std::uint64_t n_dilations = p.u64();
  const std::uint64_t biases_per_combo = p.u64();
  if (n_dilations == 0 || n_dilations > kMaxDilations ||
      biases_per_combo == 0 || biases_per_combo > kMaxBiasesPerCombo) {
    p.fail(SerializeErrc::kBadShape, "dilation/bias counts out of range");
  }
  const std::span<const std::int32_t> dilations =
      p.aligned_array<std::int32_t>(static_cast<std::size_t>(n_dilations),
                                    "dilations");
  p.skip_pad8("dilation padding");
  // 84 kernels; counts are capped above so this cannot overflow u64.
  const std::uint64_t n_biases = 84u * n_dilations * biases_per_combo;
  const std::span<const double> biases =
      p.aligned_array<double>(static_cast<std::size_t>(n_biases), "biases");
  if (!p.done()) p.fail(SerializeErrc::kBadShape, "trailing MRKT bytes");
  return ml::MiniRocket::from_parts(
      options, static_cast<std::size_t>(input_length),
      std::vector<int>(dilations.begin(), dilations.end()),
      static_cast<std::size_t>(biases_per_combo),
      std::vector<double>(biases.begin(), biases.end()));
}

linalg::RidgeClassifier decode_ridge(ByteReader& p) {
  const double bias = p.f64();
  const double lambda = p.f64();
  const std::uint64_t n = p.u64();
  if (n == 0) p.fail(SerializeErrc::kBadShape, "empty ridge weights");
  const std::span<const double> weights =
      p.aligned_array<double>(static_cast<std::size_t>(n), "ridge weights");
  if (!p.done()) p.fail(SerializeErrc::kBadShape, "trailing RIDG bytes");
  return linalg::RidgeClassifier::from_parts(
      linalg::Vector(weights.begin(), weights.end()), bias, lambda);
}

core::WaveformModel decode_waveform_model(
    ByteReader& r, std::span<const std::uint8_t> record,
    std::size_t body_end) {
  ByteReader h =
      next_section(r, record, body_end, kTagWaveformModel, "WMDH section");
  const double threshold = h.f64();
  // The multi-channel wrapper's own options ride in the model header so
  // a decoded MultiChannelMiniRocket round-trips exactly.
  const ml::MiniRocketOptions mc_options = read_options(h);
  const std::uint64_t n_channels = h.u64();
  if (!h.done()) h.fail(SerializeErrc::kBadShape, "trailing WMDH bytes");
  if (n_channels == 0 || n_channels > kMaxChannels) {
    h.fail(SerializeErrc::kBadShape, "channel count out of range");
  }
  std::vector<ml::MiniRocket> channels;
  channels.reserve(static_cast<std::size_t>(n_channels));
  for (std::uint64_t c = 0; c < n_channels; ++c) {
    ByteReader p =
        next_section(r, record, body_end, kTagMiniRocket, "MRKT section");
    channels.push_back(decode_minirocket(p));
  }
  ByteReader p = next_section(r, record, body_end, kTagRidge, "RIDG section");
  linalg::RidgeClassifier ridge = decode_ridge(p);
  try {
    return core::WaveformModel::from_parts(
        ml::MultiChannelMiniRocket::from_parts(mc_options,
                                               std::move(channels)),
        std::move(ridge), threshold);
  } catch (const std::invalid_argument& e) {
    throw SerializeError(SerializeErrc::kBadShape, e.what());
  }
}

}  // namespace

std::vector<std::uint8_t> build_user_record(const core::EnrolledUser& user) {
  require_little_endian();
  ByteWriter w;
  w.u32(kTagUserRecord);
  w.u32(0);
  const std::size_t len_pos = w.reserve_u64();

  std::uint16_t presence = 0;
  if (user.full_model.has_value()) presence |= kPresenceFull;
  if (user.boost_model.has_value()) presence |= kPresenceBoost;
  for (std::size_t k = 0; k < user.key_models.size(); ++k) {
    if (user.key_models[k].has_value()) presence |= presence_key(k);
  }

  {
    const std::size_t usrh_pos = begin_section(w, kTagUserHeader);
    w.u32(user.user_id);
    w.u8(user.privacy_boost ? 1 : 0);
    w.u8(0);
    w.u16(presence);
    w.u64(user.stats.full_positives);
    w.u64(user.stats.full_negatives);
    w.u64(user.stats.segment_positives);
    w.u64(user.stats.segment_negatives);
    w.u64(user.stats.key_models_trained);
    w.u64(user.pin.digits().size());
    w.str(user.pin.digits());
    end_section(w, usrh_pos);
  }

  if (user.full_model.has_value()) write_waveform_model(w, *user.full_model);
  if (user.boost_model.has_value()) write_waveform_model(w, *user.boost_model);
  for (const auto& key_model : user.key_models) {
    if (key_model.has_value()) write_waveform_model(w, *key_model);
  }

  // Patch the total length first so the CRC covers the final bytes.
  const std::uint64_t record_len = w.size() + kRecordTrailerBytes;
  w.patch_u64(len_pos, record_len);
  const std::uint32_t crc =
      util::crc32(std::span<const std::uint8_t>(w.buffer()));
  w.u32(kTagCrcTrailer);
  w.u32(crc);
  w.u64(0);
  return std::move(w.buffer());
}

core::EnrolledUser decode_user_record(std::span<const std::uint8_t> record) {
  require_little_endian();
  if (record.size() < kSectionHeaderBytes + kRecordTrailerBytes) {
    fail(SerializeErrc::kTruncated, "record shorter than header + trailer");
  }
  if (record.size() % 8 != 0) {
    fail(SerializeErrc::kBadAlignment, "record length not 8-aligned");
  }
  // Integrity first: a flipped bit inside the record surfaces as kBadCrc
  // instead of whatever structural error the scrambled bytes happen to
  // produce.
  const std::size_t body_end = record.size() - kRecordTrailerBytes;
  check_crc_trailer(record.first(body_end), record.subspan(body_end),
                    "record");

  ByteReader r(record, "user record");
  if (r.u32() != kTagUserRecord) {
    r.fail(SerializeErrc::kBadTag, "bad record tag");
  }
  r.u32();  // reserved
  if (r.u64() != record.size()) {
    r.fail(SerializeErrc::kBadShape, "record length field mismatch");
  }

  core::EnrolledUser user;
  std::uint16_t presence = 0;
  {
    ByteReader p =
        next_section(r, record, body_end, kTagUserHeader, "USRH section");
    user.user_id = p.u32();
    const std::uint8_t boost = p.u8();
    if (boost > 1) p.fail(SerializeErrc::kBadValue, "bad privacy flag");
    user.privacy_boost = boost == 1;
    p.u8();  // reserved
    presence = p.u16();
    if ((presence & ~kPresenceAllKnown) != 0) {
      p.fail(SerializeErrc::kBadShape, "unknown model-presence bits");
    }
    user.stats.full_positives = p.u64();
    user.stats.full_negatives = p.u64();
    user.stats.segment_positives = p.u64();
    user.stats.segment_negatives = p.u64();
    user.stats.key_models_trained = p.u64();
    const std::uint64_t pin_len = p.u64();
    if (pin_len > kMaxPinBytes) {
      p.fail(SerializeErrc::kBadShape, "pin too long");
    }
    const std::string_view pin =
        p.str(static_cast<std::size_t>(pin_len), "pin");
    if (!p.done()) p.fail(SerializeErrc::kBadShape, "trailing USRH bytes");
    try {
      user.pin = keystroke::Pin(pin);
    } catch (const std::invalid_argument& e) {
      throw SerializeError(SerializeErrc::kBadValue, e.what());
    }
  }

  if (presence & kPresenceFull) {
    user.full_model = decode_waveform_model(r, record, body_end);
  }
  if (presence & kPresenceBoost) {
    user.boost_model = decode_waveform_model(r, record, body_end);
  }
  for (std::size_t k = 0; k < user.key_models.size(); ++k) {
    if (presence & presence_key(k)) {
      user.key_models[k] = decode_waveform_model(r, record, body_end);
    }
  }
  if (r.offset() != body_end) {
    r.fail(SerializeErrc::kBadShape, "trailing bytes after last model");
  }
  if (user.privacy_boost && !user.boost_model.has_value()) {
    fail(SerializeErrc::kBadShape,
         "privacy boost set without a boost model");
  }
  return user;
}

// ---- eager stream / file round trips ----------------------------------

void save_enrolled_user_binary(const core::EnrolledUser& user,
                               std::ostream& os) {
  ByteWriter header;
  write_file_header(header, FileKind::kEnrolledUser, 1, 0);
  write_all(os, header.buffer());
  write_all(os, build_user_record(user));
}

void save_enrolled_user_binary_file(const core::EnrolledUser& user,
                                    const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(SerializeErrc::kIoError, "cannot open " + path);
  save_enrolled_user_binary(user, out);
  if (!out) fail(SerializeErrc::kIoError, "write failed: " + path);
}

namespace {

// Reads the rest of a seekable stream into a buffer, bounded by the
// bytes actually present (never by a length field).
std::vector<std::uint8_t> slurp(std::istream& is) {
  const std::optional<std::uint64_t> rem = util::remaining_bytes(is);
  if (!rem.has_value()) {
    fail(SerializeErrc::kIoError,
         "binary loading requires a seekable stream");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(*rem));
  if (!bytes.empty() &&
      !is.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()))) {
    fail(SerializeErrc::kIoError, "stream read failed");
  }
  return bytes;
}

}  // namespace

core::EnrolledUser load_enrolled_user_binary(std::istream& is) {
  const std::vector<std::uint8_t> bytes = slurp(is);
  const FileHeaderInfo info = parse_file_header(bytes);
  if (info.kind != FileKind::kEnrolledUser) {
    fail(SerializeErrc::kBadShape, "not a single-user file");
  }
  if (info.record_count != 1) {
    fail(SerializeErrc::kBadShape, "single-user file must hold one record");
  }
  return decode_user_record(
      std::span<const std::uint8_t>(bytes).subspan(kFileHeaderBytes));
}

core::EnrolledUser load_enrolled_user_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(SerializeErrc::kIoError, "cannot open " + path);
  return load_enrolled_user_binary(in);
}

void save_user_registry_binary(const core::UserRegistry& registry,
                               std::ostream& os) {
  const std::streampos start = os.tellp();
  if (start == std::streampos(-1)) {
    fail(SerializeErrc::kIoError,
         "registry writing requires a seekable stream");
  }
  // Stream record by record (one record resident at a time); the index
  // offset is known only once the last record is out, so the header is
  // patched afterwards.
  ByteWriter header;
  write_file_header(header, FileKind::kUserRegistry, registry.size(), 0);
  write_all(os, header.buffer());
  std::vector<NameEntry> entries;
  std::uint64_t offset = kFileHeaderBytes;
  for (const std::string& name : registry.names()) {
    const std::vector<std::uint8_t> record =
        build_user_record(*registry.find(name));
    write_all(os, record);
    entries.push_back({offset, record.size(), name});
    offset += record.size();
  }
  write_all(os, build_name_index(entries));
  // index_offset lives at byte 24 of the header (magic 8 + version 4 +
  // kind 4 + record_count 8).
  const std::streampos end = os.tellp();
  ByteWriter patch;
  patch.u64(offset);
  os.seekp(start + std::streamoff(24));
  write_all(os, patch.buffer());
  os.seekp(end);
  if (!os) fail(SerializeErrc::kIoError, "stream seek failed");
}

void save_user_registry_binary_file(const core::UserRegistry& registry,
                                    const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(SerializeErrc::kIoError, "cannot open " + path);
  save_user_registry_binary(registry, out);
  out.flush();
  if (!out) fail(SerializeErrc::kIoError, "write failed: " + path);
}

std::vector<detail::RegistryEntry> detail::parse_registry_index(
    std::span<const std::uint8_t> file) {
  const FileHeaderInfo info = parse_file_header(file);
  if (info.kind != FileKind::kUserRegistry) {
    fail(SerializeErrc::kBadShape, "not a registry file");
  }
  if (info.index_offset < kFileHeaderBytes ||
      info.index_offset % 8 != 0 || info.index_offset > file.size()) {
    fail(SerializeErrc::kBadShape, "index offset out of bounds");
  }
  const std::span<const std::uint8_t> index_region =
      file.subspan(static_cast<std::size_t>(info.index_offset));
  if (index_region.size() < kSectionHeaderBytes + kRecordTrailerBytes) {
    fail(SerializeErrc::kTruncated, "name index truncated");
  }
  ByteReader r(index_region, "name index");
  if (r.u32() != kTagNameIndex) {
    r.fail(SerializeErrc::kBadTag, "missing name index");
  }
  r.u32();  // reserved
  const std::uint64_t payload_len = r.u64();
  const std::uint64_t index_bytes =
      kSectionHeaderBytes + align8(payload_len);
  if (payload_len > index_region.size() ||
      index_bytes + kRecordTrailerBytes > index_region.size()) {
    r.fail(SerializeErrc::kTruncated, "name index payload truncated");
  }
  // Index integrity: CRC over section header + padded payload.
  check_crc_trailer(
      index_region.first(static_cast<std::size_t>(index_bytes)),
      index_region.subspan(static_cast<std::size_t>(index_bytes),
                           kRecordTrailerBytes),
      "index");
  ByteReader p(index_region.subspan(kSectionHeaderBytes,
                                    static_cast<std::size_t>(payload_len)),
               "name index payload");
  const std::uint64_t count = p.u64();
  if (count != info.record_count) {
    p.fail(SerializeErrc::kBadShape, "index/header record count mismatch");
  }
  struct RawEntry {
    std::uint64_t hash, offset, len, name_off, name_len;
  };
  if (count > p.remaining() / 40) {
    p.fail(SerializeErrc::kTruncated, "index entries truncated");
  }
  std::vector<RawEntry> raw(static_cast<std::size_t>(count));
  for (RawEntry& e : raw) {
    e.hash = p.u64();
    e.offset = p.u64();
    e.len = p.u64();
    e.name_off = p.u64();
    e.name_len = p.u64();
  }
  const std::string_view blob =
      p.str(p.remaining(), "name blob");
  std::vector<RegistryEntry> entries;
  entries.reserve(raw.size());
  std::unordered_set<std::string_view> seen;
  for (const RawEntry& e : raw) {
    if (e.offset < kFileHeaderBytes || e.offset % 8 != 0 ||
        e.len < kSectionHeaderBytes + kRecordTrailerBytes ||
        e.len % 8 != 0 || e.offset > info.index_offset ||
        e.len > info.index_offset - e.offset) {
      fail(SerializeErrc::kBadShape, "index entry record span out of bounds");
    }
    if (e.name_len == 0 || e.name_len > kMaxNameBytes ||
        e.name_off > blob.size() || e.name_len > blob.size() - e.name_off) {
      fail(SerializeErrc::kBadShape, "index entry name out of bounds");
    }
    const std::string_view name =
        blob.substr(static_cast<std::size_t>(e.name_off),
                    static_cast<std::size_t>(e.name_len));
    if (e.hash != fnv1a64(name)) {
      fail(SerializeErrc::kBadValue, "index entry hash mismatch");
    }
    if (!seen.insert(name).second) {
      fail(SerializeErrc::kDuplicateName,
           "duplicate registry name '" + std::string(name) + "'");
    }
    entries.push_back({e.hash, e.offset, e.len, name});
  }
  return entries;
}

core::UserRegistry load_user_registry_binary(std::istream& is) {
  const MappedRegistry store(MappedFile::own(slurp(is)));
  core::UserRegistry registry;
  for (const std::string_view name : store.names()) {
    registry.add(std::string(name), *store.find(name));
  }
  return registry;
}

FileKind probe_file_kind(std::istream& is) {
  const std::streampos start = is.tellg();
  std::array<std::uint8_t, kFileHeaderBytes> header{};
  is.read(reinterpret_cast<char*>(header.data()), header.size());
  const std::size_t got = static_cast<std::size_t>(is.gcount());
  is.clear();
  is.seekg(start);
  return parse_file_header(std::span(header).first(got)).kind;
}

}  // namespace p2auth::io

#include "obs/audit.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/sketch.hpp"
#include "util/crc32.hpp"

namespace p2auth::obs {

namespace {

// ---- on-disk layout constants -------------------------------------------
// File header: 8-byte magic, u16 format version, u16 reserved (0), u32
// CRC32 over the preceding 12 bytes.  Record frame: u32 frame magic, u16
// version, u16 payload length, payload, u32 CRC32 over version + length +
// payload.  Everything little-endian.
constexpr std::uint8_t kFileMagic[8] = {'P', '2', 'A', 'U',
                                        'D', 'T', '0', '1'};
constexpr std::uint32_t kFrameMagic = 0xA17D0C0Du;
// v1 payload is fixed-size; the length field exists so future versions
// can grow records without breaking the frame walk.
constexpr std::size_t kPayloadV1 =
    8 + 8 + 4 + 8 * 1 + kAuditMaxVotes + 4 + 4 * 6;
constexpr std::size_t kMaxPayload = 4096;

// ---- little-endian scribble helpers -------------------------------------

void put_bytes(std::vector<std::uint8_t>& out, const void* p,
               std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_integral_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::make_unsigned_t<T>>(value) >> (8 * i)));
  }
}

void put_f32(std::vector<std::uint8_t>& out, float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  put_le(out, bits);
}

struct ByteCursor {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  bool take(void* out, std::size_t n) noexcept {
    if (pos + n > size) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  template <typename T>
  bool take_le(T& out) noexcept {
    static_assert(std::is_integral_v<T>);
    if (pos + sizeof(T) > size) return false;
    std::make_unsigned_t<T> v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::make_unsigned_t<T>>(data[pos + i]) << (8 * i);
    }
    pos += sizeof(T);
    out = static_cast<T>(v);
    return true;
  }
  bool take_f32(float& out) noexcept {
    std::uint32_t bits = 0;
    if (!take_le(bits)) return false;
    std::memcpy(&out, &bits, sizeof(out));
    return true;
  }
};

void encode_payload(const DecisionRecord& r, std::vector<std::uint8_t>& out) {
  put_le(out, r.seq);
  put_le(out, r.timestamp_us);
  put_le(out, r.user_id);
  put_le(out, r.accepted);
  put_le(out, r.pin_checked);
  put_le(out, r.pin_ok);
  put_le(out, r.reason);
  put_le(out, r.model_path);
  put_le(out, r.detected_case);
  put_le(out, r.num_votes);
  put_le(out, r.channels);
  put_bytes(out, r.votes, kAuditMaxVotes);
  put_le(out, r.channel_mask);
  put_f32(out, r.score);
  put_f32(out, r.threshold);
  put_f32(out, r.pin_us);
  put_f32(out, r.preprocess_us);
  put_f32(out, r.model_us);
  put_f32(out, r.total_us);
}

bool decode_payload(ByteCursor cursor, DecisionRecord& r) noexcept {
  return cursor.take_le(r.seq) && cursor.take_le(r.timestamp_us) &&
         cursor.take_le(r.user_id) && cursor.take_le(r.accepted) &&
         cursor.take_le(r.pin_checked) && cursor.take_le(r.pin_ok) &&
         cursor.take_le(r.reason) && cursor.take_le(r.model_path) &&
         cursor.take_le(r.detected_case) && cursor.take_le(r.num_votes) &&
         cursor.take_le(r.channels) &&
         cursor.take(r.votes, kAuditMaxVotes) &&
         cursor.take_le(r.channel_mask) && cursor.take_f32(r.score) &&
         cursor.take_f32(r.threshold) && cursor.take_f32(r.pin_us) &&
         cursor.take_f32(r.preprocess_us) && cursor.take_f32(r.model_us) &&
         cursor.take_f32(r.total_us);
}

std::string code_name(const std::function<std::string(std::uint8_t)>& fn,
                      std::uint8_t code) {
  return fn ? fn(code) : std::to_string(code);
}

}  // namespace

// ---------------------------------------------------------------------------
// AuditRing

AuditRing::AuditRing(std::size_t capacity) {
  std::size_t pow2 = 2;
  while (pow2 < capacity) pow2 <<= 1;
  cells_ = std::vector<Cell>(pow2);
  mask_ = pow2 - 1;
  for (std::size_t i = 0; i < pow2; ++i) {
    cells_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

bool AuditRing::push(const DecisionRecord& record) noexcept {
  std::uint64_t pos = enqueue_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const auto diff = static_cast<std::int64_t>(seq) -
                      static_cast<std::int64_t>(pos);
    if (diff == 0) {
      if (enqueue_.compare_exchange_weak(pos, pos + 1,
                                         std::memory_order_relaxed)) {
        cell.record = record;
        cell.sequence.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // full
    } else {
      pos = enqueue_.load(std::memory_order_relaxed);
    }
  }
}

bool AuditRing::pop(DecisionRecord& out) noexcept {
  std::uint64_t pos = dequeue_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const auto diff = static_cast<std::int64_t>(seq) -
                      static_cast<std::int64_t>(pos + 1);
    if (diff == 0) {
      if (dequeue_.compare_exchange_weak(pos, pos + 1,
                                         std::memory_order_relaxed)) {
        out = cell.record;
        cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // empty
    } else {
      pos = dequeue_.load(std::memory_order_relaxed);
    }
  }
}

bool AuditRing::empty() const noexcept {
  return dequeue_.load(std::memory_order_acquire) ==
         enqueue_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// AuditRecorder

struct AuditRecorder::FileHandle {
  std::ofstream stream;
  std::mutex mutex;  // serializes drainer writes with flush()
  std::vector<std::uint8_t> scratch;
};

AuditRecorder::AuditRecorder(std::string path, Options options)
    : path_(std::move(path)),
      options_(options),
      ring_(options.ring_capacity),
      file_(std::make_unique<FileHandle>()) {
  file_->stream.open(path_, std::ios::binary | std::ios::trunc);
  if (!file_->stream) {
    throw std::runtime_error("AuditRecorder: cannot open " + path_);
  }
  std::vector<std::uint8_t> header;
  put_bytes(header, kFileMagic, sizeof(kFileMagic));
  put_le(header, kAuditFormatVersion);
  put_le(header, std::uint16_t{0});  // reserved
  put_le(header, util::crc32(header));
  file_->stream.write(reinterpret_cast<const char*>(header.data()),
                      static_cast<std::streamsize>(header.size()));
  bytes_.store(header.size(), std::memory_order_relaxed);
  drainer_ = std::thread([this] { drain_loop(); });
}

AuditRecorder::~AuditRecorder() {
  stop_.store(true, std::memory_order_release);
  if (drainer_.joinable()) drainer_.join();
  // Final drain: the drainer exited after seeing stop_, but records may
  // have landed between its last pass and the join.
  DecisionRecord record;
  while (ring_.pop(record)) write_frame(record);
  file_->stream.flush();
}

bool AuditRecorder::record(DecisionRecord record) noexcept {
  record.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  if (!ring_.push(record)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AuditRecorder::write_frame(const DecisionRecord& record) {
  std::vector<std::uint8_t>& buf = file_->scratch;
  buf.clear();
  put_le(buf, kFrameMagic);
  const std::size_t body_begin = buf.size();
  put_le(buf, kAuditFormatVersion);
  put_le(buf, static_cast<std::uint16_t>(kPayloadV1));
  encode_payload(record, buf);
  const std::uint32_t crc = util::crc32(
      std::span<const std::uint8_t>(buf.data() + body_begin,
                                    buf.size() - body_begin));
  put_le(buf, crc);
  file_->stream.write(reinterpret_cast<const char*>(buf.data()),
                      static_cast<std::streamsize>(buf.size()));
  written_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
}

void AuditRecorder::drain_loop() {
  DecisionRecord record;
  for (;;) {
    bool wrote = false;
    {
      const std::lock_guard<std::mutex> lock(file_->mutex);
      while (ring_.pop(record)) {
        write_frame(record);
        wrote = true;
      }
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (!wrote) std::this_thread::sleep_for(options_.idle_sleep);
  }
}

void AuditRecorder::flush() {
  // Wait for the drainer to empty the ring, then flush the stream under
  // the write lock so no half-written frame is visible.
  while (!ring_.empty() && !stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const std::lock_guard<std::mutex> lock(file_->mutex);
  DecisionRecord record;
  while (ring_.pop(record)) write_frame(record);
  file_->stream.flush();
}

AuditStats AuditRecorder::stats() const noexcept {
  AuditStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.written = written_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

namespace {
std::atomic<AuditRecorder*> g_audit_recorder{nullptr};
}  // namespace

void install_audit_recorder(AuditRecorder* recorder) noexcept {
  g_audit_recorder.store(recorder, std::memory_order_release);
}

AuditRecorder* audit_recorder() noexcept {
  return g_audit_recorder.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Reader

const char* to_string(AuditError error) noexcept {
  switch (error) {
    case AuditError::kNone:
      return "ok";
    case AuditError::kIoError:
      return "io_error";
    case AuditError::kBadHeader:
      return "bad_header";
    case AuditError::kTruncated:
      return "truncated";
    case AuditError::kBadFrameMagic:
      return "bad_frame_magic";
    case AuditError::kVersionSkew:
      return "version_skew";
    case AuditError::kBadLength:
      return "bad_length";
    case AuditError::kBadCrc:
      return "bad_crc";
  }
  return "?";
}

AuditReadResult read_audit_log(std::istream& is) {
  AuditReadResult result;
  const auto fail = [&](AuditError error, std::uint64_t offset) {
    result.error = error;
    result.error_offset = offset;
    return result;
  };

  std::uint8_t header[16];
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    return fail(AuditError::kBadHeader, 0);
  }
  if (std::memcmp(header, kFileMagic, sizeof(kFileMagic)) != 0) {
    return fail(AuditError::kBadHeader, 0);
  }
  const std::uint16_t file_version =
      static_cast<std::uint16_t>(header[8] | (header[9] << 8));
  const std::uint32_t header_crc =
      static_cast<std::uint32_t>(header[12]) |
      (static_cast<std::uint32_t>(header[13]) << 8) |
      (static_cast<std::uint32_t>(header[14]) << 16) |
      (static_cast<std::uint32_t>(header[15]) << 24);
  if (util::crc32(std::span<const std::uint8_t>(header, 12)) != header_crc) {
    return fail(AuditError::kBadHeader, 0);
  }
  if (file_version != kAuditFormatVersion) {
    return fail(AuditError::kVersionSkew, 0);
  }

  std::uint64_t offset = sizeof(header);
  std::vector<std::uint8_t> frame;
  for (;;) {
    std::uint8_t head[8];  // frame magic + version + length
    is.read(reinterpret_cast<char*>(head), sizeof(head));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got == 0) return result;  // clean EOF at a frame boundary
    if (got < sizeof(head)) return fail(AuditError::kTruncated, offset);
    const std::uint32_t magic = static_cast<std::uint32_t>(head[0]) |
                                (static_cast<std::uint32_t>(head[1]) << 8) |
                                (static_cast<std::uint32_t>(head[2]) << 16) |
                                (static_cast<std::uint32_t>(head[3]) << 24);
    if (magic != kFrameMagic) return fail(AuditError::kBadFrameMagic, offset);
    const std::uint16_t version =
        static_cast<std::uint16_t>(head[4] | (head[5] << 8));
    const std::uint16_t length =
        static_cast<std::uint16_t>(head[6] | (head[7] << 8));
    if (length > kMaxPayload) return fail(AuditError::kBadLength, offset);
    frame.resize(static_cast<std::size_t>(length) + 4);  // payload + CRC
    is.read(reinterpret_cast<char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
    if (static_cast<std::size_t>(is.gcount()) < frame.size()) {
      return fail(AuditError::kTruncated, offset);
    }
    // CRC covers version + length + payload, exactly as written.
    std::vector<std::uint8_t> covered;
    covered.reserve(4 + length);
    covered.push_back(head[4]);
    covered.push_back(head[5]);
    covered.push_back(head[6]);
    covered.push_back(head[7]);
    covered.insert(covered.end(), frame.begin(), frame.begin() + length);
    const std::uint32_t stored =
        static_cast<std::uint32_t>(frame[length]) |
        (static_cast<std::uint32_t>(frame[length + 1]) << 8) |
        (static_cast<std::uint32_t>(frame[length + 2]) << 16) |
        (static_cast<std::uint32_t>(frame[length + 3]) << 24);
    if (util::crc32(covered) != stored) {
      return fail(AuditError::kBadCrc, offset);
    }
    // Version gate *after* the integrity check: a record from a newer
    // writer is intact but not interpretable; typed error, no guessing.
    if (version != kAuditFormatVersion) {
      return fail(AuditError::kVersionSkew, offset);
    }
    if (length != kPayloadV1) return fail(AuditError::kBadLength, offset);
    DecisionRecord record;
    if (!decode_payload(ByteCursor{frame.data(), length, 0}, record)) {
      return fail(AuditError::kBadLength, offset);
    }
    result.records.push_back(record);
    offset += sizeof(head) + frame.size();
  }
}

AuditReadResult read_audit_log(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    AuditReadResult result;
    result.error = AuditError::kIoError;
    return result;
  }
  return read_audit_log(is);
}

// ---------------------------------------------------------------------------
// Exports

namespace {

Json record_to_json(const DecisionRecord& r, const AuditCodeNames& names) {
  Json doc = Json::object();
  doc.set("seq", static_cast<std::int64_t>(r.seq));
  doc.set("t_us", r.timestamp_us);
  doc.set("user", static_cast<std::int64_t>(r.user_id));
  doc.set("accepted", r.accepted != 0);
  doc.set("pin_checked", r.pin_checked != 0);
  doc.set("pin_ok", r.pin_ok != 0);
  doc.set("reason", code_name(names.reason, r.reason));
  doc.set("model_path", code_name(names.model_path, r.model_path));
  doc.set("case", code_name(names.detected_case, r.detected_case));
  Json votes = Json::array();
  for (std::size_t i = 0; i < r.num_votes && i < kAuditMaxVotes; ++i) {
    votes.push(static_cast<std::int64_t>(r.votes[i]));
  }
  doc.set("votes", std::move(votes));
  doc.set("channels", static_cast<std::int64_t>(r.channels));
  doc.set("channel_mask", static_cast<std::int64_t>(r.channel_mask));
  doc.set("score", static_cast<double>(r.score));
  doc.set("threshold", static_cast<double>(r.threshold));
  Json stages = Json::object();
  stages.set("pin_us", static_cast<double>(r.pin_us));
  stages.set("preprocess_us", static_cast<double>(r.preprocess_us));
  stages.set("model_us", static_cast<double>(r.model_us));
  stages.set("total_us", static_cast<double>(r.total_us));
  doc.set("stages", std::move(stages));
  return doc;
}

}  // namespace

void write_audit_jsonl(std::ostream& os,
                       std::span<const DecisionRecord> records,
                       const AuditCodeNames& names) {
  for (const DecisionRecord& r : records) {
    record_to_json(r, names).dump(os, 0);
    os << '\n';
  }
}

Json summarize_audit(std::span<const DecisionRecord> records,
                     const AuditCodeNames& names) {
  Json doc = Json::object();
  doc.set("records", static_cast<std::int64_t>(records.size()));
  std::uint64_t accepted = 0;
  std::map<std::string, std::uint64_t> by_reason;
  std::map<std::string, std::uint64_t> by_model_path;
  QuantileSketch scores;
  QuantileSketch latency;
  std::uint64_t degraded = 0;
  for (const DecisionRecord& r : records) {
    accepted += r.accepted != 0 ? 1 : 0;
    if (r.accepted == 0) ++by_reason[code_name(names.reason, r.reason)];
    ++by_model_path[code_name(names.model_path, r.model_path)];
    if (r.model_path != 0) scores.add(static_cast<double>(r.score));
    if (r.total_us > 0.0f) latency.add(static_cast<double>(r.total_us));
    if (r.channels > 0) {
      const auto full = (std::uint32_t{1} << r.channels) - 1;
      if ((r.channel_mask & full) != full) ++degraded;
    }
  }
  doc.set("accepted", static_cast<std::int64_t>(accepted));
  doc.set("accept_rate",
          records.empty()
              ? 0.0
              : static_cast<double>(accepted) /
                    static_cast<double>(records.size()));
  doc.set("degraded_channel_attempts", static_cast<std::int64_t>(degraded));
  Json reasons = Json::object();
  for (const auto& [name, count] : by_reason) {
    reasons.set(name, static_cast<std::int64_t>(count));
  }
  doc.set("rejects_by_reason", std::move(reasons));
  Json paths = Json::object();
  for (const auto& [name, count] : by_model_path) {
    paths.set(name, static_cast<std::int64_t>(count));
  }
  doc.set("by_model_path", std::move(paths));
  doc.set("scores", scores.summary());
  doc.set("latency_us", latency.summary());
  return doc;
}

}  // namespace p2auth::obs

// Decision flight recorder: a bounded lock-free ring of structured
// per-decision records, drained by a background writer thread into an
// append-only binary log of CRC32-framed, versioned records (the same
// framing discipline the planned binary model format uses), plus a JSONL
// export and a typed-error reader for forensics.
//
// Layering: obs stays below core, so a record carries the core enums
// (RejectReason, ModelPath, DetectedCase) as stable numeric codes.  The
// code values are pinned by tests in tests/test_audit.cpp; core adapters
// fill them with static_cast and tools/audit_inspect (which links core)
// maps them back to slugs.
//
// Hot-path contract: `AuditRecorder::record()` never blocks and never
// allocates — one fixed-size copy into a ring slot plus two atomic
// operations.  When the ring is full the record is dropped and counted
// (`stats().dropped`), never awaited: authentication latency must not
// inherit disk latency.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace p2auth::obs {

// ---------------------------------------------------------------------------
// Record

inline constexpr std::size_t kAuditMaxVotes = 8;

// One authentication decision.  Fixed-size and trivially copyable so ring
// slots are plain copies; on disk it is serialized field-by-field in
// little-endian order (never memcpy'd), see audit.cpp.
struct DecisionRecord {
  std::uint64_t seq = 0;          // assigned by the recorder at submit
  std::int64_t timestamp_us = 0;  // obs::now_us timeline
  std::uint32_t user_id = 0;
  std::uint8_t accepted = 0;
  std::uint8_t pin_checked = 0;
  std::uint8_t pin_ok = 0;
  std::uint8_t reason = 0;         // core::RejectReason code
  std::uint8_t model_path = 0;     // core::ModelPath code
  std::uint8_t detected_case = 0;  // core::DetectedCase code
  std::uint8_t num_votes = 0;      // votes[0..num_votes) are valid
  std::uint8_t channels = 0;       // channels assessed (0 = not reached)
  std::int8_t votes[kAuditMaxVotes] = {};  // +1 pass / -1 fail per keystroke
  std::uint32_t channel_mask = 0;  // bit c set = channel c healthy
  float score = 0.0f;      // fused decision score (>= threshold accepts)
  float threshold = 0.0f;  // accept boundary the score was compared to
  // Stage latencies (microseconds): PIN factor, preprocessing + case
  // identification, model scoring, end-to-end.
  float pin_us = 0.0f;
  float preprocess_us = 0.0f;
  float model_us = 0.0f;
  float total_us = 0.0f;
};

// ---------------------------------------------------------------------------
// Binary framing

inline constexpr std::uint16_t kAuditFormatVersion = 1;

// ---------------------------------------------------------------------------
// Lock-free bounded MPMC ring (Vyukov-style ticket ring).  Producers and
// consumers never block; a full ring fails the push instead.

class AuditRing {
 public:
  // Capacity is rounded up to the next power of two (minimum 2).
  explicit AuditRing(std::size_t capacity);

  bool push(const DecisionRecord& record) noexcept;  // false when full
  bool pop(DecisionRecord& out) noexcept;            // false when empty

  std::size_t capacity() const noexcept { return cells_.size(); }
  bool empty() const noexcept;

 private:
  struct Cell {
    std::atomic<std::uint64_t> sequence;
    DecisionRecord record;
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> enqueue_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_{0};
};

// ---------------------------------------------------------------------------
// Recorder (writer side)

struct AuditStats {
  std::uint64_t submitted = 0;  // record() calls that entered the ring
  std::uint64_t dropped = 0;    // record() calls refused by a full ring
  std::uint64_t written = 0;    // records framed out to the log
  std::uint64_t bytes = 0;      // bytes appended to the log
};

class AuditRecorder {
 public:
  struct Options {
    std::size_t ring_capacity = 4096;
    // Drainer sleep while the ring is empty.
    std::chrono::milliseconds idle_sleep{1};
  };

  // Opens (truncates) `path` and starts the background drainer.  Throws
  // std::runtime_error when the file cannot be opened.
  AuditRecorder(std::string path, Options options);
  explicit AuditRecorder(std::string path)
      : AuditRecorder(std::move(path), Options{}) {}
  // Stops the drainer, drains the ring and flushes the file.
  ~AuditRecorder();

  AuditRecorder(const AuditRecorder&) = delete;
  AuditRecorder& operator=(const AuditRecorder&) = delete;

  // Assigns `seq` and submits; returns false (and counts the drop) when
  // the ring is full.  Lock-free, allocation-free, never blocks.
  bool record(DecisionRecord record) noexcept;

  // Blocks until every record submitted before the call is on disk (the
  // stream is flushed; cold path, test / shutdown use).
  void flush();

  AuditStats stats() const noexcept;
  const std::string& path() const noexcept { return path_; }

 private:
  void drain_loop();
  void write_frame(const DecisionRecord& record);

  std::string path_;
  Options options_;
  AuditRing ring_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<bool> stop_{false};
  struct FileHandle;  // hides <fstream> from the header
  std::unique_ptr<FileHandle> file_;
  std::thread drainer_;
};

// Global sink consulted by the core call sites.  The caller owns the
// recorder and must uninstall (install nullptr) before destroying it.
void install_audit_recorder(AuditRecorder* recorder) noexcept;
AuditRecorder* audit_recorder() noexcept;

// ---------------------------------------------------------------------------
// Reader (typed errors, no exceptions for corrupt input)

enum class AuditError {
  kNone,
  kIoError,        // file could not be opened / read
  kBadHeader,      // file header magic/version/CRC wrong
  kTruncated,      // EOF inside a frame (e.g. a torn final record)
  kBadFrameMagic,  // frame does not start with the frame magic
  kVersionSkew,    // frame written by an unknown format version
  kBadLength,      // frame length field out of range
  kBadCrc,         // frame payload does not match its CRC32
};

const char* to_string(AuditError error) noexcept;

struct AuditReadResult {
  std::vector<DecisionRecord> records;  // frames decoded before the error
  AuditError error = AuditError::kNone;
  std::uint64_t error_offset = 0;  // byte offset of the offending frame

  bool ok() const noexcept { return error == AuditError::kNone; }
};

// Decodes an audit log.  Corruption is reported through the typed error
// (with the records decoded up to that point), never thrown and never
// silently skipped.
AuditReadResult read_audit_log(std::istream& is);
AuditReadResult read_audit_log(const std::string& path);

// ---------------------------------------------------------------------------
// Exports

// Maps record codes to human-readable names for the JSONL export and the
// summary.  Defaults print the raw numeric code; tools/audit_inspect
// installs resolvers backed by the core enum slugs.
struct AuditCodeNames {
  std::function<std::string(std::uint8_t)> reason;
  std::function<std::string(std::uint8_t)> model_path;
  std::function<std::string(std::uint8_t)> detected_case;
};

// One compact JSON object per record, one record per line.
void write_audit_jsonl(std::ostream& os,
                       std::span<const DecisionRecord> records,
                       const AuditCodeNames& names = {});

// Aggregate view of a decoded log: counts, accept rate, per-reason
// tallies, score and latency sketch quantiles.
Json summarize_audit(std::span<const DecisionRecord> records,
                     const AuditCodeNames& names = {});

}  // namespace p2auth::obs

// Decision flight recorder: lock-free ring semantics, concurrent
// record/drain round-trips, on-disk framing durability (every corruption
// is a typed error, never a crash or a silent skip), the audit-code
// pinning contract with core, and the JSONL/summary exports.
#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/types.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace p2auth::obs {
namespace {

// On-disk layout (pinned by the format, see audit.cpp): 16-byte file
// header, then 76-byte v1 frames (8-byte frame head + 64-byte payload +
// 4-byte CRC).
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kFrameBytes = 76;

DecisionRecord make_record(std::uint32_t user, float score, bool accepted) {
  DecisionRecord r;
  r.timestamp_us = 1000 + user;
  r.user_id = user;
  r.accepted = accepted ? 1 : 0;
  r.pin_checked = 1;
  r.pin_ok = 1;
  r.reason = accepted
                 ? core::audit_code(core::RejectReason::kNone)
                 : core::audit_code(core::RejectReason::kModelRejected);
  r.model_path = core::audit_code(core::ModelPath::kFullWaveform);
  r.detected_case = core::audit_code(core::DetectedCase::kOneHanded);
  r.num_votes = 2;
  r.votes[0] = 1;
  r.votes[1] = -1;
  r.channels = 3;
  r.channel_mask = 0b101;
  r.score = score;
  r.threshold = 0.0f;
  r.pin_us = 1.5f;
  r.preprocess_us = 20.0f;
  r.model_us = 100.0f;
  r.total_us = 121.5f;
  return r;
}

// PID-qualified so concurrently running test processes (ctest -j runs
// each gtest case in its own process) never collide on a scratch file.
std::string unique_path(const char* tag) {
  return std::string("/tmp/p2auth_test_audit_") + tag + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Records a small log and returns its raw bytes (file is removed).
std::string make_log_bytes(std::size_t records) {
  const std::string path = unique_path("template");
  {
    AuditRecorder recorder(path);
    for (std::size_t i = 0; i < records; ++i) {
      EXPECT_TRUE(recorder.record(make_record(
          static_cast<std::uint32_t>(i), 0.5f, true)))
          << "ring refused record " << i;
    }
    recorder.flush();
  }
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), kHeaderBytes + records * kFrameBytes);
  return bytes;
}

// ---------------------------------------------------------------------------
// Ring

TEST(AuditRing, FifoOrderAndEmptyPop) {
  AuditRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.empty());
  DecisionRecord out;
  EXPECT_FALSE(ring.pop(out));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(ring.push(make_record(i, 0.0f, true)));
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out.user_id, i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(AuditRing, FullRingRefusesInsteadOfBlocking) {
  AuditRing ring(2);
  EXPECT_TRUE(ring.push(make_record(0, 0.0f, true)));
  EXPECT_TRUE(ring.push(make_record(1, 0.0f, true)));
  EXPECT_FALSE(ring.push(make_record(2, 0.0f, true)));
  DecisionRecord out;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out.user_id, 0u);
  EXPECT_TRUE(ring.push(make_record(3, 0.0f, true)));
}

TEST(AuditRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(AuditRing(1).capacity(), 2u);
  EXPECT_EQ(AuditRing(3).capacity(), 4u);
  EXPECT_EQ(AuditRing(1000).capacity(), 1024u);
}

// ---------------------------------------------------------------------------
// Recorder round-trips

TEST(AuditRecorder, RoundTripPreservesEveryField) {
  const std::string path = unique_path("roundtrip");
  const DecisionRecord sent = make_record(42, -1.25f, false);
  {
    AuditRecorder recorder(path);
    ASSERT_TRUE(recorder.record(sent));
    recorder.flush();
    const AuditStats stats = recorder.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.written, 1u);
    EXPECT_EQ(stats.bytes, kHeaderBytes + kFrameBytes);
  }
  const AuditReadResult result = read_audit_log(path);
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  ASSERT_EQ(result.records.size(), 1u);
  const DecisionRecord& got = result.records[0];
  EXPECT_EQ(got.seq, 0u);
  EXPECT_EQ(got.timestamp_us, sent.timestamp_us);
  EXPECT_EQ(got.user_id, 42u);
  EXPECT_EQ(got.accepted, 0);
  EXPECT_EQ(got.pin_checked, 1);
  EXPECT_EQ(got.pin_ok, 1);
  EXPECT_EQ(got.reason,
            core::audit_code(core::RejectReason::kModelRejected));
  EXPECT_EQ(got.model_path,
            core::audit_code(core::ModelPath::kFullWaveform));
  EXPECT_EQ(got.detected_case,
            core::audit_code(core::DetectedCase::kOneHanded));
  ASSERT_EQ(got.num_votes, 2);
  EXPECT_EQ(got.votes[0], 1);
  EXPECT_EQ(got.votes[1], -1);
  EXPECT_EQ(got.channels, 3);
  EXPECT_EQ(got.channel_mask, 0b101u);
  EXPECT_FLOAT_EQ(got.score, -1.25f);
  EXPECT_FLOAT_EQ(got.threshold, 0.0f);
  EXPECT_FLOAT_EQ(got.pin_us, 1.5f);
  EXPECT_FLOAT_EQ(got.preprocess_us, 20.0f);
  EXPECT_FLOAT_EQ(got.model_us, 100.0f);
  EXPECT_FLOAT_EQ(got.total_us, 121.5f);
}

TEST(AuditRecorder, ConcurrentProducersAllRecordsLandExactlyOnce) {
  const std::string path = unique_path("concurrent");
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 500;
  {
    AuditRecorder recorder(path);
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&recorder, t] {
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          // user_id encodes (thread, index) so every record is unique.
          DecisionRecord r = make_record(
              static_cast<std::uint32_t>(t) * kPerThread + i,
              static_cast<float>(i), true);
          while (!recorder.record(r)) {
            std::this_thread::yield();  // ring full: let the drainer run
          }
        }
      });
    }
    for (std::thread& p : producers) p.join();
    recorder.flush();
    const AuditStats stats = recorder.stats();
    EXPECT_EQ(stats.submitted, kThreads * kPerThread);
    EXPECT_EQ(stats.written, kThreads * kPerThread);
  }
  const AuditReadResult result = read_audit_log(path);
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  ASSERT_EQ(result.records.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint32_t> users;
  std::set<std::uint64_t> seqs;
  for (const DecisionRecord& r : result.records) {
    users.insert(r.user_id);
    seqs.insert(r.seq);
  }
  // Exactly once: no record lost, none duplicated, every seq distinct.
  EXPECT_EQ(users.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(AuditRecorder, FullRingDropsAndCountsInsteadOfBlocking) {
  const std::string path = unique_path("drops");
  AuditStats stats;
  {
    AuditRecorder::Options options;
    options.ring_capacity = 2;
    // Park the drainer so the ring genuinely fills.
    options.idle_sleep = std::chrono::milliseconds(10000);
    AuditRecorder recorder(path, options);
    for (std::uint32_t i = 0; i < 100; ++i) {
      recorder.record(make_record(i, 0.0f, true));
    }
    stats = recorder.stats();
    EXPECT_GT(stats.dropped, 0u);
    EXPECT_EQ(stats.submitted + stats.dropped, 100u);
  }  // destructor drains whatever was accepted
  const AuditReadResult result = read_audit_log(path);
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_EQ(result.records.size(), stats.submitted);
}

TEST(AuditRecorder, UnwritablePathThrows) {
  EXPECT_THROW(AuditRecorder("/nonexistent-dir/audit.bin"),
               std::runtime_error);
}

TEST(AuditRecorder, InstallUninstallGlobalSink) {
  EXPECT_EQ(audit_recorder(), nullptr);
  const std::string path = unique_path("install");
  {
    AuditRecorder recorder(path);
    install_audit_recorder(&recorder);
    EXPECT_EQ(audit_recorder(), &recorder);
    install_audit_recorder(nullptr);
    EXPECT_EQ(audit_recorder(), nullptr);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Durability: every corruption is a typed error, decoded prefix retained.

TEST(AuditReader, MissingFileIsIoError) {
  const AuditReadResult result =
      read_audit_log(std::string("/tmp/p2auth_no_such_audit_log.bin"));
  EXPECT_EQ(result.error, AuditError::kIoError);
  EXPECT_TRUE(result.records.empty());
}

TEST(AuditReader, EmptyAndShortFilesAreBadHeader) {
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7}}) {
    std::istringstream is(make_log_bytes(1).substr(0, keep));
    const AuditReadResult result = read_audit_log(is);
    EXPECT_EQ(result.error, AuditError::kBadHeader) << "keep=" << keep;
    EXPECT_TRUE(result.records.empty());
  }
}

TEST(AuditReader, CorruptedFileMagicIsBadHeader) {
  std::string bytes = make_log_bytes(1);
  bytes[0] ^= 0x40;
  std::istringstream is(bytes);
  EXPECT_EQ(read_audit_log(is).error, AuditError::kBadHeader);
}

TEST(AuditReader, HeaderVersionSkewIsTyped) {
  std::string bytes = make_log_bytes(1);
  // Bump the header version field and re-seal the header CRC so only the
  // version (not integrity) is wrong.
  bytes[8] = 2;
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::uint32_t crc =
      util::crc32(std::span<const std::uint8_t>(data, 12));
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  std::istringstream is(bytes);
  const AuditReadResult result = read_audit_log(is);
  EXPECT_EQ(result.error, AuditError::kVersionSkew);
  EXPECT_EQ(result.error_offset, 0u);
}

TEST(AuditReader, TruncatedFinalRecordKeepsDecodedPrefix) {
  const std::string whole = make_log_bytes(3);
  // Cut anywhere strictly inside the final frame.
  for (const std::size_t cut_back : {std::size_t{1}, std::size_t{20},
                                     std::size_t{kFrameBytes - 1}}) {
    std::istringstream is(whole.substr(0, whole.size() - cut_back));
    const AuditReadResult result = read_audit_log(is);
    EXPECT_EQ(result.error, AuditError::kTruncated) << "cut=" << cut_back;
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.records[0].user_id, 0u);
    EXPECT_EQ(result.records[1].user_id, 1u);
    EXPECT_EQ(result.error_offset, kHeaderBytes + 2 * kFrameBytes);
  }
}

TEST(AuditReader, CorruptedPayloadByteIsBadCrc) {
  std::string bytes = make_log_bytes(3);
  // Flip one payload byte in the middle (second) frame.
  bytes[kHeaderBytes + kFrameBytes + 8 + 17] ^= 0x01;
  std::istringstream is(bytes);
  const AuditReadResult result = read_audit_log(is);
  EXPECT_EQ(result.error, AuditError::kBadCrc);
  ASSERT_EQ(result.records.size(), 1u);  // frame 0 decoded, 1 rejected
  EXPECT_EQ(result.error_offset, kHeaderBytes + kFrameBytes);
}

TEST(AuditReader, CorruptedCrcByteIsBadCrc) {
  std::string bytes = make_log_bytes(1);
  bytes[bytes.size() - 1] ^= 0xFF;  // last CRC byte of the only frame
  std::istringstream is(bytes);
  EXPECT_EQ(read_audit_log(is).error, AuditError::kBadCrc);
}

TEST(AuditReader, CorruptedFrameMagicIsTyped) {
  std::string bytes = make_log_bytes(2);
  bytes[kHeaderBytes + kFrameBytes] ^= 0x10;  // second frame's magic
  std::istringstream is(bytes);
  const AuditReadResult result = read_audit_log(is);
  EXPECT_EQ(result.error, AuditError::kBadFrameMagic);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.error_offset, kHeaderBytes + kFrameBytes);
}

TEST(AuditReader, FrameVersionSkewDetectedAfterIntegrityCheck) {
  std::string bytes = make_log_bytes(1);
  // Rewrite the frame version to 9 and re-seal the frame CRC: the frame
  // is intact but written by an unknown format — typed skew, no guessing.
  const std::size_t frame = kHeaderBytes;
  bytes[frame + 4] = 9;
  std::vector<std::uint8_t> covered(
      bytes.begin() + static_cast<std::ptrdiff_t>(frame + 4),
      bytes.begin() + static_cast<std::ptrdiff_t>(frame + 8 + 64));
  const std::uint32_t crc = util::crc32(covered);
  for (int i = 0; i < 4; ++i) {
    bytes[frame + 72 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  std::istringstream is(bytes);
  const AuditReadResult result = read_audit_log(is);
  EXPECT_EQ(result.error, AuditError::kVersionSkew);
  EXPECT_EQ(result.error_offset, kHeaderBytes);
  EXPECT_TRUE(result.records.empty());
}

TEST(AuditReader, OversizedLengthFieldIsBadLength) {
  std::string bytes = make_log_bytes(1);
  // Length 0xFFFF exceeds the 4096-byte payload ceiling.
  bytes[kHeaderBytes + 6] = static_cast<char>(0xFF);
  bytes[kHeaderBytes + 7] = static_cast<char>(0xFF);
  std::istringstream is(bytes);
  EXPECT_EQ(read_audit_log(is).error, AuditError::kBadLength);
}

TEST(AuditReader, SeededFuzzCorruptionNeverCrashesOrSilentlySkips) {
  const std::string pristine = make_log_bytes(5);
  util::Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.uniform(0.0, 4.0));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(bytes.size())));
      const auto bit = 1 + static_cast<int>(rng.uniform(0.0, 255.0));
      bytes[std::min(pos, bytes.size() - 1)] ^= static_cast<char>(bit);
    }
    if (rng.uniform(0.0, 1.0) < 0.3) {  // also fuzz truncation
      bytes.resize(static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(bytes.size()))));
    }
    std::istringstream is(bytes);
    const AuditReadResult result = read_audit_log(is);  // must not crash
    EXPECT_LE(result.records.size(), 5u);
    if (bytes != pristine.substr(0, bytes.size())) {
      // Some byte actually changed: either a typed error fired, or the
      // flips landed entirely inside frames beyond a clean truncation
      // point — in which case the decoded records are still a pristine
      // prefix.  Never 5 silently-"decoded" records from altered bytes.
      if (result.ok()) {
        for (std::size_t i = 0; i < result.records.size(); ++i) {
          EXPECT_EQ(result.records[i].seq, i);
          EXPECT_EQ(result.records[i].user_id, i);
        }
      }
    }
    // Decoded prefix is always internally consistent.
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].seq, i) << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Audit-code pinning: the on-disk codes are the core enum declaration
// order.  These values are part of the format — append-only, never
// reorder (a failure here means old logs now decode to wrong slugs).

TEST(AuditCodes, RejectReasonCodesArePinned) {
  using core::RejectReason;
  EXPECT_EQ(core::audit_code(RejectReason::kNone), 0);
  EXPECT_EQ(core::audit_code(RejectReason::kWrongPin), 1);
  EXPECT_EQ(core::audit_code(RejectReason::kMalformedEntry), 2);
  EXPECT_EQ(core::audit_code(RejectReason::kTooFewKeystrokes), 3);
  EXPECT_EQ(core::audit_code(RejectReason::kNoUsableChannel), 4);
  EXPECT_EQ(core::audit_code(RejectReason::kDegradedEvidence), 5);
  EXPECT_EQ(core::audit_code(RejectReason::kNoModel), 6);
  EXPECT_EQ(core::audit_code(RejectReason::kModelRejected), 7);
  EXPECT_EQ(core::audit_code(RejectReason::kVotesRejected), 8);
  EXPECT_EQ(core::audit_code(RejectReason::kTimeout), 9);
  EXPECT_EQ(core::audit_code(RejectReason::kBufferOverflow), 10);
  EXPECT_EQ(core::audit_code(RejectReason::kLockedOut), 11);
  EXPECT_EQ(core::audit_code(RejectReason::kIncomplete), 12);
  EXPECT_EQ(core::audit_code(RejectReason::kTemplateStale), 13);
  EXPECT_EQ(core::kRejectReasonCodes, 14);
}

TEST(AuditCodes, DetectedCaseAndModelPathCodesArePinned) {
  using core::DetectedCase;
  using core::ModelPath;
  EXPECT_EQ(core::audit_code(DetectedCase::kOneHanded), 0);
  EXPECT_EQ(core::audit_code(DetectedCase::kTwoHandedThree), 1);
  EXPECT_EQ(core::audit_code(DetectedCase::kTwoHandedTwo), 2);
  EXPECT_EQ(core::audit_code(DetectedCase::kRejected), 3);
  EXPECT_EQ(core::kDetectedCaseCodes, 4);
  EXPECT_EQ(core::audit_code(ModelPath::kNone), 0);
  EXPECT_EQ(core::audit_code(ModelPath::kFullWaveform), 1);
  EXPECT_EQ(core::audit_code(ModelPath::kBoost), 2);
  EXPECT_EQ(core::audit_code(ModelPath::kPerKeyVotes), 3);
  EXPECT_EQ(core::kModelPathCodes, 4);
}

TEST(AuditCodes, DecodersRoundTripAndRejectUnknownCodes) {
  for (std::uint8_t c = 0; c < core::kRejectReasonCodes; ++c) {
    EXPECT_STREQ(core::reject_reason_slug_from_code(c),
                 core::reject_reason_slug(
                     static_cast<core::RejectReason>(c)));
  }
  EXPECT_STREQ(core::reject_reason_slug_from_code(200), "unknown");
  EXPECT_STREQ(core::detected_case_slug_from_code(200), "unknown");
  EXPECT_STREQ(core::model_path_slug_from_code(200), "unknown");
  EXPECT_STREQ(core::model_path_slug_from_code(
                   core::audit_code(core::ModelPath::kBoost)),
               "boost");
}

// ---------------------------------------------------------------------------
// Exports

TEST(AuditExport, JsonlOneValidObjectPerLine) {
  std::vector<DecisionRecord> records = {make_record(7, 1.5f, true),
                                         make_record(8, -0.5f, false)};
  records[0].seq = 0;
  records[1].seq = 1;
  std::ostringstream os;
  AuditCodeNames names;
  names.reason = [](std::uint8_t c) {
    return std::string(core::reject_reason_slug_from_code(c));
  };
  names.model_path = [](std::uint8_t c) {
    return std::string(core::model_path_slug_from_code(c));
  };
  names.detected_case = [](std::uint8_t c) {
    return std::string(core::detected_case_slug_from_code(c));
  };
  write_audit_jsonl(os, records, names);
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  const std::string first = out.substr(0, out.find('\n'));
  EXPECT_NE(first.find("\"user\":7"), std::string::npos) << first;
  EXPECT_NE(first.find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(first.find("\"model_path\":\"full_waveform\""),
            std::string::npos);
  EXPECT_NE(first.find("\"votes\":[1,-1]"), std::string::npos);
  EXPECT_NE(out.find("\"reason\":\"model\""), std::string::npos);
  // Default names fall back to the raw numeric code.
  std::ostringstream raw;
  write_audit_jsonl(raw, records);
  EXPECT_NE(raw.str().find("\"model_path\":\"1\""), std::string::npos);
}

TEST(AuditExport, SummaryAggregatesAcceptRateAndReasons) {
  std::vector<DecisionRecord> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(
        make_record(static_cast<std::uint32_t>(i), 1.0f, i < 6));
  }
  const Json summary = summarize_audit(records);
  EXPECT_EQ(summary.dump_string(0).find("\"records\":8") ==
                std::string::npos,
            false);
  const Json* rate = summary.find("accept_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_NE(summary.dump_string(0).find("0.75"), std::string::npos);
  const Json* reasons = summary.find("rejects_by_reason");
  ASSERT_NE(reasons, nullptr);
  EXPECT_EQ(reasons->size(), 1u);  // all rejects share kModelRejected
}

TEST(AuditErrorStrings, AllErrorsHaveNames) {
  for (const AuditError e :
       {AuditError::kNone, AuditError::kIoError, AuditError::kBadHeader,
        AuditError::kTruncated, AuditError::kBadFrameMagic,
        AuditError::kVersionSkew, AuditError::kBadLength,
        AuditError::kBadCrc}) {
    EXPECT_STRNE(to_string(e), "?");
  }
}

}  // namespace
}  // namespace p2auth::obs

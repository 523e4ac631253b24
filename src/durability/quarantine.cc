#include "durability/quarantine.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "durability/delta_codec.h"
#include "util/serde.h"

namespace avt {

namespace {

constexpr char kMagic[8] = {'A', 'V', 'T', 'Q', 'R', 'N', '1', '\n'};

std::string EncodePayload(const QuarantineRecord& record) {
  std::string payload;
  payload.reserve(32 + 8 * record.delta.Size() + record.detail.size());
  serde::PutU64(&payload, record.seq);
  serde::PutU32(&payload, static_cast<uint32_t>(record.reason));
  serde::PutU64(&payload, record.source_pull);
  PutDelta(&payload, record.delta);
  serde::PutU32(&payload, static_cast<uint32_t>(record.detail.size()));
  payload += record.detail;
  return payload;
}

bool DecodePayload(std::string_view payload, QuarantineRecord* record) {
  serde::Reader reader(payload);
  uint32_t reason = 0;
  uint32_t detail_len = 0;
  if (!reader.GetU64(&record->seq) || !reader.GetU32(&reason) ||
      !reader.GetU64(&record->source_pull) ||
      !GetDelta(&reader, &record->delta) || !reader.GetU32(&detail_len) ||
      !reader.GetBytes(&record->detail, detail_len)) {
    return false;
  }
  record->reason = static_cast<QuarantineReason>(reason);
  return reader.Exhausted();
}

// ReadAll, also reporting the byte length of the valid prefix (magic +
// whole records; 0 when even the magic is torn) so Open can truncate a
// torn tail.
StatusOr<std::vector<QuarantineRecord>> ReadLog(const std::string& path,
                                                uint64_t* valid_bytes) {
  *valid_bytes = 0;
  StatusOr<std::string> read =
      serde::ReadWholeFile(path, "quarantine log");
  if (!read.ok()) return read.status();
  const std::string& bytes = read.value();

  if (std::memcmp(bytes.data(), kMagic,
                  std::min(bytes.size(), sizeof(kMagic))) != 0) {
    return Status::Corruption("bad quarantine magic in " + path);
  }
  if (bytes.size() < sizeof(kMagic)) {
    return std::vector<QuarantineRecord>{};  // torn header: zero records
  }

  std::vector<QuarantineRecord> records;
  size_t pos = sizeof(kMagic);
  *valid_bytes = pos;
  while (pos < bytes.size()) {
    const serde::FrameView frame = serde::ParseFrame(bytes, pos);
    if (frame.status == serde::FrameStatus::kHeaderShort) break;  // torn
    if (frame.length > serde::kMaxFramePayload) {
      return Status::Corruption("absurd quarantine record length at offset " +
                                std::to_string(pos) + " in " + path);
    }
    if (frame.status == serde::FrameStatus::kPayloadShort) break;  // torn
    if (frame.status == serde::FrameStatus::kCrcMismatch) {
      return Status::Corruption(
          "quarantine record checksum mismatch at offset " +
          std::to_string(pos) + " in " + path);
    }
    QuarantineRecord record;
    if (!DecodePayload(frame.payload, &record)) {
      return Status::Corruption("undecodable quarantine record at offset " +
                                std::to_string(pos) + " in " + path);
    }
    if (record.seq != records.size() + 1) {
      return Status::Corruption(
          "non-sequential quarantine record (seq " +
          std::to_string(record.seq) + " at position " +
          std::to_string(records.size() + 1) + ") in " + path);
    }
    records.push_back(std::move(record));
    pos = frame.end;
    *valid_bytes = pos;
  }
  return records;
}

}  // namespace

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kInvalidDelta: return "invalid-delta";
    case QuarantineReason::kUniverseExceeded: return "universe-exceeded";
    case QuarantineReason::kAuditDivergence: return "audit-divergence";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<QuarantineLog>> QuarantineLog::Open(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create quarantine dir " + dir + ": " +
                           ec.message());
  }
  const std::string path = dir + "/" + kFileName;

  uint64_t next_seq = 1;
  uint64_t valid_bytes = 0;
  if (std::filesystem::exists(path, ec)) {
    // Resume numbering after the existing valid prefix, and truncate
    // the torn tail past it. ReadLog tolerates a torn tail but rejects
    // corruption — a quarantine log that lies is worse than none.
    StatusOr<std::vector<QuarantineRecord>> existing =
        ReadLog(path, &valid_bytes);
    if (!existing.ok()) return existing.status();
    if (!existing.value().empty()) {
      next_seq = existing.value().back().seq + 1;
    }
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec) {
      return Status::IoError("cannot truncate quarantine tail at " + path +
                             ": " + ec.message());
    }
  }

  std::FILE* file = std::fopen(path.c_str(), valid_bytes > 0 ? "ab" : "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open quarantine log at " + path + ": " +
                           std::strerror(errno));
  }
  if (valid_bytes == 0 &&
      std::fwrite(kMagic, 1, sizeof(kMagic), file) != sizeof(kMagic)) {
    std::fclose(file);
    return Status::IoError("cannot write quarantine header at " + path);
  }
  return std::unique_ptr<QuarantineLog>(new QuarantineLog(file, next_seq));
}

QuarantineLog::~QuarantineLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status QuarantineLog::Append(QuarantineRecord* record) {
  record->seq = next_seq_;
  if (!serde::WriteFrame(file_, EncodePayload(*record)) ||
      std::fflush(file_) != 0) {
    return Status::IoError(std::string("quarantine append failed: ") +
                           std::strerror(errno));
  }
  ++next_seq_;
  ++appended_;
  return Status::Ok();
}

StatusOr<std::vector<QuarantineRecord>> QuarantineLog::ReadAll(
    const std::string& path) {
  uint64_t valid_bytes = 0;
  return ReadLog(path, &valid_bytes);
}

}  // namespace avt

#include "durability/wal.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "durability/delta_codec.h"
#include "util/serde.h"

namespace avt {

namespace {

constexpr char kMagic[8] = {'A', 'V', 'T', 'W', 'A', 'L', '1', '\n'};

std::string EncodePayload(const WalRecord& record) {
  std::string payload;
  payload.reserve(24 + 8 * record.delta.Size());
  serde::PutU64(&payload, record.seq);
  serde::PutU64(&payload, record.source_pulls);
  PutDelta(&payload, record.delta);
  return payload;
}

bool DecodePayload(std::string_view payload, WalRecord* record) {
  serde::Reader reader(payload);
  return reader.GetU64(&record->seq) &&
         reader.GetU64(&record->source_pulls) &&
         GetDelta(&reader, &record->delta) && reader.Exhausted();
}

Status SyncFile(std::FILE* file) {
  if (std::fflush(file) != 0) {
    return Status::IoError(std::string("wal flush failed: ") +
                           std::strerror(errno));
  }
  if (::fsync(::fileno(file)) != 0) {
    return Status::IoError(std::string("wal fsync failed: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<DeltaWal>> DeltaWal::Create(const std::string& path,
                                                     FsyncPolicy policy) {
  // "x": exclusive — refuse to clobber an existing log.
  std::FILE* file = std::fopen(path.c_str(), "wbx");
  if (file == nullptr) {
    if (errno == EEXIST) {
      return Status::InvalidArgument(
          "WAL already exists at " + path +
          "; recover from it or choose a fresh durability dir");
    }
    return Status::IoError("cannot create WAL at " + path + ": " +
                           std::strerror(errno));
  }
  if (std::fwrite(kMagic, 1, sizeof(kMagic), file) != sizeof(kMagic)) {
    std::fclose(file);
    return Status::IoError("cannot write WAL header at " + path);
  }
  auto wal = std::unique_ptr<DeltaWal>(new DeltaWal(file, policy));
  if (policy == FsyncPolicy::kEveryRecord) {
    AVT_RETURN_IF_ERROR(SyncFile(file));
  }
  return wal;
}

StatusOr<std::unique_ptr<DeltaWal>> DeltaWal::OpenForAppend(
    const std::string& path, FsyncPolicy policy, uint64_t valid_bytes) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return Status::IoError("cannot reopen WAL at " + path + ": " +
                           std::strerror(errno));
  }
  // Drop the torn tail so the next append starts at a record boundary.
  // A tail torn inside the magic itself (valid_bytes == 0) truncates to
  // empty, and the header is rewritten below.
  if (::ftruncate(::fileno(file), static_cast<off_t>(valid_bytes)) != 0) {
    std::fclose(file);
    return Status::IoError("cannot truncate WAL tail at " + path + ": " +
                           std::strerror(errno));
  }
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::IoError("cannot seek WAL at " + path);
  }
  if (valid_bytes < sizeof(kMagic)) {
    if (std::fwrite(kMagic, 1, sizeof(kMagic), file) != sizeof(kMagic)) {
      std::fclose(file);
      return Status::IoError("cannot rewrite WAL header at " + path);
    }
  }
  return std::unique_ptr<DeltaWal>(new DeltaWal(file, policy));
}

DeltaWal::~DeltaWal() {
  if (file_ != nullptr) std::fclose(file_);
}

Status DeltaWal::Append(const WalRecord& record) {
  if (!serde::WriteFrame(file_, EncodePayload(record))) {
    return Status::IoError(std::string("wal append failed: ") +
                           std::strerror(errno));
  }
  if (policy_ == FsyncPolicy::kEveryRecord) {
    return SyncFile(file_);
  }
  return Status::Ok();
}

Status DeltaWal::Flush() {
  if (std::fflush(file_) != 0) {
    return Status::IoError(std::string("wal flush failed: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

Status DeltaWal::Sync() { return SyncFile(file_); }

StatusOr<DeltaWal::ReadResult> DeltaWal::ReadAll(const std::string& path) {
  // WALs the engine writes are bounded by the stream they log, and
  // recovery reads them once.
  StatusOr<std::string> read = serde::ReadWholeFile(path, "WAL");
  if (!read.ok()) return read.status();
  const std::string& bytes = read.value();

  if (std::memcmp(bytes.data(), kMagic,
                  std::min(bytes.size(), sizeof(kMagic))) != 0) {
    return Status::Corruption("bad WAL magic in " + path);
  }
  ReadResult result;
  if (bytes.size() < sizeof(kMagic)) {
    // Even the magic is torn; an empty-but-valid log has 8 bytes. A
    // crash can tear the very first write, so this is a torn tail with
    // zero records, not corruption.
    result.torn_tail = !bytes.empty();
    return result;
  }
  size_t pos = sizeof(kMagic);
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    const serde::FrameView frame = serde::ParseFrame(bytes, pos);
    if (frame.status == serde::FrameStatus::kHeaderShort) {
      result.torn_tail = true;  // partial frame header
      break;
    }
    if (frame.length > serde::kMaxFramePayload) {
      return Status::Corruption("absurd WAL record length at offset " +
                                std::to_string(pos) + " in " + path);
    }
    if (frame.status == serde::FrameStatus::kPayloadShort) {
      result.torn_tail = true;  // partial payload: crash mid-append
      break;
    }
    if (frame.status == serde::FrameStatus::kCrcMismatch) {
      return Status::Corruption("WAL record checksum mismatch at offset " +
                                std::to_string(pos) + " in " + path);
    }
    WalRecord record;
    if (!DecodePayload(frame.payload, &record)) {
      return Status::Corruption("undecodable WAL record at offset " +
                                std::to_string(pos) + " in " + path);
    }
    if (record.seq != result.records.size() + 1) {
      return Status::Corruption(
          "non-sequential WAL record (seq " + std::to_string(record.seq) +
          " at position " + std::to_string(result.records.size() + 1) +
          ") in " + path);
    }
    result.records.push_back(std::move(record));
    pos = frame.end;
    result.valid_bytes = pos;
  }
  return result;
}

}  // namespace avt

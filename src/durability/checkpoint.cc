#include "durability/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/serde.h"

namespace avt {

namespace {

constexpr char kMagic[8] = {'A', 'V', 'T', 'C', 'K', 'P', 'T', '1'};

std::string CheckpointFileName(uint64_t step) {
  char name[64];
  std::snprintf(name, sizeof(name), "checkpoint-%010llu.avtc",
                static_cast<unsigned long long>(step));
  return name;
}

std::string EncodePayload(const CheckpointData& data) {
  std::string payload;
  const RunTotals& totals = data.totals;
  serde::PutU64(&payload, data.fingerprint);
  serde::PutU64(&payload, totals.snapshots);
  serde::PutU64(&payload, data.wal_records);
  serde::PutU64(&payload, data.source_pulls);
  serde::PutU32(&payload, data.num_vertices);
  serde::PutDouble(&payload, totals.total_millis);
  serde::PutDouble(&payload, totals.max_millis);
  serde::PutU64(&payload, totals.total_candidates);
  serde::PutU64(&payload, totals.total_followers);
  serde::PutDouble(&payload, totals.stability_sum);
  serde::PutU64(&payload, totals.anchor_changes);
  serde::PutU32(&payload,
                static_cast<uint32_t>(totals.previous_anchors.size()));
  for (VertexId v : totals.previous_anchors) serde::PutU32(&payload, v);
  serde::PutU32(&payload, data.has_tracker_state ? 1 : 0);
  if (data.has_tracker_state) {
    serde::PutU64(&payload, data.tracker_state.size());
    payload.append(data.tracker_state);
  }
  return payload;
}

bool DecodePayload(std::string_view payload, CheckpointData* data) {
  serde::Reader reader(payload);
  RunTotals& totals = data->totals;
  uint32_t anchor_count = 0;
  uint32_t has_state = 0;
  if (!reader.GetU64(&data->fingerprint) ||
      !reader.GetU64(&totals.snapshots) ||
      !reader.GetU64(&data->wal_records) ||
      !reader.GetU64(&data->source_pulls) ||
      !reader.GetU32(&data->num_vertices) ||
      !reader.GetDouble(&totals.total_millis) ||
      !reader.GetDouble(&totals.max_millis) ||
      !reader.GetU64(&totals.total_candidates) ||
      !reader.GetU64(&totals.total_followers) ||
      !reader.GetDouble(&totals.stability_sum) ||
      !reader.GetU64(&totals.anchor_changes) ||
      !reader.GetU32(&anchor_count)) {
    return false;
  }
  if (reader.Remaining() < 4ull * anchor_count) return false;
  totals.previous_anchors.assign(anchor_count, 0);
  for (VertexId& v : totals.previous_anchors) reader.GetU32(&v);
  if (!reader.GetU32(&has_state)) return false;
  if (has_state > 1) return false;
  data->has_tracker_state = has_state == 1;
  data->tracker_state.clear();
  if (data->has_tracker_state) {
    uint64_t blob_len = 0;
    if (!reader.GetU64(&blob_len)) return false;
    if (blob_len != reader.Remaining()) return false;
    if (!reader.GetBytes(&data->tracker_state,
                         static_cast<size_t>(blob_len))) {
      return false;
    }
  }
  return reader.Exhausted();
}

Status SyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return Status::IoError("fsync failed for " + what + ": " +
                           std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

Status WriteCheckpoint(const std::string& dir, const CheckpointData& data,
                       bool fsync) {
  const std::string final_path =
      dir + "/" + CheckpointFileName(data.totals.snapshots);
  const std::string tmp_path = final_path + ".tmp";

  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create checkpoint tmp " + tmp_path +
                           ": " + std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(kMagic, 1, sizeof(kMagic), file) == sizeof(kMagic) &&
      serde::WriteFrame(file, EncodePayload(data));
  if (!wrote || std::fflush(file) != 0) {
    std::fclose(file);
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot write checkpoint " + tmp_path);
  }
  if (fsync) {
    Status sync_status = SyncFd(::fileno(file), tmp_path);
    if (!sync_status.ok()) {
      std::fclose(file);
      std::remove(tmp_path.c_str());
      return sync_status;
    }
  }
  std::fclose(file);

  // Atomic publish: readers see either the old set of checkpoints or
  // the new one, never a half-written file under the final name.
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot publish checkpoint " + final_path + ": " +
                           std::strerror(errno));
  }
  if (fsync) {
    // The rename itself must reach the directory for the checkpoint to
    // survive power loss.
    const int dir_fd = ::open(dir.c_str(), O_RDONLY);
    if (dir_fd < 0) {
      return Status::IoError("cannot open durability dir " + dir + ": " +
                             std::strerror(errno));
    }
    Status sync_status = SyncFd(dir_fd, dir);
    ::close(dir_fd);
    AVT_RETURN_IF_ERROR(sync_status);
  }
  return Status::Ok();
}

StatusOr<CheckpointData> ReadCheckpoint(const std::string& path) {
  StatusOr<std::string> read = serde::ReadWholeFile(path, "checkpoint");
  if (!read.ok()) return read.status();
  const std::string& bytes = read.value();

  // Checkpoints are published atomically, so unlike the WAL there is
  // no "torn tail" grace: ANY framing damage is corruption.
  const serde::FrameView frame = serde::ParseFrame(bytes, sizeof(kMagic));
  if (frame.status == serde::FrameStatus::kHeaderShort ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad checkpoint header in " + path);
  }
  if (frame.length > serde::kMaxFramePayload || frame.end != bytes.size()) {
    return Status::Corruption("checkpoint length mismatch in " + path);
  }
  if (frame.status == serde::FrameStatus::kCrcMismatch) {
    return Status::Corruption("checkpoint checksum mismatch in " + path);
  }
  CheckpointData data;
  if (!DecodePayload(frame.payload, &data)) {
    return Status::Corruption("undecodable checkpoint payload in " + path);
  }
  return data;
}

StatusOr<std::vector<CheckpointEntry>> ListCheckpoints(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list durability dir " + dir + ": " +
                           ec.message());
  }
  std::vector<CheckpointEntry> entries;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    unsigned long long step = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%llu.avtc%n", &step,
                    &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      entries.push_back({step, entry.path().string()});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) {
              return a.step < b.step;
            });
  return entries;
}

StatusOr<CheckpointData> LoadLatestValidCheckpoint(const std::string& dir) {
  auto entries_or = ListCheckpoints(dir);
  if (!entries_or.ok()) return entries_or.status();
  const std::vector<CheckpointEntry>& entries = entries_or.value();
  if (entries.empty()) {
    return Status::NotFound("no checkpoints in " + dir);
  }
  Status newest_error = Status::Ok();
  for (size_t i = entries.size(); i > 0; --i) {
    StatusOr<CheckpointData> data = ReadCheckpoint(entries[i - 1].path);
    if (data.ok()) return data;
    if (newest_error.ok()) newest_error = data.status();
  }
  return newest_error;
}

}  // namespace avt

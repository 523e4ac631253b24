// DeltaWal: append-only framed log of committed delta transactions.
//
// The durable source of truth for a streamed run is the delta stream
// itself; the WAL records which PREFIX of that stream the engine has
// committed, transaction by transaction, so recovery can replay the
// exact transactions an interrupted run processed (same batching
// boundaries, same within-batch order) and then fast-forward the
// source to the first unprocessed delta.
//
// File format (frame and little-endian byte codec: util/serde.h; the
// delta's edge pairs: durability/delta_codec.h):
//
//   [8-byte magic "AVTWAL1\n"]
//   frame*
//
//   payload := u64 seq            -- 1-based, strictly sequential
//              u64 source_pulls   -- source deltas merged into this txn
//              u32 n_insertions, u32 n_deletions
//              (u32 u, u32 v) * n_insertions
//              (u32 u, u32 v) * n_deletions
//
// Failure discipline (the RocksDB convention): an INCOMPLETE final
// record is a torn tail — the normal signature of a crash mid-append —
// and reading stops cleanly at the last intact record (the source
// re-supplies the lost suffix, so nothing is missing). Anything else —
// a CRC mismatch, a non-sequential seq, a bad magic — means the bytes
// on disk are not what was written, and reading fails with
// kCorruption. Appending after recovery first truncates the torn
// tail so the log never contains garbage between records.
//
// Fsync policy: kNever trusts the OS page cache (data survives process
// death, not power loss); kEveryRecord fsyncs after each append.

#ifndef AVT_DURABILITY_WAL_H_
#define AVT_DURABILITY_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/delta.h"
#include "util/status.h"

namespace avt {

/// When the WAL flushes to stable storage.
enum class FsyncPolicy {
  kNever,        ///< OS page cache only (survives SIGKILL, not power loss)
  kEveryRecord,  ///< fsync after every appended record
};

/// One committed delta transaction.
struct WalRecord {
  uint64_t seq = 0;           ///< 1-based, strictly sequential
  uint64_t source_pulls = 0;  ///< source deltas merged into this txn
  EdgeDelta delta;            ///< the committed (possibly merged) delta
};

/// Append handle + reader for the delta log.
class DeltaWal {
 public:
  static constexpr const char* kFileName = "wal.log";

  /// Creates a fresh WAL at `path`; fails with kInvalidArgument if the
  /// file already exists (a fresh run must not clobber a previous log).
  static StatusOr<std::unique_ptr<DeltaWal>> Create(const std::string& path,
                                                    FsyncPolicy policy);

  /// Reopens an existing WAL for appending after recovery, truncating
  /// everything past `valid_bytes` (the torn tail ReadAll reported).
  static StatusOr<std::unique_ptr<DeltaWal>> OpenForAppend(
      const std::string& path, FsyncPolicy policy, uint64_t valid_bytes);

  ~DeltaWal();
  DeltaWal(const DeltaWal&) = delete;
  DeltaWal& operator=(const DeltaWal&) = delete;

  Status Append(const WalRecord& record);

  /// Pushes buffered records to the OS (survives SIGKILL, not power
  /// loss). Called before a checkpoint is written so the checkpoint
  /// never claims records the file does not hold.
  Status Flush();

  /// Forces buffered records to stable storage regardless of policy.
  Status Sync();

  struct ReadResult {
    std::vector<WalRecord> records;
    /// Byte length of the intact prefix (magic + whole records).
    uint64_t valid_bytes = 0;
    /// True when bytes followed the intact prefix (a torn final
    /// record); recovery truncates them before appending.
    bool torn_tail = false;
  };

  /// Reads every intact record. kNotFound when the file is missing,
  /// kCorruption on damaged bytes (see the format comment above).
  static StatusOr<ReadResult> ReadAll(const std::string& path);

 private:
  DeltaWal(std::FILE* file, FsyncPolicy policy)
      : file_(file), policy_(policy) {}

  std::FILE* file_;
  FsyncPolicy policy_;
};

}  // namespace avt

#endif  // AVT_DURABILITY_WAL_H_

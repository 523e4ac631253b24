// Checkpoint: the engine's minimal recoverable state at a step cadence.
//
// Recovery in this library is REPLAY-based: the WAL (durability/wal.h)
// holds every committed transaction and the engine's replay is
// bit-identical by construction, so a checkpoint does not need to
// freeze the whole tracker. What it stores is:
//
//   * a config fingerprint — recovery with a different tracker, batch
//     size, source, or engine option is rejected up front instead of
//     silently producing a diverged run;
//   * the engine's source cursor and its RunTotals ledger at that
//     step (durability/run_totals.h; its snapshot count IS the step) —
//     replay cross-checks its own ledger against this one when it
//     passes the checkpoint's step, so a WAL/checkpoint divergence
//     surfaces as kCorruption;
//   * optionally, a tracker state blob (AvtTracker::SaveCheckpointState)
//     for tracker families whose state is exactly serializable — those
//     resume from the blob and replay only the WAL suffix.
//
// File format: "AVTCKPT1" magic, then exactly one frame (frame and
// little-endian byte codec: util/serde.h); payload field order
// documented in docs/DURABILITY.md. Files are named checkpoint-<step>.avtc and
// written atomically (tmp + fsync + rename), so a torn checkpoint
// never shadows an older intact one.

#ifndef AVT_DURABILITY_CHECKPOINT_H_
#define AVT_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "durability/run_totals.h"
#include "util/status.h"

namespace avt {

/// Everything a checkpoint stores. Replay cross-checks `totals` (minus
/// its timings) and `num_vertices` when it passes the checkpoint.
struct CheckpointData {
  uint64_t fingerprint = 0;     ///< config hash; mismatch rejects resume
  uint64_t wal_records = 0;     ///< committed WAL records at this step
  uint64_t source_pulls = 0;    ///< source deltas consumed at this step
  uint32_t num_vertices = 0;    ///< engine universe at this step
  RunTotals totals;  ///< run ledger; totals.snapshots is the step

  bool has_tracker_state = false;
  std::string tracker_state;    ///< AvtTracker::SaveCheckpointState blob
};

/// Writes `data` to `<dir>/checkpoint-<step>.avtc` atomically. With
/// `fsync` the tmp file and directory entry are forced to stable
/// storage before the rename is considered done.
Status WriteCheckpoint(const std::string& dir, const CheckpointData& data,
                       bool fsync);

/// Reads and validates one checkpoint file. kCorruption for any
/// damaged, truncated, or undecodable content; never crashes.
StatusOr<CheckpointData> ReadCheckpoint(const std::string& path);

/// Checkpoint files in `dir`, sorted by ascending step.
struct CheckpointEntry {
  uint64_t step = 0;
  std::string path;
};
StatusOr<std::vector<CheckpointEntry>> ListCheckpoints(
    const std::string& dir);

/// Loads the newest checkpoint that validates, scanning newest-first.
/// kNotFound when the directory holds no checkpoint files at all; when
/// checkpoints exist but none validates, the newest one's error is
/// returned (typically kCorruption).
StatusOr<CheckpointData> LoadLatestValidCheckpoint(const std::string& dir);

}  // namespace avt

#endif  // AVT_DURABILITY_CHECKPOINT_H_

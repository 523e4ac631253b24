// Poison-delta dead-letter log.
//
// When quarantine is armed (EngineOptions::quarantine_dir), a source
// delta the engine refuses to apply — structural validation failure,
// universe-cap violation, or isolation by audit bisection — is not
// dropped silently and does not kill the stream: it is appended here,
// reason-coded, and the engine continues in HealthState::kDegraded.
// The log is the operator's forensic record: every quarantined delta
// carries its WAL-style framing (CRC'd, torn-tail tolerant) plus the
// source pull position it came from, so "which upstream records were
// bad" is answerable after the fact (`avt_cli quarantine <dir>`).
//
// File format (quarantine.avtq), mirroring durability/wal.h (frame
// and little-endian byte codec: util/serde.h; the delta's edge pairs:
// durability/delta_codec.h):
//
//   [8-byte magic "AVTQRN1\n"]
//   frame*
//     payload: u64 seq, u32 reason, u64 source_pull,
//              u32 n_ins, u32 n_del, (u32 u, u32 v) pairs,
//              u32 detail_len, detail bytes
//
// A torn tail (crash mid-append) is tolerated on read and truncated on
// reopen; a CRC mismatch inside the valid prefix is kCorruption.
// Appends are at-least-once across crash recovery: a delta quarantined
// in the uncommitted window before a crash may be re-quarantined by
// the resumed run — duplicates are possible, silent loss is not.

#ifndef AVT_DURABILITY_QUARANTINE_H_
#define AVT_DURABILITY_QUARANTINE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/delta.h"
#include "util/status.h"

namespace avt {

/// Why a delta was quarantined instead of applied.
enum class QuarantineReason : uint32_t {
  kInvalidDelta = 1,     ///< structurally malformed (self-loop endpoints)
  kUniverseExceeded = 2, ///< endpoint beyond max_universe / frozen universe
  kAuditDivergence = 3,  ///< applying it trips the integrity audit
                         ///< (isolated by deterministic bisection)
};
const char* QuarantineReasonName(QuarantineReason reason);

/// One dead-lettered delta.
struct QuarantineRecord {
  uint64_t seq = 0;  ///< 1-based, assigned by Append
  QuarantineReason reason = QuarantineReason::kInvalidDelta;
  /// 1-based pull index in the source stream the delta came from (the
  /// engine counts every pull, quarantined or not, so this is the
  /// upstream record number).
  uint64_t source_pull = 0;
  EdgeDelta delta;
  std::string detail;
};

/// Append-only framed dead-letter log.
class QuarantineLog {
 public:
  static constexpr const char* kFileName = "quarantine.avtq";

  /// Opens `<dir>/quarantine.avtq` for appending, creating the
  /// directory and file as needed. An existing log is scanned to
  /// resume the sequence numbering after its valid prefix (a torn
  /// tail is truncated; corrupt records inside the prefix are
  /// kCorruption — quarantine forensics must not be silently lossy).
  static StatusOr<std::unique_ptr<QuarantineLog>> Open(
      const std::string& dir);

  ~QuarantineLog();
  QuarantineLog(const QuarantineLog&) = delete;
  QuarantineLog& operator=(const QuarantineLog&) = delete;

  /// Appends one record, stamping record->seq, and flushes: a
  /// quarantined delta must be on disk before the engine moves on
  /// (the whole point is surviving the run that produced it).
  Status Append(QuarantineRecord* record);

  /// Records appended through this handle (not lifetime file total).
  uint64_t appended() const { return appended_; }

  /// Reads every valid record from a quarantine file. A torn tail is
  /// tolerated; a CRC/decode failure inside the prefix is kCorruption.
  static StatusOr<std::vector<QuarantineRecord>> ReadAll(
      const std::string& path);

 private:
  QuarantineLog(std::FILE* file, uint64_t next_seq)
      : file_(file), next_seq_(next_seq) {}

  std::FILE* file_;
  uint64_t next_seq_;
  uint64_t appended_ = 0;
};

}  // namespace avt

#endif  // AVT_DURABILITY_QUARANTINE_H_

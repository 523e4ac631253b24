// AvtEngine: the push-based streaming layer between delta sources and
// trackers.
//
//   DeltaSource  ──pull──▶  AvtEngine  ──push──▶  AvtTracker
//        │                      │                     │
//   (file / generator /    validates ids,        per-snapshot
//    sequence / coalesce)  grows the universe,   AvtSnapshotResult
//                          times & records            │
//                               └────────▶ RunSummary sink
//
// The engine owns one tracker and one source, drives the stream
// (Step-at-a-time for tools that pause and inspect, Drain for batch
// runs), and folds every snapshot into a running RunSummary so long
// streams can drop per-snapshot results (keep_snapshots = false) and
// still report aggregates in O(1) memory.
//
// The engine is also the SOURCE BOUNDARY for vertex-universe growth: a
// delta referencing an id outside the tracker's universe either grows
// the tracker first (grow_universe, the default — streaming file
// sources discover vertices mid-stream) or is rejected with a precise
// Status naming the offending id — never handed down to trip an
// assertion deep inside Graph::AddEdge.
//
// Replay invariance: driving a tracker through AvtEngine +
// SequenceSource produces bit-identical snapshots to the historical
// materialized ForEachSnapshot replay (the source re-emits deltas
// verbatim and trackers maintain their own state); enforced by
// tests/engine_test.cc and the differential fuzz.

#ifndef AVT_CORE_ENGINE_H_
#define AVT_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/avt.h"
#include "core/health.h"
#include "core/run_summary.h"
#include "durability/quarantine.h"
#include "durability/wal.h"
#include "graph/delta_source.h"
#include "util/status.h"

namespace avt {

/// Engine behavior knobs.
struct EngineOptions {
  /// Grow the tracker's vertex universe when a delta references unseen
  /// ids (streaming sources). When false such a delta is an error.
  bool grow_universe = true;
  /// Retain every per-snapshot result in result(). Disable for
  /// unbounded streams: aggregates and last() stay available.
  bool keep_snapshots = true;
  /// Online integrity audits (core/health.h): every `audit.every`
  /// committed transactions the tracker's maintained state is
  /// cross-checked against a fresh decomposition BEFORE the
  /// transaction commits — so a divergence is caught while the
  /// suspect transaction is still outside the WAL and rollback can
  /// rebuild the last known-good state. audit.every = 0 disables.
  AuditOptions audit;
  /// Non-empty arms poison-delta quarantine: source deltas failing
  /// structural validation (or isolated by audit bisection) are
  /// appended to <quarantine_dir>/quarantine.avtq and skipped, and the
  /// engine continues in HealthState::kDegraded instead of erroring.
  std::string quarantine_dir;
  /// Hard cap on the vertex universe; 0 = uncapped. A delta whose
  /// endpoint reaches the cap is quarantined (when armed) or rejected
  /// like a grow_universe violation — the fence that keeps one absurd
  /// upstream id from ballooning every per-vertex array.
  VertexId max_universe = 0;
  /// Consecutive kUnavailable pulls Drain tolerates (waiting out an
  /// open circuit breaker, whose cooldown is pull-counted) before the
  /// engine halts with HealthReason::kSourceFailure.
  size_t max_source_failures = 256;
};

/// Crash-safety knobs (EnableDurability / Recover). The invariant the
/// whole layer exists for: a recovered run's anchors, followers, work
/// counters, and RunSummary are BIT-IDENTICAL to the uninterrupted
/// run's, at any kill point, for every tracker configuration — because
/// recovery replays the exact committed transactions from the WAL and
/// the engine's replay is deterministic (docs/DURABILITY.md).
struct DurabilityOptions {
  /// Directory for wal.log + checkpoint-*.avtc. Must be empty (or not
  /// exist) for a fresh run; Recover reads an existing one.
  std::string dir;
  /// Write a checkpoint every N committed delta transactions; 0 keeps
  /// only the initial checkpoint (recovery then replays the whole WAL).
  size_t checkpoint_every = 0;
  FsyncPolicy fsync = FsyncPolicy::kNever;
  /// Caller configuration folded into the checkpoint fingerprint (the
  /// CLI passes k/l/algorithm flags here), so a resume under a
  /// different configuration is rejected instead of diverging.
  std::string config_extra;
};

/// Facade driving one tracker off one delta stream.
class AvtEngine {
 public:
  AvtEngine(std::unique_ptr<AvtTracker> tracker,
            std::unique_ptr<DeltaSource> source,
            EngineOptions options = EngineOptions{});

  /// Processes the next snapshot: G_0 on the first call, then one
  /// TRANSACTION per call — one pulled delta verbatim when the tracker's
  /// PreferredBatchSize() is 1, else up to that many consecutive deltas
  /// merged into one canonical net-effect delta (DeltaBatcher), so the
  /// tracker observes every N-th snapshot of the stream with state
  /// bit-identical to the per-delta replay at those boundaries. Returns
  /// false when the stream is exhausted, or an error Status when a
  /// delta fails validation — the rejected (already merged) delta is
  /// retained and re-delivered by the next Step, so resolving the
  /// problem and retrying never skips a transition.
  StatusOr<bool> Step();

  /// Steps until the stream is exhausted or a step fails.
  Status Drain();

  /// Arms crash safety for a FRESH run: every committed transaction is
  /// appended to `<dir>/wal.log` and checkpoints are written at the
  /// configured cadence (plus one right after G_0). Must be called
  /// before the first Step; the directory must not already contain a
  /// run (use Recover for that).
  Status EnableDurability(const DurabilityOptions& options);

  /// Rebuilds an engine from a durability directory: loads the latest
  /// valid checkpoint, replays the WAL (the suffix past the checkpoint
  /// when the tracker restored a state blob, the whole log otherwise),
  /// cross-checks the replayed accumulators against the checkpoint,
  /// fast-forwards `source` past every committed delta, and resumes
  /// appending. `tracker` and `source` must be freshly constructed
  /// with the same configuration as the interrupted run — the stored
  /// fingerprint rejects mismatches. Corrupt files surface as
  /// kCorruption/kIoError Status, never a crash.
  static StatusOr<std::unique_ptr<AvtEngine>> Recover(
      std::unique_ptr<AvtTracker> tracker,
      std::unique_ptr<DeltaSource> source, const EngineOptions& options,
      const DurabilityOptions& durability);

  /// The config fingerprint durability stamps into checkpoints.
  uint64_t ConfigFingerprint() const;

  /// Factory producing a fresh tracker with the engine's exact
  /// configuration — the engine cannot construct trackers itself, and
  /// audit-failure self-recovery (rollback rebuild + bisection probes)
  /// needs pristine ones. Without a factory, an audit divergence halts
  /// with kCorruption instead of self-healing.
  void SetTrackerFactory(
      std::function<std::unique_ptr<AvtTracker>()> factory) {
    tracker_factory_ = std::move(factory);
  }

  /// Corruption drill: arms a one-shot index fault that the engine
  /// injects into the tracker immediately BEFORE the next due audit
  /// (injecting at the audit boundary keeps the drill deterministic —
  /// a fault planted between transactions can be healed incidentally
  /// by the next delta's cascades before any audit sees it). The
  /// snapshot of that transaction is computed from the healthy state
  /// first, so a successful rollback recovery reproduces it exactly.
  /// No-op unless audits are enabled.
  void RequestAuditFaultDrill() { audit_drill_pending_ = true; }

  /// Engine health (monotone; see core/health.h). Audits, quarantine,
  /// self-recovery, and breaker trips all report through here and are
  /// mirrored into Summary().
  const HealthStateMachine& health() const { return health_; }
  const SentinelAuditor& auditor() const { return auditor_; }
  uint64_t QuarantinedDeltas() const { return quarantined_; }
  uint64_t Recoveries() const { return recoveries_; }

  /// Observer invoked after every processed snapshot (pause/inspect
  /// hook for tools and benches; called before Step returns).
  void SetObserver(std::function<void(const AvtSnapshotResult&)> observer) {
    observer_ = std::move(observer);
  }

  /// Snapshots processed so far (G_0 included once processed).
  size_t SnapshotsProcessed() const { return processed_; }

  /// The most recent snapshot result. Requires SnapshotsProcessed() > 0.
  const AvtSnapshotResult& last() const { return last_; }

  /// All per-snapshot results (algorithm/k/l fields are the caller's to
  /// fill; the engine records snapshots only). Empty snapshots when
  /// keep_snapshots is false.
  const AvtRunResult& result() const { return result_; }
  AvtRunResult TakeResult() { return std::move(result_); }

  /// Running aggregate over everything processed so far — identical to
  /// SummarizeRun(result()) when snapshots are kept, and still exact
  /// when they are not.
  RunSummary Summary() const;

  /// Current vertex universe as the engine has grown it.
  VertexId NumVertices() const { return num_vertices_; }

  AvtTracker& tracker() { return *tracker_; }
  const AvtTracker& tracker() const { return *tracker_; }
  const DeltaSource& source() const { return *source_; }

 private:
  void Record(AvtSnapshotResult snap);

  /// Source boundary: grows the universe for (or rejects) out-of-range
  /// endpoints. Shared by Step and WAL replay.
  Status ValidateAndGrow(const EdgeDelta& delta);

  /// Appends the just-committed transaction to the WAL and writes a
  /// cadenced checkpoint when due. No-op when durability is off.
  Status CommitDurable(const EdgeDelta& delta);

  Status WriteCheckpointNow();

  // --- self-healing internals (PR 9) ---

  bool QuarantineArmed() const { return !options_.quarantine_dir.empty(); }

  /// Structural screen for one SOURCE delta (quarantine armed only):
  /// self-loop endpoints, universe-cap / frozen-universe violations.
  /// Returns false with reason + detail filled when the delta is
  /// poison.
  bool PreValidateSourceDelta(const EdgeDelta& delta,
                              QuarantineReason* reason,
                              std::string* detail) const;

  /// Appends one poison delta to the dead-letter log (opening it
  /// lazily) and degrades health. `pull` is the 1-based source pull
  /// index the delta arrived on.
  Status Quarantine(QuarantineReason reason, const EdgeDelta& delta,
                    uint64_t pull, std::string detail);

  /// Pulls the next source delta, diverting poison to quarantine when
  /// armed and retaining raw pulls for bisection when audits are on.
  /// Same contract as DeltaSource::NextDelta.
  StatusOr<bool> PullOne(EdgeDelta* delta);

  /// Classifies a failed pull: kUnavailable degrades health and is
  /// bounded by max_source_failures; everything else passes through.
  StatusOr<bool> SourcePullFailed(const Status& status);

  /// A tracker rebuilt from G_0 + the committed WAL prefix, with every
  /// replayed snapshot retained for accumulator reconstruction.
  struct ReplayedRun {
    std::unique_ptr<AvtTracker> tracker;
    std::vector<AvtSnapshotResult> snaps;
    VertexId num_vertices = 0;
  };
  StatusOr<ReplayedRun> RebuildFromWal();

  /// Swaps in a rebuilt tracker and re-derives every accumulator from
  /// its replayed snapshots (observer suppressed: they were already
  /// observed once).
  void AdoptReplay(ReplayedRun run);

  /// Audits `tracker` with the sentinel (at the current step).
  AuditOutcome AuditTracker(const AvtTracker& tracker);

  /// The pre-commit audit tripped on the in-flight transaction:
  /// rollback, re-audit, innocent-delta check, deterministic bisection
  /// — or an honest halt when none of that is possible. On success the
  /// (possibly cleaned) transaction is recorded and committed.
  Status HandleAuditFailure(EdgeDelta delta, const std::string& failure);

  /// Marks the engine terminally broken with kCorruption semantics.
  Status HaltWith(HealthReason reason, Status status);

  std::unique_ptr<AvtTracker> tracker_;
  std::unique_ptr<DeltaSource> source_;
  EngineOptions options_;
  std::function<void(const AvtSnapshotResult&)> observer_;

  bool started_ = false;
  size_t processed_ = 0;
  VertexId num_vertices_ = 0;
  /// Merges consecutive source deltas into one net-effect transaction
  /// when the tracker requests batches (PreferredBatchSize() > 1).
  DeltaBatcher batcher_;
  /// A delta rejected by validation (already batch-merged when batching
  /// is on), re-delivered on the next Step.
  EdgeDelta pending_delta_;
  bool has_pending_delta_ = false;
  AvtRunResult result_;
  AvtSnapshotResult last_;

  // Incremental RunSummary sink (exact SummarizeRun semantics).
  double total_millis_ = 0;
  double max_millis_ = 0;
  uint64_t total_candidates_ = 0;
  uint64_t total_followers_ = 0;
  double stability_sum_ = 0;
  size_t anchor_changes_ = 0;
  std::vector<VertexId> previous_anchors_;

  // Durability state (inert until EnableDurability/Recover).
  bool durable_ = false;
  DurabilityOptions durability_;
  std::unique_ptr<DeltaWal> wal_;
  uint64_t wal_seq_ = 0;               // last committed WAL record
  uint64_t source_pulls_committed_ = 0;
  /// Source deltas pulled for the in-flight (not yet committed)
  /// transaction: survives validation failures and transient source
  /// errors so the eventual commit logs the right cursor advance.
  uint64_t uncommitted_pulls_ = 0;
  /// A durability write failed; the log can no longer be trusted to be
  /// contiguous, so every later Step refuses with this status instead
  /// of silently streaming without crash safety.
  Status durability_broken_ = Status::Ok();

  // Self-healing state (inert unless audits/quarantine/breaker are
  // armed; all counters are per-process — a Recover'd engine starts
  // them at zero, the logs on disk are the durable record).
  HealthStateMachine health_;
  SentinelAuditor auditor_;
  std::function<std::unique_ptr<AvtTracker>()> tracker_factory_;
  std::unique_ptr<QuarantineLog> quarantine_;
  uint64_t quarantined_ = 0;
  uint64_t recoveries_ = 0;
  /// Consecutive kUnavailable pulls (an open breaker counting down its
  /// cooldown); reset by any successful pull.
  size_t unavailable_streak_ = 0;
  /// Raw source deltas of the in-flight transaction (with their pull
  /// indices), retained when audits are armed so bisection can isolate
  /// a poison delta inside a merged batch. Cleared on commit.
  struct PulledDelta {
    EdgeDelta delta;
    uint64_t pull = 0;
  };
  std::vector<PulledDelta> txn_source_deltas_;
  /// Observer suppressed while AdoptReplay re-records replayed
  /// snapshots (they were observed when first processed).
  bool replaying_ = false;
  /// One-shot flag armed by RequestAuditFaultDrill.
  bool audit_drill_pending_ = false;
  /// Terminal halt (audit divergence that could not be healed, source
  /// failure bound exceeded): every later Step refuses with this.
  Status halt_status_ = Status::Ok();
};

}  // namespace avt

#endif  // AVT_CORE_ENGINE_H_

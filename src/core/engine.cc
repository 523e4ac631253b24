#include "core/engine.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "durability/checkpoint.h"
#include "util/mem.h"
#include "util/serde.h"

namespace avt {

namespace {

/// One past the largest endpoint in `delta` (0 when it has none): the
/// universe the delta needs. 64-bit so id 0xFFFFFFFF cannot wrap.
uint64_t UniverseNeeded(const EdgeDelta& delta) {
  uint64_t needed = 0;
  for (const std::vector<Edge>* batch : {&delta.insertions,
                                         &delta.deletions}) {
    for (const Edge& e : *batch) {
      needed = std::max<uint64_t>(needed, std::max(e.u, e.v) + uint64_t{1});
    }
  }
  return needed;
}

/// Grows `tracker` (whose universe is *universe) to hold `needed`
/// vertices. Replays of committed or candidate deltas call it
/// unconditionally: the boundary checks ran when the delta arrived.
void GrowUniverse(AvtTracker& tracker, uint64_t needed, VertexId* universe) {
  if (needed > *universe) {
    tracker.EnsureVertices(static_cast<VertexId>(needed));
    *universe = static_cast<VertexId>(needed);
  }
}

}  // namespace

AvtEngine::AvtEngine(std::unique_ptr<AvtTracker> tracker,
                     std::unique_ptr<DeltaSource> source,
                     EngineOptions options)
    : tracker_(std::move(tracker)),
      source_(std::move(source)),
      options_(options),
      auditor_(options.audit) {
  AVT_CHECK_MSG(tracker_ != nullptr, "AvtEngine needs a tracker");
  AVT_CHECK_MSG(source_ != nullptr, "AvtEngine needs a delta source");
}

void AvtEngine::Record(AvtSnapshotResult snap, bool observe) {
  totals_.Add(snap.millis, snap.candidates_visited, snap.num_followers,
              snap.anchors);
  if (observe && observer_) observer_(snap);
  if (options_.keep_snapshots) result_.snapshots.push_back(snap);
  last_ = std::move(snap);
}

AvtEngine::UniverseFit AvtEngine::FitUniverse(uint64_t needed) const {
  if (options_.max_universe > 0 && needed > options_.max_universe) {
    return UniverseFit::kBeyondCap;
  }
  if (!options_.grow_universe && needed > num_vertices_) {
    return UniverseFit::kFrozen;
  }
  return UniverseFit::kFits;
}

Status AvtEngine::ValidateAndGrow(const EdgeDelta& delta) {
  // Source boundary: every endpoint must fit the tracker's universe.
  const uint64_t needed = UniverseNeeded(delta);
  const UniverseFit fit = FitUniverse(needed);
  if (fit != UniverseFit::kFits) {
    const std::string at =
        "delta (transition " + std::to_string(totals_.snapshots) +
        " from source '" + source_->name() + "') references vertex " +
        std::to_string(needed - 1);
    return Status::OutOfRange(
        fit == UniverseFit::kBeyondCap
            ? at + " at or beyond the max_universe cap of " +
                  std::to_string(options_.max_universe)
            : at + " but the universe holds " +
                  std::to_string(num_vertices_) +
                  " vertices; enable EngineOptions::grow_universe for "
                  "streaming sources or fix the source");
  }
  GrowUniverse(*tracker_, needed, &num_vertices_);
  return Status::Ok();
}

StatusOr<bool> AvtEngine::Step() {
  if (!halt_status_.ok()) return halt_status_;

  if (!started_) {
    started_ = true;
    // The tracker keeps G_0 as its maintained graph, so the source hands
    // over its copy rather than keeping a second one resident.
    Graph g0 = source_->TakeInitialGraph();
    num_vertices_ = g0.NumVertices();
    AVT_RETURN_IF_ERROR(
        Commit(tracker_->ProcessFirstOwned(std::move(g0)), nullptr));
    return true;
  }

  // A delta that failed validation last Step is re-delivered, so a
  // caller that resolves the problem (grows the tracker by hand, flips
  // grow_universe) and retries does not silently skip the transition.
  // (The pending delta is already merged/validated-shaped: batching
  // happened before the failed validation, so the retry path needs no
  // re-merge.)
  EdgeDelta delta;
  if (has_pending_delta_) {
    delta = std::move(pending_delta_);
    has_pending_delta_ = false;
  } else {
    const size_t batch = tracker_->PreferredBatchSize();
    if (batch <= 1) {
      // Verbatim per-delta delivery — within-batch op order reaches the
      // tracker untouched (canonicalization would reorder it).
      StatusOr<bool> pulled = PullOne(&delta);
      if (!pulled.ok()) return SourcePullFailed(pulled.status());
      unavailable_streak_ = 0;
      if (!pulled.value()) return false;
    } else {
      // Batched transaction: merge up to `batch` consecutive deltas
      // into one canonical net-effect delta (last-op-wins, exactly the
      // state the per-delta replay reaches at this boundary). The
      // tracker pays its per-transition fixed costs once per batch. A
      // transient source error propagates with the partial batch
      // retained in the batcher — the next Step resumes the merge.
      EdgeDelta pulled;
      while (batcher_.merged() < batch) {
        StatusOr<bool> more = PullOne(&pulled);
        if (!more.ok()) return SourcePullFailed(more.status());
        if (!more.value()) break;
        batcher_.Add(pulled);
      }
      unavailable_streak_ = 0;
      if (batcher_.Empty()) return false;
      batcher_.Flush(&delta);
    }
  }

  Status valid = ValidateAndGrow(delta);
  if (!valid.ok()) {
    pending_delta_ = std::move(delta);
    has_pending_delta_ = true;
    return valid;
  }

  AvtSnapshotResult snap = tracker_->ProcessDelta(delta);

  // Pre-commit audit: a divergence must be caught while the suspect
  // transaction is still OUTSIDE the WAL — the committed prefix then
  // provably describes the last audited-good state, which is what
  // rollback recovery rebuilds.
  if (auditor_.Due(totals_.snapshots)) {
    if (audit_drill_pending_) {
      // Drill: desync the index now, with the snapshot already computed
      // from the healthy state, so the audit below must fail and the
      // rollback recovery must reproduce this exact snapshot.
      audit_drill_pending_ = false;
      tracker_->InjectAuditFaultForDrill();
    }
    AuditOutcome outcome = AuditTracker(*tracker_);
    if (outcome.audited && !outcome.ok) {
      // On success the healed transaction is already committed.
      AVT_RETURN_IF_ERROR(
          HandleAuditFailure(std::move(delta), outcome.failure));
      return true;
    }
  }

  AVT_RETURN_IF_ERROR(Commit(std::move(snap), &delta));
  return true;
}

Status AvtEngine::Commit(AvtSnapshotResult snap, const EdgeDelta* delta) {
  Record(std::move(snap));
  txn_source_deltas_.clear();
  if (!durable_) return Status::Ok();
  // G_0 is not a WAL record: its commit is the initial checkpoint, which
  // anchors the fingerprint before the first cadenced one lands. A log
  // that may have a gap can no longer promise crash safety, so a failed
  // write halts instead of streaming on unprotected.
  Status status =
      delta == nullptr ? WriteCheckpointNow() : CommitDurable(*delta);
  if (!status.ok()) return HaltWith(HealthReason::kDurabilityFailure, status);
  return status;
}

StatusOr<bool> AvtEngine::PullOne(EdgeDelta* delta) {
  for (;;) {
    StatusOr<bool> pulled = source_->NextDelta(delta);
    if (!pulled.ok()) return pulled;
    if (!pulled.value()) return false;
    ++uncommitted_pulls_;
    const uint64_t pull_index = source_pulls_committed_ + uncommitted_pulls_;
    if (QuarantineArmed()) {
      QuarantineReason reason;
      std::string detail;
      if (!PreValidateSourceDelta(*delta, &reason, &detail)) {
        // Poison diverted at the source boundary: the pull is counted
        // (commit accounting must match the stream cursor), the delta
        // never reaches the tracker, and the engine keeps pulling.
        AVT_RETURN_IF_ERROR(
            Quarantine(reason, *delta, pull_index, std::move(detail)));
        continue;
      }
    }
    if (auditor_.enabled()) {
      txn_source_deltas_.push_back({*delta, pull_index});
    }
    return true;
  }
}

StatusOr<bool> AvtEngine::SourcePullFailed(const Status& status) {
  if (status.code() != StatusCode::kUnavailable) return status;
  // An open circuit breaker rejected the pull. Degrade and let Drain
  // keep stepping — each rejected pull counts down the breaker's
  // pull-counted cooldown, so stepping IS the path back to a
  // half-open probe — but bound the patience so a dead source cannot
  // spin the engine forever.
  health_.Degrade(HealthReason::kSourceUnavailable, totals_.snapshots,
                  status.message());
  ++unavailable_streak_;
  if (unavailable_streak_ > options_.max_source_failures) {
    return HaltWith(
        HealthReason::kSourceFailure,
        Status::Unavailable(
            "source stayed unavailable for " +
            std::to_string(unavailable_streak_) +
            " consecutive pulls (max_source_failures = " +
            std::to_string(options_.max_source_failures) + "); halting"));
  }
  return status;
}

bool AvtEngine::PreValidateSourceDelta(const EdgeDelta& delta,
                                       QuarantineReason* reason,
                                       std::string* detail) const {
  for (const std::vector<Edge>* batch : {&delta.insertions,
                                         &delta.deletions}) {
    for (const Edge& e : *batch) {
      if (e.u == e.v) {
        *reason = QuarantineReason::kInvalidDelta;
        *detail = "self-loop edge {" + std::to_string(e.u) + ", " +
                  std::to_string(e.v) + "}";
        return false;
      }
    }
  }
  const uint64_t needed = UniverseNeeded(delta);
  const UniverseFit fit = FitUniverse(needed);
  if (fit == UniverseFit::kFits) return true;
  *reason = QuarantineReason::kUniverseExceeded;
  *detail = "vertex " + std::to_string(needed - 1) +
            (fit == UniverseFit::kBeyondCap
                 ? " at or beyond the max_universe cap of " +
                       std::to_string(options_.max_universe)
                 : " outside the frozen universe of " +
                       std::to_string(num_vertices_) + " vertices");
  return false;
}

Status AvtEngine::Quarantine(QuarantineReason reason, const EdgeDelta& delta,
                             uint64_t pull, std::string detail) {
  if (quarantine_ == nullptr) {
    StatusOr<std::unique_ptr<QuarantineLog>> log =
        QuarantineLog::Open(options_.quarantine_dir);
    if (!log.ok()) {
      // Failing open would mean silently dropping poison evidence —
      // the one thing the dead-letter log exists to prevent.
      return HaltWith(HealthReason::kDurabilityFailure, log.status());
    }
    quarantine_ = std::move(log).value();
  }
  QuarantineRecord record;
  record.reason = reason;
  record.source_pull = pull;
  record.delta = delta;
  record.detail = std::move(detail);
  Status status = quarantine_->Append(&record);
  if (!status.ok()) {
    return HaltWith(HealthReason::kDurabilityFailure, status);
  }
  ++quarantined_;
  health_.Degrade(HealthReason::kQuarantinedDelta, totals_.snapshots,
                  std::string(QuarantineReasonName(reason)) + ": " +
                      record.detail);
  return Status::Ok();
}

AuditOutcome AvtEngine::AuditTracker(const AvtTracker& tracker) {
  const TrackerAuditView view = tracker.AuditView();
  return auditor_.Audit(view.graph, view.order, totals_.snapshots);
}

Status AvtEngine::HaltWith(HealthReason reason, Status status) {
  health_.Halt(reason, totals_.snapshots, status.message());
  halt_status_ = status;
  return status;
}

StatusOr<AvtEngine::ReplayedRun> AvtEngine::RebuildAndApply(
    const EdgeDelta& delta, AuditOutcome* base) {
  // Buffered appends must be visible to the independent read below.
  if (wal_ != nullptr) AVT_RETURN_IF_ERROR(wal_->Flush());
  StatusOr<DeltaWal::ReadResult> read =
      DeltaWal::ReadAll(durability_.dir + "/" + DeltaWal::kFileName);
  if (!read.ok()) return read.status();

  ReplayedRun run;
  run.tracker = tracker_factory_();
  if (run.tracker == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  // The source gave its G_0 to the first snapshot; it rebuilds one for
  // the replay (an edge log decodes frame 0 again).
  Graph g0 = source_->TakeInitialGraph();
  run.num_vertices = g0.NumVertices();
  run.snaps.reserve(read.value().records.size() + 1);
  run.snaps.push_back(run.tracker->ProcessFirstOwned(std::move(g0)));
  for (const WalRecord& record : read.value().records) {
    GrowUniverse(*run.tracker, UniverseNeeded(record.delta),
                 &run.num_vertices);
    run.snaps.push_back(run.tracker->ProcessDelta(record.delta));
  }
  if (base != nullptr) {
    *base = AuditTracker(*run.tracker);
    if (base->audited && !base->ok) return run;
  }
  GrowUniverse(*run.tracker, UniverseNeeded(delta), &run.num_vertices);
  run.candidate = run.tracker->ProcessDelta(delta);
  run.audit = AuditTracker(*run.tracker);
  return run;
}

Status AvtEngine::AdoptReplay(ReplayedRun run, const EdgeDelta& delta) {
  tracker_ = std::move(run.tracker);
  num_vertices_ = run.num_vertices;
  ++recoveries_;
  // Re-derive the ledger from the replayed snapshots: results recorded
  // between the corruption and its detection may be wrong, and the
  // deterministic replay recomputes all of them exactly (timings too;
  // they are advisory). They were observed when first processed, so
  // they are not announced again.
  totals_ = {};
  result_.snapshots.clear();
  for (AvtSnapshotResult& snap : run.snaps) Record(std::move(snap), false);
  return Commit(std::move(run.candidate), &delta);
}

Status AvtEngine::HandleAuditFailure(EdgeDelta delta,
                                     const std::string& failure) {
  const std::string at = "integrity audit failed at transaction " +
                         std::to_string(totals_.snapshots);
  if (!durable_ || !tracker_factory_) {
    // No rollback machinery: the only honest move is to halt before
    // the divergent state commits anything further.
    return HaltWith(
        HealthReason::kCorruption,
        Status::Corruption(at + ": " + failure +
                           (durable_ ? " (no tracker factory; cannot "
                                       "self-recover)"
                                     : " (durability off; nothing to roll "
                                       "back to)")));
  }

  // 1. Roll back: rebuild the last known-good state from G_0 plus the
  // committed WAL prefix (every record there predates this audit).
  // 2. Re-audit the rebuild. If the committed prefix itself diverges,
  // the log does not describe a healthy run — halt with kCorruption,
  // exactly the contract: recover once, never loop on a lie.
  AuditOutcome base;
  StatusOr<ReplayedRun> retried_or = RebuildAndApply(delta, &base);
  if (!retried_or.ok()) {
    return HaltWith(HealthReason::kCorruption, retried_or.status());
  }
  if (base.audited && !base.ok) {
    return HaltWith(
        HealthReason::kCorruption,
        Status::Corruption(at + " and the state rebuilt from "
                           "checkpoint+WAL diverges again: " + base.failure));
  }

  // 3. Innocent-delta check: the suspect transaction was applied to the
  // clean rebuild. If the audit now passes, the divergence was
  // in-memory corruption (bit flip, logic drill) and the rollback
  // healed it — adopt the rebuild and commit the transaction normally.
  ReplayedRun retried = std::move(retried_or).value();
  if (retried.Passed()) {
    health_.Degrade(HealthReason::kAuditRecovered, totals_.snapshots,
                    at + "; healed by checkpoint+WAL rollback");
    return AdoptReplay(std::move(retried), delta);
  }

  // 4. The transaction itself is poison. Without quarantine there is
  // no honest way to skip it.
  if (!QuarantineArmed()) {
    return HaltWith(
        HealthReason::kCorruption,
        Status::Corruption(
            at + ": the transaction trips the audit even on a clean "
                 "rebuild (" + retried.audit.failure +
            "); arm EngineOptions::quarantine_dir to isolate the poison"));
  }

  // 5. Deterministic bisection over the raw source deltas of this
  // transaction. Invariant per round: the kept prefix passes on a
  // clean rebuild; kept+remaining fails. Binary-search the smallest
  // failing prefix of `remaining`, quarantine the delta at its edge,
  // repeat until kept+remaining passes. Every probe replays from the
  // same committed WAL prefix, so the search is exactly reproducible.
  std::vector<PulledDelta> remaining = std::move(txn_source_deltas_);
  txn_source_deltas_.clear();
  if (remaining.empty()) remaining.push_back({delta, 0});
  std::vector<PulledDelta> kept;

  auto merge = [](const std::vector<PulledDelta>& deltas) {
    DeltaBatcher batcher;
    for (const PulledDelta& pulled : deltas) batcher.Add(pulled.delta);
    EdgeDelta merged;
    if (!batcher.Empty()) batcher.Flush(&merged);
    return merged;
  };
  auto probe = [&](size_t take) -> StatusOr<bool> {
    // Apply kept + the first `take` of remaining to a fresh rebuild.
    std::vector<PulledDelta> candidate = kept;
    candidate.insert(candidate.end(), remaining.begin(),
                     remaining.begin() + take);
    StatusOr<ReplayedRun> run = RebuildAndApply(merge(candidate));
    if (!run.ok()) return run.status();
    return run.value().Passed();
  };

  for (;;) {
    StatusOr<bool> whole = probe(remaining.size());
    if (!whole.ok()) return HaltWith(HealthReason::kCorruption,
                                     whole.status());
    if (whole.value()) break;
    size_t lo = 1;
    size_t hi = remaining.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      StatusOr<bool> passes = probe(mid);
      if (!passes.ok()) return HaltWith(HealthReason::kCorruption,
                                        passes.status());
      if (passes.value()) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // remaining[lo-1] is the first delta whose application trips the
    // audit given everything kept so far.
    const PulledDelta poison = remaining[lo - 1];
    AVT_RETURN_IF_ERROR(Quarantine(
        QuarantineReason::kAuditDivergence, poison.delta, poison.pull,
        "isolated by bisection at transaction " +
            std::to_string(totals_.snapshots) + ": " + failure));
    kept.insert(kept.end(), remaining.begin(), remaining.begin() + (lo - 1));
    remaining.erase(remaining.begin(), remaining.begin() + lo);
  }
  kept.insert(kept.end(), remaining.begin(), remaining.end());

  // 6. Rebuild once more, apply the cleaned transaction for real, and
  // paranoia-audit the result before adopting it. The committed
  // transaction is the CLEANED one; its source_pulls still count every
  // pull of the original batch (quarantined deltas consumed stream
  // positions too), so recovery fast-forward stays exact.
  const EdgeDelta cleaned = merge(kept);
  StatusOr<ReplayedRun> healed = RebuildAndApply(cleaned);
  if (!healed.ok()) {
    return HaltWith(HealthReason::kCorruption, healed.status());
  }
  if (!healed.value().Passed()) {
    return HaltWith(
        HealthReason::kCorruption,
        Status::Corruption(at + ": state still diverges after bisection (" +
                           healed.value().audit.failure + ")"));
  }
  return AdoptReplay(std::move(healed).value(), cleaned);
}

Status AvtEngine::CommitDurable(const EdgeDelta& delta) {
  WalRecord record;
  record.seq = wal_seq_ + 1;
  record.source_pulls = uncommitted_pulls_;
  record.delta = delta;
  AVT_RETURN_IF_ERROR(wal_->Append(record));
  ++wal_seq_;
  source_pulls_committed_ += uncommitted_pulls_;
  uncommitted_pulls_ = 0;

  const uint64_t transactions = totals_.snapshots - 1;  // G_0: no record
  if (durability_.checkpoint_every > 0 &&
      transactions % durability_.checkpoint_every == 0) {
    // The WAL prefix this checkpoint summarizes must be in the file
    // before the checkpoint claims it happened (fflush suffices for
    // SIGKILL-survival; kEveryRecord already fsynced).
    if (durability_.fsync == FsyncPolicy::kNever) {
      AVT_RETURN_IF_ERROR(wal_->Flush());
    }
    AVT_RETURN_IF_ERROR(WriteCheckpointNow());
  }
  return Status::Ok();
}

Status AvtEngine::WriteCheckpointNow() {
  CheckpointData data;
  data.fingerprint = ConfigFingerprint();
  data.wal_records = wal_seq_;
  data.source_pulls = source_pulls_committed_;
  data.num_vertices = num_vertices_;
  data.totals = totals_;
  data.has_tracker_state = tracker_->SaveCheckpointState(&data.tracker_state);
  return WriteCheckpoint(durability_.dir, data,
                         durability_.fsync != FsyncPolicy::kNever);
}

uint64_t AvtEngine::ConfigFingerprint() const {
  std::string config;
  config += tracker_->name();
  config += '\x1f';
  config += std::to_string(tracker_->PreferredBatchSize());
  config += '\x1f';
  config += source_->name();
  config += '\x1f';
  config += options_.grow_universe ? '1' : '0';
  config += '\x1f';
  config += durability_.config_extra;
  return serde::Fnv1a64(config);
}

Status AvtEngine::EnableDurability(const DurabilityOptions& options) {
  if (started_) {
    return Status::InvalidArgument(
        "EnableDurability must precede the first Step");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability needs a directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create durability dir " + options.dir +
                           ": " + ec.message());
  }
  durability_ = options;
  auto checkpoints = ListCheckpoints(options.dir);
  if (!checkpoints.ok()) return checkpoints.status();
  if (!checkpoints.value().empty() ||
      std::filesystem::exists(
          options.dir + "/" + DeltaWal::kFileName, ec)) {
    return Status::InvalidArgument(
        "durability dir " + options.dir +
        " already contains a run; Recover from it or use a fresh dir");
  }
  auto wal = DeltaWal::Create(options.dir + "/" + DeltaWal::kFileName,
                              options.fsync);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();
  durable_ = true;
  return Status::Ok();
}

StatusOr<std::unique_ptr<AvtEngine>> AvtEngine::Recover(
    std::unique_ptr<AvtTracker> tracker, std::unique_ptr<DeltaSource> source,
    const EngineOptions& options, const DurabilityOptions& durability) {
  auto checkpoint_or = LoadLatestValidCheckpoint(durability.dir);
  if (!checkpoint_or.ok()) return checkpoint_or.status();
  CheckpointData checkpoint = std::move(checkpoint_or).value();

  const std::string wal_path = durability.dir + "/" + DeltaWal::kFileName;
  // kNotFound: the crash came before the WAL was created, recoverable
  // iff the checkpoint never claimed any records (checked below).
  StatusOr<DeltaWal::ReadResult> read = DeltaWal::ReadAll(wal_path);
  if (!read.ok() && read.status().code() != StatusCode::kNotFound) {
    return read.status();
  }
  const DeltaWal::ReadResult wal_contents =
      read.ok() ? std::move(read).value() : DeltaWal::ReadResult{};

  auto engine = std::unique_ptr<AvtEngine>(
      new AvtEngine(std::move(tracker), std::move(source), options));
  engine->durability_ = durability;

  if (engine->ConfigFingerprint() != checkpoint.fingerprint) {
    return Status::InvalidArgument(
        "durability dir " + durability.dir +
        " was written under a different configuration (fingerprint "
        "mismatch); resume with the original tracker/source/options");
  }
  if (checkpoint.wal_records > wal_contents.records.size()) {
    return Status::Corruption(
        "WAL holds " + std::to_string(wal_contents.records.size()) +
        " records but checkpoint step " +
        std::to_string(checkpoint.totals.snapshots) +
        " claims " + std::to_string(checkpoint.wal_records) +
        "; the log was truncated after the checkpoint was written");
  }
  if (checkpoint.totals.snapshots != checkpoint.wal_records + 1) {
    return Status::Corruption(
        "inconsistent checkpoint: step " +
        std::to_string(checkpoint.totals.snapshots) +
        " does not match " + std::to_string(checkpoint.wal_records) +
        " WAL records");
  }

  // Restore the tracker from its state blob when it can do so exactly;
  // otherwise replay the whole WAL from G_0 (bit-identical by the
  // engine's determinism, pinned in tests/engine_test.cc).
  bool restored = false;
  if (checkpoint.has_tracker_state) {
    Status status =
        engine->tracker_->RestoreCheckpointState(checkpoint.tracker_state);
    if (status.ok()) {
      restored = true;
    } else if (status.code() != StatusCode::kUnimplemented) {
      return status;  // corrupt blob
    }
    // kUnimplemented: a tracker family that cannot restore state falls
    // back to full replay — legal when the caller swapped algorithm
    // families, but the fingerprint already rejected that.
  }

  engine->started_ = true;
  if (restored) {
    engine->totals_ = checkpoint.totals;
    engine->num_vertices_ = checkpoint.num_vertices;
    engine->wal_seq_ = checkpoint.wal_records;
    engine->source_pulls_committed_ = checkpoint.source_pulls;
    engine->last_.anchors = checkpoint.totals.previous_anchors;
    engine->last_.t = checkpoint.totals.snapshots - 1;
  } else {
    Graph g0 = engine->source_->TakeInitialGraph();
    engine->num_vertices_ = g0.NumVertices();
    engine->Record(engine->tracker_->ProcessFirstOwned(std::move(g0)));
  }

  // Replay the committed transactions past the restore point. Each WAL
  // record is exactly one engine transaction — same merge boundaries,
  // same within-batch order as the interrupted run.
  for (const WalRecord& record : wal_contents.records) {
    if (record.seq <= engine->wal_seq_) continue;
    AVT_RETURN_IF_ERROR(engine->ValidateAndGrow(record.delta));
    engine->Record(engine->tracker_->ProcessDelta(record.delta));
    engine->wal_seq_ = record.seq;
    engine->source_pulls_committed_ += record.source_pulls;

    // Integrity anchor: when full replay passes the checkpoint's step,
    // its deterministic ledger must match bit-exactly. A mismatch
    // means the WAL and checkpoint describe different runs.
    if (!restored && engine->wal_seq_ == checkpoint.wal_records) {
      if (engine->num_vertices_ != checkpoint.num_vertices ||
          !engine->totals_.ExactlyEquals(checkpoint.totals)) {
        return Status::Corruption(
            "WAL replay diverged from checkpoint step " +
            std::to_string(checkpoint.totals.snapshots) +
            "; the durability dir mixes incompatible runs");
      }
    }
  }

  // Fast-forward the source past every committed delta: the stream
  // position after recovery is exactly where the interrupted run's
  // next pull would have started (deltas consumed but never committed
  // are re-supplied by the source — nothing is lost or double-applied).
  EdgeDelta discard;
  for (uint64_t i = 0; i < engine->source_pulls_committed_; ++i) {
    StatusOr<bool> more = engine->source_->NextDelta(&discard);
    if (!more.ok()) return more.status();
    if (!more.value()) {
      return Status::Corruption(
          "source exhausted after " + std::to_string(i) + " of " +
          std::to_string(engine->source_pulls_committed_) +
          " committed pulls; it is not the stream the log was written "
          "from");
    }
  }

  // Resume appending after the intact prefix (truncating a torn tail),
  // or start the log if the crash came before it was created.
  auto wal = std::filesystem::exists(wal_path)
                 ? DeltaWal::OpenForAppend(wal_path, durability.fsync,
                                           wal_contents.valid_bytes)
                 : DeltaWal::Create(wal_path, durability.fsync);
  if (!wal.ok()) return wal.status();
  engine->wal_ = std::move(wal).value();
  engine->durable_ = true;
  return engine;
}

Status AvtEngine::Drain() {
  for (;;) {
    StatusOr<bool> stepped = Step();
    if (!stepped.ok()) {
      // An open circuit breaker rejects pulls with kUnavailable; each
      // rejected pull counts down its pull-counted cooldown, so the
      // way to wait it out is to keep stepping. SourcePullFailed halts
      // the engine if the streak outlives max_source_failures, at
      // which point halt_status_ is set and we stop retrying.
      if (stepped.status().code() == StatusCode::kUnavailable &&
          halt_status_.ok()) {
        continue;
      }
      return stepped.status();
    }
    if (!stepped.value()) return Status::Ok();
  }
}

RunSummary AvtEngine::Summary() const {
  RunSummary summary = SummarizeTotals(totals_);
  const DeltaSource::Stats source_stats = source_->SourceStats();
  summary.source_retries = source_stats.retries;
  summary.source_transient_errors = source_stats.transient_errors;
  summary.breaker_opens = source_stats.breaker_opens;
  summary.breaker_rejected_pulls = source_stats.breaker_rejected_pulls;
  summary.audits_run = auditor_.audits_run();
  summary.audits_failed = auditor_.audits_failed();
  summary.deltas_quarantined = quarantined_;
  summary.recoveries = recoveries_;
  summary.health = health_.state();
  summary.health_reason = health_.reason();
  summary.peak_rss_bytes = PeakRssBytes();
  return summary;
}

}  // namespace avt

#include "core/engine.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "durability/checkpoint.h"
#include "durability/serde.h"
#include "util/mem.h"

namespace avt {

namespace {

/// Replay-side twin of ValidateAndGrow for trackers the engine does
/// not own yet (recovery rebuilds, bisection probes): grows the
/// tracker for a committed/candidate delta unconditionally — the
/// engine's boundary checks already ran when the delta first arrived.
void GrowForReplay(AvtTracker& tracker, const EdgeDelta& delta,
                   VertexId* universe) {
  VertexId max_id = 0;
  bool any_endpoint = false;
  for (const std::vector<Edge>* batch : {&delta.insertions,
                                         &delta.deletions}) {
    for (const Edge& e : *batch) {
      max_id = std::max({max_id, e.u, e.v});
      any_endpoint = true;
    }
  }
  if (any_endpoint && max_id >= *universe) {
    tracker.EnsureVertices(max_id + 1);
    *universe = max_id + 1;
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

void AvtEngine::Record(AvtSnapshotResult snap) {
  total_millis_ += snap.millis;
  max_millis_ = std::max(max_millis_, snap.millis);
  total_candidates_ += snap.candidates_visited;
  total_followers_ += snap.num_followers;
  if (processed_ > 0) {
    double jaccard = JaccardSimilarity(previous_anchors_, snap.anchors);
    stability_sum_ += jaccard;
    if (jaccard < 1.0) ++anchor_changes_;
  }
  previous_anchors_ = snap.anchors;
  ++processed_;
  // Replayed snapshots (AdoptReplay) were observed when first
  // processed; re-announcing them would double every side effect.
  if (observer_ && !replaying_) observer_(snap);
  if (options_.keep_snapshots) result_.snapshots.push_back(snap);
  last_ = std::move(snap);
}

Status AvtEngine::ValidateAndGrow(const EdgeDelta& delta) {
  // Source boundary: every endpoint must fit the tracker's universe.
  VertexId max_id = 0;
  bool any_endpoint = false;
  for (const std::vector<Edge>* batch : {&delta.insertions,
                                         &delta.deletions}) {
    for (const Edge& e : *batch) {
      max_id = std::max({max_id, e.u, e.v});
      any_endpoint = true;
    }
  }
  if (any_endpoint && options_.max_universe > 0 &&
      max_id >= options_.max_universe) {
    return Status::OutOfRange(
        "delta (transition " + std::to_string(processed_) +
        " from source '" + source_->name() + "') references vertex " +
        std::to_string(max_id) + " at or beyond the max_universe cap of " +
        std::to_string(options_.max_universe));
  }
  if (any_endpoint && max_id >= num_vertices_) {
    if (!options_.grow_universe) {
      return Status::OutOfRange(
          "delta (transition " + std::to_string(processed_) +
          " from source '" + source_->name() + "') references vertex " +
          std::to_string(max_id) + " but the universe holds " +
          std::to_string(num_vertices_) +
          " vertices; enable EngineOptions::grow_universe for streaming "
          "sources or fix the source");
    }
    tracker_->EnsureVertices(max_id + 1);
    num_vertices_ = max_id + 1;
  }
  return Status::Ok();
}

StatusOr<bool> AvtEngine::Step() {
  if (!halt_status_.ok()) return halt_status_;
  if (durable_ && !durability_broken_.ok()) return durability_broken_;

  if (!started_) {
    started_ = true;
    const Graph& g0 = source_->InitialGraph();
    num_vertices_ = g0.NumVertices();
    Record(tracker_->ProcessFirst(g0));
    if (durable_) {
      // The initial checkpoint anchors the fingerprint and gives
      // Recover something to validate even before the first cadenced
      // checkpoint lands.
      Status status = WriteCheckpointNow();
      if (!status.ok()) {
        durability_broken_ = status;
        health_.Halt(HealthReason::kDurabilityFailure, processed_,
                     status.message());
        return status;
      }
    }
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
  if (auditor_.Due(processed_)) {
    if (audit_drill_pending_) {
      // Drill: desync the index now, with the snapshot already computed
      // from the healthy state, so the audit below must fail and the
      // rollback recovery must reproduce this exact snapshot.
      audit_drill_pending_ = false;
      tracker_->InjectAuditFaultForDrill();
    }
    AuditOutcome outcome = AuditTracker(*tracker_);
    if (outcome.audited && !outcome.ok) {
      Status healed = HandleAuditFailure(std::move(delta), outcome.failure);
      if (!healed.ok()) return healed;
      txn_source_deltas_.clear();
      return true;  // HandleAuditFailure recorded + committed
    }
  }

  Record(std::move(snap));
  txn_source_deltas_.clear();

  if (durable_) {
    Status status = CommitDurable(delta);
    if (!status.ok()) {
      durability_broken_ = status;
      health_.Halt(HealthReason::kDurabilityFailure, processed_,
                   status.message());
      return status;
    }
  }
  return true;
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
  health_.Degrade(HealthReason::kSourceUnavailable, processed_,
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
  VertexId max_id = 0;
  bool any_endpoint = false;
  for (const std::vector<Edge>* batch : {&delta.insertions,
                                         &delta.deletions}) {
    for (const Edge& e : *batch) {
      if (e.u == e.v) {
        *reason = QuarantineReason::kInvalidDelta;
        *detail = "self-loop edge {" + std::to_string(e.u) + ", " +
                  std::to_string(e.v) + "}";
        return false;
      }
      max_id = std::max({max_id, e.u, e.v});
      any_endpoint = true;
    }
  }
  if (!any_endpoint) return true;
  if (options_.max_universe > 0 && max_id >= options_.max_universe) {
    *reason = QuarantineReason::kUniverseExceeded;
    *detail = "vertex " + std::to_string(max_id) +
              " at or beyond the max_universe cap of " +
              std::to_string(options_.max_universe);
    return false;
  }
  if (!options_.grow_universe && max_id >= num_vertices_) {
    *reason = QuarantineReason::kUniverseExceeded;
    *detail = "vertex " + std::to_string(max_id) +
              " outside the frozen universe of " +
              std::to_string(num_vertices_) + " vertices";
    return false;
  }
  return true;
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
  health_.Degrade(HealthReason::kQuarantinedDelta, processed_,
                  std::string(QuarantineReasonName(reason)) + ": " +
                      record.detail);
  return Status::Ok();
}

AuditOutcome AvtEngine::AuditTracker(const AvtTracker& tracker) {
  const TrackerAuditView view = tracker.AuditView();
  return auditor_.Audit(view.graph, view.order, processed_);
}

Status AvtEngine::HaltWith(HealthReason reason, Status status) {
  health_.Halt(reason, processed_, status.message());
  halt_status_ = status;
  return status;
}

StatusOr<AvtEngine::ReplayedRun> AvtEngine::RebuildFromWal() {
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
  const Graph& g0 = source_->InitialGraph();
  run.num_vertices = g0.NumVertices();
  run.snaps.reserve(read.value().records.size() + 1);
  run.snaps.push_back(run.tracker->ProcessFirst(g0));
  for (const WalRecord& record : read.value().records) {
    GrowForReplay(*run.tracker, record.delta, &run.num_vertices);
    run.snaps.push_back(run.tracker->ProcessDelta(record.delta));
  }
  return run;
}

void AvtEngine::AdoptReplay(ReplayedRun run) {
  tracker_ = std::move(run.tracker);
  num_vertices_ = run.num_vertices;
  // Re-derive every accumulator from the replayed snapshots: results
  // recorded between the corruption and its detection may be wrong,
  // and the deterministic replay recomputes all of them exactly
  // (timings are recomputed too — they are advisory, and the
  // checkpoint cross-check deliberately excludes them).
  processed_ = 0;
  total_millis_ = 0;
  max_millis_ = 0;
  total_candidates_ = 0;
  total_followers_ = 0;
  stability_sum_ = 0;
  anchor_changes_ = 0;
  previous_anchors_.clear();
  result_.snapshots.clear();
  replaying_ = true;
  for (AvtSnapshotResult& snap : run.snaps) Record(std::move(snap));
  replaying_ = false;
}

Status AvtEngine::HandleAuditFailure(EdgeDelta delta,
                                     const std::string& failure) {
  const std::string at =
      "integrity audit failed at transaction " + std::to_string(processed_);
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
  StatusOr<ReplayedRun> rebuilt_or = RebuildFromWal();
  if (!rebuilt_or.ok()) {
    return HaltWith(HealthReason::kCorruption, rebuilt_or.status());
  }
  ReplayedRun rebuilt = std::move(rebuilt_or).value();

  // 2. Re-audit the rebuild. If the committed prefix itself diverges,
  // the log does not describe a healthy run — halt with kCorruption,
  // exactly the contract: recover once, never loop on a lie.
  AuditOutcome base = AuditTracker(*rebuilt.tracker);
  if (base.audited && !base.ok) {
    return HaltWith(
        HealthReason::kCorruption,
        Status::Corruption(at + " and the state rebuilt from "
                           "checkpoint+WAL diverges again: " + base.failure));
  }

  // 3. Innocent-delta check: apply the suspect transaction to the
  // clean rebuild. If the audit now passes, the divergence was
  // in-memory corruption (bit flip, logic drill) and the rollback
  // healed it — adopt the rebuild and commit the transaction normally.
  GrowForReplay(*rebuilt.tracker, delta, &rebuilt.num_vertices);
  AvtSnapshotResult snap = rebuilt.tracker->ProcessDelta(delta);
  AuditOutcome retried = AuditTracker(*rebuilt.tracker);
  if (!retried.audited || retried.ok) {
    AdoptReplay(std::move(rebuilt));
    ++recoveries_;
    health_.Degrade(HealthReason::kAuditRecovered, processed_,
                    at + "; healed by checkpoint+WAL rollback");
    Record(std::move(snap));
    if (durable_) {
      Status status = CommitDurable(delta);
      if (!status.ok()) {
        durability_broken_ = status;
        health_.Halt(HealthReason::kDurabilityFailure, processed_,
                     status.message());
        return status;
      }
    }
    return Status::Ok();
  }

  // 4. The transaction itself is poison. Without quarantine there is
  // no honest way to skip it.
  if (!QuarantineArmed()) {
    return HaltWith(
        HealthReason::kCorruption,
        Status::Corruption(
            at + ": the transaction trips the audit even on a clean "
                 "rebuild (" + retried.failure +
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
    StatusOr<ReplayedRun> run_or = RebuildFromWal();
    if (!run_or.ok()) return run_or.status();
    ReplayedRun run = std::move(run_or).value();
    std::vector<PulledDelta> candidate = kept;
    candidate.insert(candidate.end(), remaining.begin(),
                     remaining.begin() + take);
    EdgeDelta merged = merge(candidate);
    GrowForReplay(*run.tracker, merged, &run.num_vertices);
    run.tracker->ProcessDelta(merged);
    AuditOutcome outcome = AuditTracker(*run.tracker);
    return !outcome.audited || outcome.ok;
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
        "isolated by bisection at transaction " + std::to_string(processed_) +
            ": " + failure));
    kept.insert(kept.end(), remaining.begin(), remaining.begin() + (lo - 1));
    remaining.erase(remaining.begin(), remaining.begin() + lo);
  }
  kept.insert(kept.end(), remaining.begin(), remaining.end());

  // 6. Rebuild once more, apply the cleaned transaction for real, and
  // paranoia-audit the result before adopting it.
  StatusOr<ReplayedRun> healed_or = RebuildFromWal();
  if (!healed_or.ok()) {
    return HaltWith(HealthReason::kCorruption, healed_or.status());
  }
  ReplayedRun healed = std::move(healed_or).value();
  EdgeDelta cleaned = merge(kept);
  GrowForReplay(*healed.tracker, cleaned, &healed.num_vertices);
  AvtSnapshotResult cleaned_snap = healed.tracker->ProcessDelta(cleaned);
  AuditOutcome verify = AuditTracker(*healed.tracker);
  if (verify.audited && !verify.ok) {
    return HaltWith(
        HealthReason::kCorruption,
        Status::Corruption(at + ": state still diverges after bisection (" +
                           verify.failure + ")"));
  }
  AdoptReplay(std::move(healed));
  ++recoveries_;
  Record(std::move(cleaned_snap));
  if (durable_) {
    // The committed transaction is the CLEANED one; its source_pulls
    // still count every pull of the original batch (quarantined deltas
    // consumed stream positions too), so recovery fast-forward stays
    // exact.
    Status status = CommitDurable(cleaned);
    if (!status.ok()) {
      durability_broken_ = status;
      health_.Halt(HealthReason::kDurabilityFailure, processed_,
                   status.message());
      return status;
    }
  }
  return Status::Ok();
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

  const size_t transactions = processed_ - 1;  // G_0 is not a WAL record
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
  data.step = processed_;
  data.wal_records = wal_seq_;
  data.source_pulls = source_pulls_committed_;
  data.num_vertices = num_vertices_;
  data.total_millis = total_millis_;
  data.max_millis = max_millis_;
  data.total_candidates = total_candidates_;
  data.total_followers = total_followers_;
  data.stability_sum = stability_sum_;
  data.anchor_changes = anchor_changes_;
  data.previous_anchors = previous_anchors_;
  std::string blob;
  if (tracker_->SaveCheckpointState(&blob)) {
    data.has_tracker_state = true;
    data.tracker_state = std::move(blob);
  }
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
  DeltaWal::ReadResult wal_contents;
  {
    StatusOr<DeltaWal::ReadResult> read = DeltaWal::ReadAll(wal_path);
    if (read.ok()) {
      wal_contents = std::move(read).value();
    } else if (read.status().code() == StatusCode::kNotFound) {
      // Crash before the WAL was created: recoverable iff the
      // checkpoint never claimed any records (checked below).
    } else {
      return read.status();
    }
  }

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
        " records but checkpoint step " + std::to_string(checkpoint.step) +
        " claims " + std::to_string(checkpoint.wal_records) +
        "; the log was truncated after the checkpoint was written");
  }
  if (checkpoint.step != checkpoint.wal_records + 1) {
    return Status::Corruption(
        "inconsistent checkpoint: step " + std::to_string(checkpoint.step) +
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
    engine->processed_ = checkpoint.step;
    engine->num_vertices_ = checkpoint.num_vertices;
    engine->total_millis_ = checkpoint.total_millis;
    engine->max_millis_ = checkpoint.max_millis;
    engine->total_candidates_ = checkpoint.total_candidates;
    engine->total_followers_ = checkpoint.total_followers;
    engine->stability_sum_ = checkpoint.stability_sum;
    engine->anchor_changes_ = static_cast<size_t>(checkpoint.anchor_changes);
    engine->previous_anchors_ = checkpoint.previous_anchors;
    engine->wal_seq_ = checkpoint.wal_records;
    engine->source_pulls_committed_ = checkpoint.source_pulls;
    engine->last_.anchors = checkpoint.previous_anchors;
    engine->last_.t = checkpoint.step - 1;
  } else {
    const Graph& g0 = engine->source_->InitialGraph();
    engine->num_vertices_ = g0.NumVertices();
    engine->Record(engine->tracker_->ProcessFirst(g0));
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
    // its deterministic accumulators must match bit-exactly. A
    // mismatch means the WAL and checkpoint describe different runs.
    if (!restored && engine->wal_seq_ == checkpoint.wal_records) {
      const bool consistent =
          engine->processed_ == checkpoint.step &&
          engine->num_vertices_ == checkpoint.num_vertices &&
          engine->total_candidates_ == checkpoint.total_candidates &&
          engine->total_followers_ == checkpoint.total_followers &&
          engine->stability_sum_ == checkpoint.stability_sum &&
          engine->anchor_changes_ == checkpoint.anchor_changes &&
          engine->previous_anchors_ == checkpoint.previous_anchors;
      if (!consistent) {
        return Status::Corruption(
            "WAL replay diverged from checkpoint step " +
            std::to_string(checkpoint.step) +
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

  // Resume appending after the intact prefix (truncating a torn tail).
  if (wal_contents.valid_bytes == 0 && wal_contents.records.empty() &&
      !std::filesystem::exists(wal_path)) {
    auto wal = DeltaWal::Create(wal_path, durability.fsync);
    if (!wal.ok()) return wal.status();
    engine->wal_ = std::move(wal).value();
  } else {
    auto wal = DeltaWal::OpenForAppend(wal_path, durability.fsync,
                                       wal_contents.valid_bytes);
    if (!wal.ok()) return wal.status();
    engine->wal_ = std::move(wal).value();
  }
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
  RunSummary summary;
  summary.snapshots = processed_;
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
  if (processed_ == 0) return summary;
  summary.total_millis = total_millis_;
  summary.max_millis = max_millis_;
  summary.total_candidates = total_candidates_;
  summary.total_followers = total_followers_;
  summary.mean_millis = total_millis_ / static_cast<double>(processed_);
  summary.mean_followers = static_cast<double>(total_followers_) /
                           static_cast<double>(processed_);
  const size_t transitions = processed_ - 1;
  summary.anchor_stability =
      transitions == 0 ? 1.0
                       : stability_sum_ / static_cast<double>(transitions);
  summary.anchor_changes = anchor_changes_;
  return summary;
}

}  // namespace avt

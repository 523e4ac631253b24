// Anchored Vertex Tracking (AVT): the paper's core problem and API.
//
// Given an evolving graph G = {G_1..G_T}, a threshold k and a budget l,
// AVT asks for one anchor set per snapshot maximizing the anchored k-core
// size (Problem formulation, Section 2.2). Two tracker families solve it:
//
//   StaticAvtTracker — re-solves every snapshot from scratch with a
//     pluggable single-snapshot solver (Greedy / OLAK / RCM /
//     Brute-force). This is how the paper runs all baselines.
//
//   IncAvtTracker — the paper's IncAVT (Algorithm 6): maintains the
//     K-order across snapshots with bounded maintenance (Algorithms 4/5),
//     seeds each snapshot's anchors with the previous answer, and probes
//     replacement candidates only among vertices impacted by the churn
//     (VI ∪ VR ∪ their neighbors, Theorem-3 filtered).
//
// Both report per-snapshot metrics (runtime, candidates visited,
// followers, anchored-core size) consumed by the benchmark harness.

#ifndef AVT_CORE_AVT_H_
#define AVT_CORE_AVT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anchor/solver.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/snapshots.h"

namespace avt {

/// Algorithms available to the runner.
enum class AvtAlgorithm {
  kGreedy,
  kOlak,
  kRcm,
  kIncAvt,
  kBruteForce,
};

const char* AvtAlgorithmName(AvtAlgorithm algorithm);

/// Per-snapshot tracking output.
struct AvtSnapshotResult {
  size_t t = 0;
  std::vector<VertexId> anchors;
  uint32_t num_followers = 0;
  uint32_t kcore_size = 0;          // |C_k| without anchors
  uint32_t anchored_core_size = 0;  // |C_k(S)| = kcore + anchors + followers
  double millis = 0;
  /// Candidates settled with a full follower query (the paper's metric).
  uint64_t candidates_visited = 0;
  /// Cheap phase-1 bound probes issued by lazy pick/swap loops.
  uint64_t bound_probes = 0;
  /// IncAVT replacement pool of this delta: its size (anchors excluded)
  /// and the entries its walk tested — |impacted| + sum of their
  /// degrees (n for the full-pool ablation). 0 for other trackers and
  /// for the first snapshot.
  uint64_t pool_size = 0;
  uint64_t pool_walked = 0;
  /// Always 0: no tracker keeps a cross-snapshot trial memo any more.
  /// Kept only because the perfbench harness still reads them.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_bytes = 0;
};

/// Whole-run output plus aggregates.
struct AvtRunResult {
  AvtAlgorithm algorithm;
  uint32_t k = 0;
  uint32_t l = 0;
  std::vector<AvtSnapshotResult> snapshots;

  double TotalMillis() const;
  uint64_t TotalCandidatesVisited() const;
  uint64_t TotalFollowers() const;
};

class KOrder;

/// Read-only window into a tracker's internals for integrity audits
/// (see AvtTracker::AuditView and core/health.h).
struct TrackerAuditView {
  const Graph* graph = nullptr;
  const KOrder* order = nullptr;
};

/// Streaming tracker interface over an evolving graph. Trackers consume
/// a delta STREAM: after ProcessFirst seeds them with G_0, each
/// ProcessDelta receives only the transition — every tracker retains
/// whatever state it needs (the incremental tracker its maintained
/// graph + K-order, the from-scratch baselines their own snapshot
/// copy), so drivers never materialize graphs on the trackers' behalf.
class AvtTracker {
 public:
  virtual ~AvtTracker() = default;

  /// Processes the first snapshot.
  virtual AvtSnapshotResult ProcessFirst(const Graph& g0) = 0;

  /// Processes the transition G_{t-1} -> G_t described by `delta`. Every
  /// endpoint must be inside the tracker's current vertex universe
  /// (grow first via EnsureVertices; AvtEngine does this automatically
  /// for streaming sources).
  virtual AvtSnapshotResult ProcessDelta(const EdgeDelta& delta) = 0;

  /// Grows the tracker's vertex universe to at least `count` ids (new
  /// vertices isolated; no effect when already large enough). Called
  /// between transitions only, never mid-ProcessDelta.
  virtual void EnsureVertices(VertexId count) = 0;

  /// Serializes the tracker's EXACT resumable state into `*out`
  /// (replacing its contents), for durability checkpoints. Returns
  /// false when the tracker does not support state snapshots — the
  /// default, and the right answer whenever a blob cannot capture the
  /// retained state faithfully (the incremental tracker's K-order
  /// positions are history-dependent, so it declines and recovery
  /// replays the full WAL instead, which is bit-identical by
  /// construction).
  virtual bool SaveCheckpointState(std::string* out) const {
    (void)out;
    return false;
  }

  /// Restores state produced by SaveCheckpointState on a freshly
  /// constructed tracker with the same configuration. kUnimplemented
  /// when unsupported, kCorruption when the blob does not decode.
  virtual Status RestoreCheckpointState(const std::string& blob) {
    (void)blob;
    return Status::Unimplemented(name() +
                                 " does not support checkpoint state");
  }

  /// How many consecutive source deltas the driver should merge into
  /// one net-effect transaction before each ProcessDelta call. 1 (the
  /// default) means verbatim per-delta delivery; trackers whose
  /// per-transition fixed costs dominate (IncAVT's incumbent query +
  /// candidate-pool rebuild) override this to request batched
  /// transactions. With N > 1 the tracker observes every N-th snapshot
  /// of the stream — exactly the state a per-delta replay reaches at
  /// those boundaries (DeltaBatcher's last-op-wins guarantee).
  virtual size_t PreferredBatchSize() const { return 1; }

  /// Read-only window into the tracker's REDUNDANT internal state for
  /// integrity audits (core/health.h): the maintained graph plus, when
  /// the tracker keeps one, the incrementally maintained K-order index
  /// a fresh decomposition can be checked against. Null pointers mean
  /// "nothing to cross-check" — the re-solve family retains only a
  /// graph copy (order stays null) and audits skip it.
  virtual TrackerAuditView AuditView() const { return {}; }

  /// Corruption drill: forcibly desynchronizes redundant internal
  /// state — the signature of a maintenance regression or a memory
  /// fault — so audits have something real to detect. Returns false
  /// when the tracker keeps no redundant state. Drill/test surface
  /// only (tests, `avt_cli stream --corrupt-state-after`); never
  /// called by library code.
  virtual bool InjectAuditFaultForDrill() { return false; }

  virtual std::string name() const = 0;
};

/// Re-solve-per-snapshot tracker wrapping any single-snapshot solver.
/// Retains its own copy of the current snapshot and applies each delta
/// to it — the O(m) snapshot cost lives with the algorithm family that
/// actually re-reads the whole graph, not with every caller.
class StaticAvtTracker : public AvtTracker {
 public:
  StaticAvtTracker(std::unique_ptr<AnchorSolver> solver, uint32_t k,
                   uint32_t l)
      : solver_(std::move(solver)), k_(k), l_(l) {}

  AvtSnapshotResult ProcessFirst(const Graph& g0) override;
  AvtSnapshotResult ProcessDelta(const EdgeDelta& delta) override;
  void EnsureVertices(VertexId count) override {
    if (count > 0) graph_.EnsureVertex(count - 1);
  }
  std::string name() const override { return solver_->name(); }

  /// The re-solve family's whole state is the snapshot counter plus the
  /// retained graph — and the graph's neighbor ORDER feeds solver
  /// tie-breaks, so the blob stores the adjacency lists verbatim.
  /// Restoring it and replaying the WAL suffix is therefore exactly
  /// the uninterrupted run.
  bool SaveCheckpointState(std::string* out) const override;
  Status RestoreCheckpointState(const std::string& blob) override;

  /// Only the retained snapshot is visible; there is no maintained
  /// index to cross-check, so audits skip this family.
  TrackerAuditView AuditView() const override { return {&graph_, nullptr}; }

 private:
  AvtSnapshotResult SolveSnapshot();

  std::unique_ptr<AnchorSolver> solver_;
  uint32_t k_;
  uint32_t l_;
  size_t t_ = 0;
  Graph graph_;  // retained current snapshot
};

/// Runs one algorithm over a whole snapshot sequence. `batch_size` sets
/// IncAVT's delta-transaction width (ignored by the re-solve families,
/// whose per-snapshot cost has no per-delta fixed part): with N > 1 the
/// engine merges N consecutive deltas per transaction, so the run
/// reports one result per BATCH BOUNDARY snapshot — each bit-identical
/// to the per-delta replay's result at that snapshot
/// (tests/differential_fuzz_test.cc pins this).
AvtRunResult RunAvt(const SnapshotSequence& sequence, AvtAlgorithm algorithm,
                    uint32_t k, uint32_t l, size_t batch_size = 1);

/// Factory for trackers (IncAVT included). `batch_size` as in RunAvt.
std::unique_ptr<AvtTracker> MakeTracker(AvtAlgorithm algorithm, uint32_t k,
                                        uint32_t l, size_t batch_size = 1);

}  // namespace avt

#endif  // AVT_CORE_AVT_H_

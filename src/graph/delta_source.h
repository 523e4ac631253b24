// Streaming delta ingestion: pull-based sources of edge-delta streams.
//
// The paper's cost model is O(churn) per transition, yet a driver that
// materializes a Graph per snapshot pays O(snapshot) just to feed the
// tracker. DeltaSource inverts that: an evolving network is an initial
// snapshot plus a pull-based stream of EdgeDelta transitions, and the
// engine (core/engine.h) drives any AvtTracker off the stream in
// O(m + Σ|Δ|) memory. Four source families cover the repo's workloads:
//
//   SequenceSource          — adapts an in-memory SnapshotSequence
//                             (deltas re-emitted verbatim, so a streamed
//                             replay is bit-identical to the historical
//                             ForEachSnapshot replay);
//   StreamingEdgeFileSource — reads a timestamped edge-list file
//                             incrementally, window-diffing it into
//                             per-period deltas without ever holding
//                             more than one window's pairs in memory;
//   ChurnSource /           — generator-backed streams (gen/
//   TemporalWindowSource      generator_source.h), one delta per pull;
//   CoalescingSource        — a decorator merging a fixed window of
//                             upstream deltas into one net-effect batch.
//
// Contract: InitialGraph() (or TakeInitialGraph()) first, then
// NextDelta() until it returns false. Emitted deltas may reference
// vertex ids beyond the previous universe (streaming files discover
// vertices mid-stream); consumers grow via Graph::EnsureVertex — the
// engine does this automatically, or rejects the delta with a clear
// Status when growth is disabled, instead of letting the id trip an
// assertion deep in Graph::AddEdge.

#ifndef AVT_GRAPH_DELTA_SOURCE_H_
#define AVT_GRAPH_DELTA_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/snapshots.h"
#include "util/status.h"

namespace avt {

/// Pull-based stream of graph transitions.
class DeltaSource {
 public:
  virtual ~DeltaSource() = default;

  /// The stream's first snapshot G_0. Stable reference, valid for the
  /// source's lifetime or until the next TakeInitialGraph() call.
  /// Streaming sources may report a smaller vertex universe than the
  /// stream eventually reaches.
  virtual const Graph& InitialGraph() const = 0;

  /// G_0 for a consumer that keeps it (the engine hands it to the
  /// tracker's ProcessFirstOwned). The default copies InitialGraph(). A
  /// source that holds G_0 only to serve it may move its copy out, so
  /// one resident copy remains; InitialGraph() must still work after,
  /// by rebuilding G_0 (MmapEdgeLogSource re-decodes frame 0).
  /// Decorators forward to the inner source.
  virtual Graph TakeInitialGraph() { return InitialGraph(); }

  /// Pulls the next transition into `*delta` (overwriting it). Returns
  /// false when the stream is exhausted (`*delta` is then unspecified),
  /// true when a delta was produced, or a non-OK Status when the pull
  /// failed. A transient failure (kIoError) leaves the stream position
  /// unchanged: calling NextDelta again re-attempts the same pull, which
  /// is what RetryingSource builds on. kCorruption is terminal.
  virtual StatusOr<bool> NextDelta(EdgeDelta* delta) = 0;

  /// Ingestion-side fault counters, aggregated over the source's
  /// lifetime. Decorators that absorb faults (RetryingSource) report
  /// them here; plain sources report zeros. The engine folds these
  /// into RunSummary so retry activity is visible in run output.
  struct Stats {
    uint64_t retries = 0;           ///< re-attempted pulls
    uint64_t transient_errors = 0;  ///< transient errors absorbed
    /// Circuit-breaker counters (CircuitBreakerSource): transitions to
    /// the open state, and pulls rejected without touching the inner
    /// source while open. Zero without a breaker in the stack. Every
    /// decorator forwards-and-adds, so the counters survive any
    /// wrapper nesting order (pinned by tests/breaker_test.cc).
    uint64_t breaker_opens = 0;
    uint64_t breaker_rejected_pulls = 0;
  };
  virtual Stats SourceStats() const { return {}; }

  virtual std::string name() const = 0;
};

/// Adapts an in-memory SnapshotSequence (non-owning: the sequence must
/// outlive the source). Deltas are emitted verbatim — same batches,
/// same within-batch order — so replaying this source is bit-identical
/// to the historical materialized ForEachSnapshot replay.
class SequenceSource : public DeltaSource {
 public:
  explicit SequenceSource(const SnapshotSequence* sequence)
      : sequence_(sequence) {}

  const Graph& InitialGraph() const override { return sequence_->initial(); }

  StatusOr<bool> NextDelta(EdgeDelta* delta) override {
    if (next_ >= sequence_->deltas().size()) return false;
    *delta = sequence_->deltas()[next_++];
    return true;
  }

  std::string name() const override { return "sequence"; }

 private:
  const SnapshotSequence* sequence_;
  size_t next_ = 0;
};

/// Decorator: merges up to `window` upstream deltas into one canonical
/// net-effect delta per pull. Within the window only each edge's LAST
/// operation survives (an edge inserted then deleted collapses to its
/// deletion — a no-op on an edge that was absent before the window, so
/// it never costs a cascade; deleted-then-reinserted likewise collapses
/// to a no-op insertion). Self-loops and duplicates are dropped and the
/// batches sorted by EdgeDelta::Canonicalize, so the output is
/// deterministic regardless of upstream batch order. Replaying the
/// coalesced stream visits every `window`-th snapshot of the upstream
/// stream exactly (tests/delta_source_test.cc pins this against
/// materialized diffs). window == 1 is the identity: deltas pass
/// through verbatim, preserving bit-identical replay.
class CoalescingSource : public DeltaSource {
 public:
  CoalescingSource(std::unique_ptr<DeltaSource> inner, size_t window);

  const Graph& InitialGraph() const override {
    return inner_->InitialGraph();
  }
  Graph TakeInitialGraph() override { return inner_->TakeInitialGraph(); }

  /// A transient inner error propagates with the partially merged
  /// window retained, so a later call resumes the same window where it
  /// left off — coalescing composes with retry without re-pulling
  /// already-merged deltas.
  StatusOr<bool> NextDelta(EdgeDelta* delta) override;

  Stats SourceStats() const override { return inner_->SourceStats(); }

  std::string name() const override {
    return inner_->name() + "+coalesce" + std::to_string(window_);
  }

 private:
  std::unique_ptr<DeltaSource> inner_;
  size_t window_;
  DeltaBatcher batcher_;  // shared last-op-wins merge (graph/delta.h)
};

/// Incremental sliding-window differ over a time-ordered event stream:
/// the streaming equivalent of gen/temporal.h's WindowSnapshots. Feed
/// events in nondecreasing timestamp order with Observe; EmitWindow
/// then produces the canonical delta from the previously emitted window
/// to the window containing every pair whose most recent event is
/// strictly after `horizon`. Memory is O(pairs alive in the window):
/// pairs that age out are forgotten (a later event re-adds them), never
/// the whole history.
class WindowDiffer {
 public:
  /// Records one interaction (u != v, dense ids).
  void Observe(VertexId u, VertexId v, int64_t timestamp);

  /// Diffs against the previous emission and updates the window state.
  /// `delta` is overwritten with sorted, disjoint, canonical batches.
  void EmitWindow(int64_t horizon, EdgeDelta* delta);

 private:
  struct PairState {
    int64_t last_seen;
    bool present;  // member of the previously emitted window
  };
  std::unordered_map<uint64_t, PairState> pairs_;
};

/// Computes the end timestamp of period `t` of `T` equal periods over
/// [t_min, t_max] — the boundary rule of WindowSnapshots, shared so the
/// streamed and materialized paths cannot drift.
inline int64_t WindowBoundary(int64_t t_min, int64_t t_max, size_t t,
                              size_t T) {
  const double span =
      std::max<double>(1.0, static_cast<double>(t_max - t_min + 1));
  return t_min +
         static_cast<int64_t>(span * static_cast<double>(t) /
                              static_cast<double>(T)) -
         1;
}

/// What StreamingEdgeFileSource's metadata pre-scan learns about a
/// temporal edge-list file: the timestamp range that fixes the window
/// boundaries and the distinct-endpoint count that fixes the dense
/// universe. Callers that already know these (a binary edge-log header,
/// a prior scan, a generator) hand them to Open and skip the O(file)
/// pre-scan entirely — the fix for the two-pass ingestion cost.
struct TemporalFileMetadata {
  int64_t t_min = 0;
  int64_t t_max = 0;
  /// Distinct non-self-loop endpoint ids (the dense universe size).
  VertexId num_vertices = 0;
};

/// One pass over `path` (O(distinct ids) memory): validates grammar
/// and timestamp sortedness (kInvalidArgument on disorder or an empty
/// event set, kCorruption on malformed lines — LoadTemporalEdgeList's
/// taxonomy) and returns the stream metadata. This IS the pre-scan
/// StreamingEdgeFileSource::Open runs when no metadata is supplied.
StatusOr<TemporalFileMetadata> ScanTemporalMetadata(
    const std::string& path);

/// Streams a temporal edge-list file ("u v timestamp" lines, '#'/'%'
/// comments — the exact grammar of LoadTemporalEdgeList) into T
/// window-diffed transitions without materializing any snapshot beyond
/// G_0. Requirements and behavior:
///
///   * the file must be sorted by timestamp (the batch loader sorts in
///     memory; a stream cannot) — Open rejects out-of-order files with
///     a clear Status instead of silently mis-windowing;
///   * raw vertex ids are compacted to dense [0, n) in first-appearance
///     order, matching LoadTemporalEdgeList on a sorted file. The
///     metadata pass counts the distinct ids, so G_0 declares the FULL
///     dense universe up front (vertices isolated until first touched):
///     K-order positions of not-yet-active vertices then match the
///     batch loader's build exactly, which is what makes the replay
///     bit-identical rather than merely edge-set-equal. Memory stays
///     O(n + window pairs), never O(T * m). (Sources that cannot bound
///     their universe still work — the engine grows trackers on demand
///     via EnsureVertex; this source just never needs it.);
///   * replaying the stream is snapshot-for-snapshot bit-identical —
///     graphs, anchors, and follower counts, under every tracker
///     configuration — to materializing
///     WindowSnapshots(LoadTemporalEdgeList(path), T, window_days)
///     (enforced by tests/delta_source_test.cc, the differential fuzz,
///     and the PR-5 perf gate).
///
/// Open performs one cheap metadata pass (timestamp range, ordering
/// check, universe size — O(n) memory), then streams the file once
/// more as deltas are pulled.
class StreamingEdgeFileSource : public DeltaSource {
 public:
  /// Opens `path` for a T-snapshot stream with the given window width.
  /// Runs ScanTemporalMetadata first (one O(file) pre-scan), then
  /// streams the file once more as deltas are pulled.
  static StatusOr<std::unique_ptr<StreamingEdgeFileSource>> Open(
      const std::string& path, size_t T, uint32_t window_days);

  /// Same stream, but with the pre-scan skipped: `metadata` supplies
  /// the timestamp range and universe, so the file is read exactly
  /// once. The caller vouches for the metadata (from a previous scan,
  /// a convert run, or an external catalog); wrong values mis-window
  /// the stream the same way they would mis-window the batch loader.
  /// Sortedness is still verified incrementally while streaming, so a
  /// disordered file surfaces as kInvalidArgument mid-stream instead
  /// of silently wrong deltas.
  static StatusOr<std::unique_ptr<StreamingEdgeFileSource>> Open(
      const std::string& path, size_t T, uint32_t window_days,
      const TemporalFileMetadata& metadata);

  const Graph& InitialGraph() const override { return initial_; }
  StatusOr<bool> NextDelta(EdgeDelta* delta) override;
  std::string name() const override { return "file-stream"; }

  /// Vertex ids mapped by the delta stream so far (<= the declared
  /// universe; reaches it once every vertex's first event streamed by).
  VertexId NumVerticesSeen() const {
    return static_cast<VertexId>(ids_.size());
  }

 private:
  StreamingEdgeFileSource() = default;

  /// Feeds every event with timestamp <= `boundary` into the differ.
  /// Leaves the first later event pending. Returns a Status only for
  /// malformed lines (ordering was validated by Open).
  Status ConsumeUpTo(int64_t boundary);

  std::ifstream file_;
  std::unordered_map<uint64_t, VertexId> ids_;
  WindowDiffer differ_;
  Graph initial_;
  std::string path_;
  size_t T_ = 0;
  uint32_t window_days_ = 0;
  size_t next_t_ = 2;  // next window to emit (window 1 built G_0)
  int64_t t_min_ = 0;
  int64_t t_max_ = 0;
  size_t line_number_ = 0;
  int64_t last_ts_ = 0;     // incremental sortedness check
  bool any_event_ = false;
  bool has_pending_ = false;
  VertexId pending_u_ = 0;
  VertexId pending_v_ = 0;
  int64_t pending_ts_ = 0;
};

}  // namespace avt

#endif  // AVT_GRAPH_DELTA_SOURCE_H_

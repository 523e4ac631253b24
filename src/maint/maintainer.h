// Order-based core maintenance (paper Section 5.2, Algorithms 4 and 5).
//
// CoreMaintainer owns a Graph plus its KOrder index and keeps both
// consistent under edge insertions and deletions. A batch delta is applied
// one edge at a time: a single edge changes any core number by at most
// one, so the published single-edge OrderInsert / OrderRemoval updates,
// looped over the batch, implement the paper's bounded K-order maintenance
// exactly (see DESIGN.md for the equivalence argument).
//
// Insertion cascade ("EdgeInsert"). Let the root be the endpoint earlier
// in K-order, at level K. Its remaining degree deg+ rises by one; if it
// now exceeds K a promotion cascade runs over level K in order: a visited
// vertex w is an optimistic candidate when
//     deg+(w) + deg-(w) > K
// where deg-(w) counts already-candidate neighbors positioned before w.
// After the scan, candidates whose exact support
//     |{x in nbr(w) : core(x) >= K+1}| + |{x in nbr(w) : x candidate}|
// falls below K+1 are eliminated to a fixpoint. Survivors form exactly the
// set of vertices whose core number rises to K+1 (the unique maximal
// self-supporting set); they move, preserving relative order, to the front
// of level K+1. Eliminated vertices move to the back of level K in
// elimination order, which provably restores deg+(v) <= core(v).
//
// Deletion cascade ("EdgeRemove"). Only vertices at level K = min endpoint
// core can drop, by exactly one level. Starting from the endpoints, a
// vertex drops when its current-core degree (the paper's max-core degree,
// Definition 6) falls below K; drops propagate to level-K neighbors.
// Dropped vertices move to the back of level K-1 in drop order.
//
// After every edge operation the index satisfies the full invariant suite
// of corelib/invariants.h; randomized differential tests in
// tests/maintainer_*.cc verify this against fresh decompositions.

#ifndef AVT_MAINT_MAINTAINER_H_
#define AVT_MAINT_MAINTAINER_H_

#include <cstdint>
#include <vector>

#include "corelib/korder.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "util/epoch.h"

namespace avt {

/// Counters describing maintenance work done (for benches/tests).
struct MaintenanceStats {
  uint64_t edges_inserted = 0;
  uint64_t edges_removed = 0;
  uint64_t promotions = 0;   // vertices whose core rose
  uint64_t demotions = 0;    // vertices whose core fell
  uint64_t visited = 0;      // vertices examined by cascades
  uint64_t cascades = 0;     // operations that triggered a cascade

  void Reset() { *this = MaintenanceStats{}; }
};

/// Graph + K-order pair kept consistent under edge churn.
class CoreMaintainer {
 public:
  CoreMaintainer() = default;

  /// Takes a copy of `graph` and builds the index.
  void Reset(const Graph& graph);

  const Graph& graph() const { return graph_; }
  const KOrder& order() const { return order_; }
  uint32_t CoreOf(VertexId v) const { return order_.CoreOf(v); }

  /// Retained no-op: the maintainer once patched an optional CSR mirror
  /// of its adjacency, and callers that asked for one still compile.
  /// Every cascade scans graph() whatever the argument.
  void SetCsrMirror(bool enabled) { (void)enabled; }

  /// Grows the vertex universe to at least `count` ids: isolated
  /// vertices appended to the graph, the K-order (back of level 0) and
  /// every cascade scratch array — all in lockstep, no rebuild. Streaming delta sources discover vertices
  /// mid-stream; callers grow before ApplyDelta so edge endpoints are
  /// always in range. Existing state (cores, tags, deg+) is untouched:
  /// an isolated vertex cannot change any other vertex's core number.
  void EnsureVertices(VertexId count);

  /// Inserts one edge, updating cores/K-order. Returns false if the edge
  /// already existed (no-op).
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes one edge. Returns false if absent (no-op).
  bool RemoveEdge(VertexId u, VertexId v);

  /// Applies a whole delta (insertions then deletions, matching the
  /// paper's G'_t = G_{t-1} (+) E+ followed by E-). Returns the set of
  /// vertices touched by any cascade (deduplicated): the union the paper
  /// calls VI and VR before filtering by core number.
  std::vector<VertexId> ApplyDelta(const EdgeDelta& delta);

  /// Heap bytes held: graph, K-order and cascade scratch.
  size_t MemoryFootprint() const;

  const MaintenanceStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Corruption drill (tests, `avt_cli stream --corrupt-state-after`):
  /// moves one vertex — the front of the highest populated level — one
  /// level up WITHOUT touching the graph, so the index reports a wrong
  /// core number: exactly the signature of a maintenance regression or
  /// a memory fault. Returns false on an empty universe. Never called
  /// by library code; the integrity audits (core/health.h) exist to
  /// catch states like the one this creates.
  bool InjectIndexFaultForDrill();

 private:
  void RunInsertCascade(VertexId root, uint32_t level);
  void RunRemoveCascade(const std::vector<VertexId>& seeds, uint32_t level);
  void MarkAffected(VertexId v);

  Graph graph_;
  KOrder order_;
  MaintenanceStats stats_;

  // Scratch for cascades (sized to vertex count by Reset()).
  EpochArray<uint32_t> deg_minus_;
  EpochArray<uint8_t> in_heap_;
  EpochArray<uint8_t> candidate_;   // tentatively promoted
  EpochArray<uint8_t> eliminated_;
  EpochArray<uint32_t> support_;
  EpochArray<uint32_t> cd_;         // current-core degree (deletions)
  EpochArray<uint8_t> dropped_;

  // Batch-level affected set (valid during ApplyDelta).
  EpochArray<uint8_t> affected_mark_;
  std::vector<VertexId> affected_list_;
  bool collecting_affected_ = false;
};

}  // namespace avt

#endif  // AVT_MAINT_MAINTAINER_H_

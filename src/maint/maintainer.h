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
// The cascade walks a candidate's adjacency once, when it is popped. The
// walk counts `above` (neighbors at core > K), pushes the later level-K
// neighbors (their deg-), credits each earlier candidate neighbor's
// support by one, and appends every level-K neighbor, in list order, to
// a per-cascade stash. So support(w) = above + deg-(w) + the credits of
// later candidates, with no second scan; elimination walks w's stash
// (every candidate is at level K), in the same order as a full walk.
// deg+ then follows without a recount. A survivor sits at the front of
// K+1, so its later set is `above` plus the survivors after it among
// its stash. An eliminated vertex's support froze when it fell: above
// plus the candidates that outlived it, which is exactly its later set
// at the back of level K. An unmoved vertex gains one later neighbor
// per candidate before it, i.e. its deg-.
//
// Deletion cascade ("EdgeRemove"). Only vertices at level K = min endpoint
// core can drop, by exactly one level. Starting from the endpoints, a
// vertex drops when its current-core degree (the paper's max-core degree,
// Definition 6) falls below K; drops propagate to level-K neighbors.
// Dropped vertices move to the back of level K-1 in drop order. The
// first touch of a vertex walks its adjacency once for that degree, cd,
// and stashes its level-K neighbors; drop propagation reads the stash.
// deg+ stays exact without a neighborhood recount: a dropped vertex w
// leaves the later set of a kept level-K neighbor x iff x preceded w (w
// ends up below all of level K), and every other neighbor keeps its
// relative position to w, so the cascade decrements those x (from w's
// stash). w's own later set is the cd it dropped with: its kept
// neighbors at core >= K plus the neighbors dropped after it.
//
// Theorem-3 neighbor counters. Reset(graph, k) with k > 0 also keeps,
// per vertex x outside the k-core, the number of neighbors at core k-1
// (shell) and at core >= k (core) in one 8-byte record. Each edge
// operation adjusts its endpoints in O(1); a cascade that moves a
// vertex across the k-2 | k-1 | k class boundary re-classes it in its
// neighbors' records with one more O(deg) walk. k-core members keep no
// live counts (Theorem 3 rejects them without one): a vertex that drops
// out of the k-core is recounted in O(deg) once the drops have moved,
// so neither the fill nor any update has to visit the dense k-core's
// adjacency. The counters and deg+ then decide Theorem 3
// (anchor/candidates.h) without a neighbor scan:
//   core(x) >= k:   never a candidate;
//   core(x) <  k-1: every level-(k-1) vertex follows x in the K-order,
//                   so x qualifies iff shell(x) > 0;
//   core(x) == k-1: every neighbor at core >= k follows x and deg+ is
//                   exact, so x has a later level-(k-1) neighbor iff
//                   deg+(x) exceeds its count of neighbors at >= k.
//
// Theorem-3 verdict byte. The verdict itself is kept too, one byte per
// vertex, so a query reads a cache-resident byte instead of the vertex's
// K-order and counter records. The byte is recomputed from the formula
// above wherever one of its inputs changes for a vertex: its counters
// (the per-edge and re-class updates, the recount after leaving the
// k-core), its deg+ (the Lemma-1 endpoint of every edge operation, the
// removal cascade's kept-neighbor decrement, the deg+ both cascades set
// for the vertices they visit or drop) and its core (every moved vertex
// is visited or dropped, so the final loops refresh it after its move).
//
// After every edge operation the index satisfies the full invariant suite
// of corelib/invariants.h; randomized differential tests in
// tests/maintainer_*.cc verify this against fresh decompositions.

#ifndef AVT_MAINT_MAINTAINER_H_
#define AVT_MAINT_MAINTAINER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "corelib/korder.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "util/bitmap.h"
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
  uint64_t adjacency_reads = 0;   // adjacency-list entries the cascades
                                  // read (one walk per cascade vertex,
                                  // plus re-class and recount walks)

  void Reset() { *this = MaintenanceStats{}; }
};

/// Graph + K-order pair kept consistent under edge churn.
class CoreMaintainer {
 public:
  CoreMaintainer() = default;

  /// Takes `graph` as the maintained graph and builds the index. With
  /// k > 0 it also fills the Theorem-3 neighbor counters and verdict
  /// bytes for threshold k in one O(m) pass (see the file comment);
  /// with k = 0 it keeps neither.
  void Reset(Graph&& graph, uint32_t k = 0);
  /// Same on a copy of `graph`.
  void Reset(const Graph& graph, uint32_t k = 0) { Reset(Graph(graph), k); }

  const Graph& graph() const { return graph_; }
  const KOrder& order() const { return order_; }
  uint32_t CoreOf(VertexId v) const { return order_.CoreOf(v); }

  /// Threshold of the neighbor counters (0: none kept).
  uint32_t counter_k() const { return counter_k_; }
  /// Neighbors of v at core counter_k()-1 / at core >= counter_k().
  /// Valid only when counter_k() > 0 and v is outside the k-core.
  uint32_t ShellNeighbors(VertexId v) const { return nbr_counts_[v].shell; }
  uint32_t CoreNeighbors(VertexId v) const { return nbr_counts_[v].core; }

  /// Theorem-3 verdict for threshold counter_k(): equal to
  /// IsAnchorCandidate(graph(), order(), x, counter_k()). One read of
  /// the maintained verdict byte, refreshed by every edge operation and
  /// cascade step that changes x's core, deg+ or counters (see the file
  /// comment). False for every vertex when no counters are kept.
  bool IsCandidate(VertexId x) const {
    return counter_k_ > 0 && candidate_[x] != 0;
  }

  /// Every vertex passing IsCandidate, ascending id: the Theorem-3 pool
  /// of the whole graph in one pass over the verdict bytes
  /// (CollectAnchorCandidates scans O(m)).
  std::vector<VertexId> CollectCandidates() const;

  /// Retained no-op: the maintainer once patched an optional CSR mirror
  /// of its adjacency, and callers that asked for one still compile.
  /// Every cascade scans graph() whatever the argument.
  void SetCsrMirror(bool enabled) { (void)enabled; }

  /// Grows the vertex universe to at least `count` ids: isolated
  /// vertices appended to the graph, the K-order (back of level 0) and
  /// every cascade scratch array — all in lockstep, no rebuild. Streaming delta sources discover vertices
  /// mid-stream; callers grow before ApplyDelta so edge endpoints are
  /// always in range. Existing state (cores, tags, deg+, counters) is
  /// untouched: an isolated vertex cannot change any other vertex's core
  /// number, and its own counters and verdict byte are zero.
  void EnsureVertices(VertexId count);

  /// Inserts one edge, updating cores/K-order. Returns false if the edge
  /// already existed (no-op).
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes one edge. Returns false if absent (no-op).
  bool RemoveEdge(VertexId u, VertexId v);

  /// Applies a whole delta (insertions then deletions, matching the
  /// paper's G'_t = G_{t-1} (+) E+ followed by E-). Returns the set of
  /// vertices touched by any cascade (deduplicated): the union the paper
  /// calls VI and VR before filtering by core number. The list is a
  /// member reused across deltas, valid until the next ApplyDelta.
  const std::vector<VertexId>& ApplyDelta(const EdgeDelta& delta);

  /// Heap bytes held: graph, K-order, Theorem-3 counters and verdict
  /// bytes, and cascade scratch.
  size_t MemoryFootprint() const;

  const MaintenanceStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Corruption drill (tests, `avt_cli stream --corrupt-state-after`):
  /// moves one vertex — the front of the highest populated level — one
  /// level up WITHOUT touching the graph, so the index reports a wrong
  /// core number: exactly the signature of a maintenance regression or
  /// a memory fault. Returns false on an empty universe. Never called
  /// by library code; the integrity audits (core/health.h) exist to
  /// catch states like the one this creates. The neighbor counters and
  /// verdict bytes are left stale; the recovery rebuild goes through
  /// Reset.
  bool InjectIndexFaultForDrill();

 private:
  /// Neighbor counters of one vertex (see the file comment).
  struct NeighborCounts {
    uint32_t shell = 0;
    uint32_t core = 0;
  };
  /// Per-vertex cascade scratch, one epoch-stamped record. Insertion
  /// uses `count` as deg- (candidate neighbors before the vertex) until
  /// a candidate is popped, then as the offset of its stash segment,
  /// and `support` as the elimination support; removal uses `count` as
  /// cd (current-core degree) and `support` as the stash offset, both
  /// valid once kCdSet is set.
  struct CascadeSlot {
    uint32_t count = 0;
    uint32_t support = 0;
    uint32_t flags = 0;
  };
  enum : uint32_t {
    kInHeap = 1,
    kCandidate = 2,   // tentatively promoted
    kEliminated = 4,
    kDropped = 8,
    kCdSet = 16,
  };

  void RunInsertCascade(VertexId root, uint32_t level);
  void RunRemoveCascade(const std::vector<VertexId>& seeds, uint32_t level);
  /// Recounts v's neighbor counters from scratch (v just left the
  /// k-core).
  void RecountNeighbors(VertexId v);
  /// Theorem-3 verdict of x from its core, deg+ and counters (the
  /// formula in the file comment).
  bool ComputeCandidate(VertexId x) const {
    const uint32_t core = order_.CoreOf(x);
    if (core >= counter_k_) return false;
    if (core + 1 < counter_k_) return nbr_counts_[x].shell > 0;
    return order_.DegPlus(x) > nbr_counts_[x].core;
  }
  /// Rewrites x's verdict byte after one of its inputs changed; a no-op
  /// when no counters are kept.
  void RefreshCandidate(VertexId x) {
    if (counter_k_ > 0) candidate_[x] = ComputeCandidate(x);
  }
  /// Stash segments: a cascade vertex's one adjacency walk appends its
  /// level neighbors to stash_ as [length][neighbors...], in list order.
  /// OpenStash reserves the length word and returns its offset;
  /// CloseStash fills it; StashEnd is one past the segment's last entry.
  /// Segments are read by index, never by span: the removal cascade
  /// appends while it reads.
  uint32_t OpenStash() {
    stash_.push_back(0);
    return static_cast<uint32_t>(stash_.size() - 1);
  }
  void CloseStash(uint32_t at) {
    stash_[at] = static_cast<VertexId>(stash_.size() - at - 1);
  }
  uint32_t StashEnd(uint32_t at) const { return at + 1 + stash_[at]; }
  void MarkAffected(VertexId v);
  bool HasFlag(VertexId v, uint32_t flag) const {
    return (scratch_.Get(v).flags & flag) != 0;
  }
  /// Counter class of a core number for threshold counter_k_.
  enum : uint8_t { kBelowShell = 0, kShell = 1, kInCore = 2 };
  uint8_t ClassOf(uint32_t core) const {
    return core >= counter_k_ ? kInCore
                              : core + 1 == counter_k_ ? kShell : kBelowShell;
  }
  /// Adds `delta` (+1 / -1) to x's counter for a neighbor at `core`
  /// and refreshes x's verdict byte; a no-op for k-core members and when
  /// no counters are kept.
  void CountNeighbor(VertexId x, uint32_t core, int32_t delta) {
    if (order_.CoreOf(x) >= counter_k_) return;
    const uint8_t cls = ClassOf(core);
    if (cls == kBelowShell) return;
    if (cls == kShell) nbr_counts_[x].shell += static_cast<uint32_t>(delta);
    if (cls == kInCore) nbr_counts_[x].core += static_cast<uint32_t>(delta);
    candidate_[x] = ComputeCandidate(x);
  }
  /// True when a move between levels `from` and `to` changes the
  /// vertex's counter class.
  bool ChangesClass(uint32_t from, uint32_t to) const {
    return counter_k_ > 0 && ClassOf(from) != ClassOf(to);
  }

  Graph graph_;
  KOrder order_;
  MaintenanceStats stats_;
  uint32_t counter_k_ = 0;
  std::vector<NeighborCounts> nbr_counts_;  // empty when counter_k_ == 0
  std::vector<uint8_t> candidate_;          // verdict bytes; likewise

  // Cascade scratch (sized to vertex count by Reset()).
  EpochArray<CascadeSlot> scratch_;

  // Cascade work lists, reused across edge operations (cleared, never
  // shrunk, so a steady stream allocates nothing per cascade). At most
  // one cascade runs at a time, so the insertion and removal cascades
  // share the FIFO and the moved list.
  using HeapEntry = std::pair<uint64_t, VertexId>;  // (tag, vertex)
  std::vector<HeapEntry> heap_;        // insertion: min-heap on tag
  std::vector<VertexId> visited_;      // insertion: pop order
  std::vector<VertexId> candidates_;   // insertion: candidates in pop order
  std::vector<VertexId> review_;       // elimination / drop FIFO
  std::vector<VertexId> moved_;        // eliminated / dropped, in order
  std::vector<VertexId> promoted_;     // insertion survivors
  std::vector<VertexId> seeds_;        // RemoveEdge's cascade seeds
  std::vector<VertexId> stash_;        // walked vertices' level neighbors

  // Batch-level affected set (valid during ApplyDelta). The next
  // ApplyDelta clears the marks from the list, so a delta pays for the
  // previous delta's affected set, not for n.
  Bitmap affected_mark_;
  std::vector<VertexId> affected_list_;
  bool collecting_affected_ = false;
};

}  // namespace avt

#endif  // AVT_MAINT_MAINTAINER_H_

// Fast, non-destructive follower computation over the K-order
// (generalization of the paper's Algorithm 3 to anchor *sets*).
//
// Given anchors S and threshold k, the followers F_k(S) are the unique
// maximal set F of non-anchor vertices outside C_k such that every member
// has at least k neighbors in C_k ∪ S ∪ F. The oracle finds F in two
// phases without touching the index:
//
//  1. Optimistic forward pass in K-order. Anchoring bumps the potential of
//     a neighbor w by one for every anchor positioned before w (anchors
//     after w are already counted by deg+(w), the invariant upper bound).
//     Visiting affected vertices in K-order position, w becomes a
//     candidate when
//         deg+(w) + deg-(w) + bump(w) >= k,
//     where deg-(w) counts candidate neighbors positioned before w.
//     Candidates propagate deg- to their later neighbors below the k-core.
//     An induction over positions shows every true follower becomes a
//     candidate (DESIGN.md), so the pass yields a superset of F.
//
//  2. Elimination fixpoint. A candidate's exact support counts neighbors
//     that are anchors, k-core members (core >= k), or surviving
//     candidates; candidates with support < k are removed until stable.
//     Because F stays inside the surviving set throughout and the final
//     survivor set is itself valid, the fixpoint equals F exactly.
//
// Unlike the single-anchor Algorithm 3, candidates may live on any level
// below k-1 (with several anchors a low-core vertex can reach k engaged
// neighbors); the pass therefore orders by full (level, tag) position.
//
// Phase 1 alone is exposed as UpperBound(): its candidate count is a
// certified upper bound on |F| at a fraction of a full query's cost
// (no support scans, no fixpoint). The lazy greedy pick loop uses it to
// decide which candidates deserve a full query — and because the bound
// is valid (not a stale heuristic), the lazy argmax is bit-identical to
// the exhaustive scan. See docs/PERFORMANCE.md.
//
// All scratch state is epoch-stamped and all hot vectors are reused
// across queries: evaluating a candidate anchor set is allocation-free
// and leaves the K-order untouched, which is what lets Greedy and IncAVT
// probe thousands of hypothetical sets per snapshot. The per-vertex
// scratch is three packed 16-byte records — one per cascade bundle
// (per-query, resident base, marginal overlay) — so a visit costs one
// cache line per bundle and an oracle holds 48 bytes per vertex.
// Every cascade is templated over an adjacency view — any type exposing
// Neighbors(v) -> contiguous span in Graph's iteration order — so the
// oracle scans whichever backing the caller binds: the graph itself (the
// incremental tracker, whose maintainer patches it under churn) or a
// frozen CsrView (one-shot solvers). Both iterate neighbors in the
// identical order, so results are bit-identical across backings.

#ifndef AVT_ANCHOR_FOLLOWER_ORACLE_H_
#define AVT_ANCHOR_FOLLOWER_ORACLE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "corelib/korder.h"
#include "graph/graph.h"
#include "util/epoch.h"

namespace avt {

/// Work counters for a follower query (paper's "visited vertices").
struct OracleStats {
  uint64_t queries = 0;          // full CountFollowers evaluations
  uint64_t bound_queries = 0;    // phase-1-only probes (UpperBound,
                                 // MarginalUpperBound, SwapMarginal)
  uint64_t swap_references = 0;  // BuildSwapReference calls
  uint64_t visited = 0;          // vertices popped by forward passes
  uint64_t eliminated = 0;       // candidates removed by fixpoints

  void Reset() { *this = OracleStats{}; }
};

/// Read-only follower computation bound to a (graph, K-order) pair.
/// The referenced structures must outlive the oracle and stay consistent
/// (rebuild/maintain them through CoreMaintainer). An optional CsrView
/// snapshot of the same graph routes all neighbor scans through
/// contiguous storage; the caller must keep it in sync with the graph
/// (drop it via set_csr(nullptr) before mutating).
class FollowerOracle {
 public:
  FollowerOracle(const Graph* graph, const KOrder* order,
                 const CsrView* csr = nullptr)
      : graph_(graph), order_(order), csr_(csr) {
    ResizeScratch();
  }

  /// Re-binds after the underlying graph/order grew: appends stale
  /// scratch slots (live slots untouched, no O(n) rewrite) and drops
  /// the resident base. Never shrinks.
  void ResizeScratch();

  /// Heap bytes held by the per-vertex records and the reused vectors.
  size_t MemoryFootprint() const;

  /// Swaps the contiguous adjacency snapshot (nullptr = scan the graph).
  void set_csr(const CsrView* csr) { csr_ = csr; }

  /// Returns |F_k(anchors)|; optionally materializes the follower set
  /// (K-order position order). Anchors inside the k-core contribute
  /// nothing (handled gracefully); duplicate anchors are allowed.
  uint32_t CountFollowers(std::span<const VertexId> anchors, uint32_t k,
                          std::vector<VertexId>* followers = nullptr) {
    return CountFollowers(anchors, kNoVertex, k, followers);
  }

  /// Same, for the trial set anchors ∪ {extra} without materializing it
  /// (extra == kNoVertex means no extra anchor). This is the pick-loop
  /// hot call: no per-trial vector copy.
  uint32_t CountFollowers(std::span<const VertexId> anchors, VertexId extra,
                          uint32_t k,
                          std::vector<VertexId>* followers = nullptr);

  /// Certified upper bound on CountFollowers(anchors, extra, k): the
  /// phase-1 candidate count, skipping support scans and the elimination
  /// fixpoint. Guaranteed >= the exact count for identical inputs (the
  /// fixpoint only removes candidates).
  uint32_t UpperBound(std::span<const VertexId> anchors, VertexId extra,
                      uint32_t k);

  // --- marginal probes over a resident base cascade -----------------
  //
  // The pick loops evaluate UpperBound(S, x) for every candidate x of a
  // pool while S stays fixed; re-walking S's whole cascade per probe is
  // the dominant cost. BuildBase runs phase 1 for S once and keeps its
  // state resident; MarginalUpperBound(x) then *continues* the fixpoint
  // with x's seeds over epoch-cleared overlay arrays, touching only x's
  // marginal region, and returns exactly UpperBound(S, x, k). This is
  // sound because the phase-1 candidate set is the least fixpoint of a
  // monotone credit rule: influence flows only forward in K-order, so
  // continuing the ordered pass from the base fixpoint with extra seeds
  // reaches the trial set's fixpoint (tests/follower_oracle_test.cc pins
  // MarginalUpperBound == UpperBound on random graphs).
  //
  // Base state survives full CountFollowers queries (disjoint scratch);
  // it is replaced by the next BuildBase or BuildSwapReference and
  // dropped by ResizeScratch.

  /// Runs and retains phase 1 for `anchors` at threshold k.
  void BuildBase(std::span<const VertexId> anchors, uint32_t k);
  bool HasBase() const { return base_valid_; }
  void InvalidateBase() { base_valid_ = false; }

  /// Phase-1 candidate count of base_anchors ∪ {x} (== UpperBound for
  /// that trial set), at the cost of x's marginal cascade only.
  uint32_t MarginalUpperBound(VertexId x);

  // --- swap reference: every slot's bound from one probe -------------
  //
  // IncAVT's swap phase bounds each pool vertex x against every slot
  // base S∖{S[i]}, and those bases differ from S only near each S[i]'s
  // own cascade. BuildSwapReference makes S's cascade the resident base
  // and sets kDirty on every vertex whose base-visible state (anchor
  // and candidate bits, bump, deg_minus) differs under some slot base.
  // A marginal probe is a deterministic function of the adjacency, the
  // K-order and the base state at the vertices it reads; if it reads no
  // dirty vertex, every slot base holds identical state at every read,
  // so the probe runs identically against each of them and
  //     MarginalUpperBound(x) after BuildBase(S∖{S[i]})
  //         == slot_counts[i] + SwapMarginal(x)
  // (tests/follower_oracle_test.cc pins it). No monotonicity argument
  // is needed. A probe that reads a dirty vertex stops and returns
  // kDirtyMarginal; the caller then probes that vertex per slot.

  static constexpr int32_t kDirtyMarginal =
      std::numeric_limits<int32_t>::min();

  /// Runs phase 1 for `anchors` into the resident base (as BuildBase
  /// does) and for every slot base anchors∖{anchors[i]}, i >= first_slot,
  /// into the per-query bundle, like any query. slot_counts[i] receives
  /// slot i's phase-1 count (0 below first_slot). Costs O(base regions)
  /// beyond the l + 1 cascades.
  void BuildSwapReference(std::span<const VertexId> anchors, uint32_t k,
                          size_t first_slot,
                          std::vector<uint32_t>* slot_counts);

  /// x's phase-1 delta over the resident base: -1 if x is a base
  /// candidate, 0 if a base anchor, otherwise the count x's marginal
  /// cascade adds; kDirtyMarginal as soon as the probe reads a kDirty
  /// vertex. Counts as one bound query.
  int32_t SwapMarginal(VertexId x);

  const OracleStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  /// Per-vertex cascade state of one bundle; an EpochArray slot adds the
  /// stamp, so each record is 16 bytes and one stamp bump clears every
  /// field of the bundle at once.
  struct CascadeState {
    union {
      uint32_t bump;     // phase 1: credit from earlier anchors
      uint32_t support;  // phase 2 (query bundle only): exact support;
                         // bump is dead once the forward pass ends
    };
    uint32_t deg_minus;  // credit from earlier candidates
    uint8_t flags;       // k* bits below
  };
  static_assert(sizeof(CascadeState) == 12,
                "with the epoch stamp a slot is 16 bytes: one line read");
  enum : uint8_t {
    kAnchor = 1,
    kInHeap = 2,
    kCandidate = 4,
    kEliminated = 8,
    kDirty = 16,  // base bundle only: state differs under a slot base
  };

  /// Phase 1 for anchors ∪ {extra}: fills query_ / candidates_in_
  /// order_ / visited_ and returns the candidate count.
  template <typename Adjacency>
  uint32_t ForwardPass(const Adjacency& adj,
                       std::span<const VertexId> anchors, VertexId extra,
                       uint32_t k);

  /// Phase 2: elimination fixpoint over candidates_in_order_.
  template <typename Adjacency>
  uint32_t Eliminate(const Adjacency& adj, uint32_t k,
                     std::vector<VertexId>* followers);

  const Graph* graph_;
  const KOrder* order_;
  const CsrView* csr_;
  OracleStats stats_;

  /// The phase-1 cascade, parameterized over the bundle it writes
  /// (per-query scratch vs resident base) so both paths share one
  /// definition. Returns the candidate count.
  template <typename Adjacency>
  uint32_t RunCascade(const Adjacency& adj,
                      std::span<const VertexId> anchors, VertexId extra,
                      uint32_t k, EpochArray<CascadeState>& state,
                      std::vector<VertexId>& anchors_out,
                      std::vector<VertexId>& visited_out,
                      std::vector<VertexId>* candidates_out);

  /// The marginal probe body shared by MarginalUpperBound and
  /// SwapMarginal: x's phase-1 delta over the resident base. With
  /// kCheckDirty it returns kDirtyMarginal on the first kDirty base
  /// record it reads.
  template <bool kCheckDirty, typename Adjacency>
  int32_t MarginalUpperBoundImpl(const Adjacency& adj, VertexId x);

  /// Single definition of the backing precedence (frozen snapshot, then
  /// the graph): every query entry point dispatches through this so the
  /// rule cannot drift per method.
  template <typename F>
  decltype(auto) WithAdjacency(F&& f);

  /// Per-query bundle (CountFollowers / UpperBound).
  EpochArray<CascadeState> query_;
  /// Resident base cascade (BuildBase) and the per-probe overlay on top
  /// of it (bump/deg_minus/flags there are the probe's deltas). The
  /// overlay is the only state a marginal probe writes, so resetting a
  /// probe is one O(1) epoch bump.
  EpochArray<CascadeState> base_;
  EpochArray<CascadeState> overlay_;
  std::vector<VertexId> base_anchors_;
  std::vector<VertexId> base_visited_;
  std::vector<VertexId> slot_base_;  // BuildSwapReference's S∖{S[i]}
  uint32_t base_k_ = 0;
  uint32_t base_count_ = 0;
  bool base_valid_ = false;

  // Hot vectors reused across queries (reserved by ResizeScratch).
  std::vector<VertexId> unique_anchors_;
  std::vector<VertexId> visited_;
  std::vector<VertexId> candidates_in_order_;
  std::vector<VertexId> review_;

  // Binary heap of (level, tag, vertex) reused across queries. A flat
  // POD key beats the seed's pair<pair<u64,u64>, VertexId> layout: one
  // comparison chain, no tuple machinery, contiguous storage.
  struct HeapItem {
    uint64_t level;
    uint64_t tag;
    VertexId vertex;
    // Min-heap on K-order position. Tags are unique within a level, so
    // the vertex id never decides.
    friend bool operator>(const HeapItem& a, const HeapItem& b) {
      if (a.level != b.level) return a.level > b.level;
      return a.tag > b.tag;
    }
  };
  std::vector<HeapItem> heap_;
};

}  // namespace avt

#endif  // AVT_ANCHOR_FOLLOWER_ORACLE_H_

// K-order index (Definition 5 of the paper) with order-maintenance tags.
//
// The K-order of a graph arranges all vertices by (core number, peel
// position): u ⪯ v iff core(u) < core(v), or cores are equal and u was
// peeled before v. The paper's Greedy algorithm, follower computation
// (Algorithm 3) and incremental maintenance (Algorithms 4/5) all operate
// on this order.
//
// Representation: one intrusive doubly-linked list per core level, with a
// 64-bit monotone tag per vertex inside its level. `u ⪯ v` compares
// (level, tag) in O(1). Front/back insertion assigns tags by fixed gaps;
// when a level's tag space is locally exhausted the whole level is
// relabeled (amortized O(1) per operation at the gap sizes used here).
//
// The index also stores the remaining degree deg+(v) (Section 4.2 of the
// paper): the number of neighbors positioned after v. The central
// invariant maintained by all mutations is
//
//     deg+(v) <= core(v)   for every vertex v,
//
// which is exactly the statement that concatenating the level lists gives
// a valid peel order. `CheckInvariants` (invariants.h) verifies this plus
// structural consistency and is called liberally from tests.

#ifndef AVT_CORELIB_KORDER_H_
#define AVT_CORELIB_KORDER_H_

#include <cstdint>
#include <vector>

#include "corelib/decomposition.h"
#include "graph/graph.h"

namespace avt {

/// Sentinel for "no vertex" in the level lists.
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);

/// Mutable K-order index over a graph's core decomposition.
class KOrder {
 public:
  KOrder() = default;

  /// Builds the index from scratch: O(m) decomposition + O(m) deg+ pass.
  void Build(const Graph& graph);

  /// Same build over a CSR snapshot of the graph: both O(m) phases scan
  /// contiguous neighbor spans. Bit-identical to Build(graph) when the
  /// view was taken from `graph` (CsrView preserves neighbor order).
  void Build(const CsrView& csr);

  /// Rebuilds from an existing decomposition (must match `graph`).
  void BuildFrom(const Graph& graph, const CoreDecomposition& cores);

  /// Appends one isolated vertex (core 0, deg+ 0) at the back of level
  /// 0 and returns its id. Any level-0 position satisfies the K-order
  /// invariants for a vertex with no edges — it supports nobody and
  /// deg+(v) = 0 <= core(v) — so back insertion is both valid and the
  /// cheapest choice. Streaming sources use this to grow the universe
  /// without an O(m) rebuild.
  VertexId AddVertex() {
    const VertexId v = static_cast<VertexId>(hot_.size());
    hot_.push_back(Hot{});
    links_.push_back(Link{});
    PushBack(0, v);
    return v;
  }

  VertexId NumVertices() const {
    return static_cast<VertexId>(hot_.size());
  }

  uint32_t CoreOf(VertexId v) const { return hot_[v].level; }
  uint32_t DegPlus(VertexId v) const { return hot_[v].deg_plus; }
  uint64_t TagOf(VertexId v) const { return hot_[v].tag; }

  /// Largest level index with storage (levels above may be empty).
  uint32_t MaxLevel() const {
    return levels_.empty() ? 0 : static_cast<uint32_t>(levels_.size() - 1);
  }

  /// True iff u ⪯ v strictly (u before v in the K-order).
  bool Precedes(VertexId u, VertexId v) const {
    const Hot& a = hot_[u];
    const Hot& b = hot_[v];
    if (a.level != b.level) return a.level < b.level;
    return a.tag < b.tag;
  }

  VertexId LevelFront(uint32_t level) const {
    return level < levels_.size() ? levels_[level].head : kNoVertex;
  }
  VertexId LevelBack(uint32_t level) const {
    return level < levels_.size() ? levels_[level].tail : kNoVertex;
  }
  VertexId NextInLevel(VertexId v) const { return links_[v].next; }
  VertexId PrevInLevel(VertexId v) const { return links_[v].prev; }
  uint32_t LevelSize(uint32_t level) const {
    return level < levels_.size() ? levels_[level].size : 0;
  }

  /// Moves v to the front of `level` (used for promotions: new core
  /// members enter at the beginning of O_{K+1}).
  void MoveToLevelFront(VertexId v, uint32_t level);

  /// Moves v to the back of `level` (used for demotions and for
  /// repositioning failed promotion candidates).
  void MoveToLevelBack(VertexId v, uint32_t level);

  /// Recomputes deg+(v) from current positions; returns the new value.
  uint32_t RecomputeDegPlus(const Graph& graph, VertexId v);

  void SetDegPlus(VertexId v, uint32_t value) {
    hot_[v].deg_plus = value;
  }
  void IncrementDegPlus(VertexId v, int32_t delta) {
    hot_[v].deg_plus = static_cast<uint32_t>(
        static_cast<int64_t>(hot_[v].deg_plus) + delta);
  }

  /// Materializes level `level` front-to-back (for tests/debugging).
  std::vector<VertexId> LevelVertices(uint32_t level) const;

  /// Materializes the full order, level 0 upward.
  std::vector<VertexId> FullOrder() const;

  /// Heap bytes held by the per-vertex and per-level arrays.
  size_t MemoryFootprint() const {
    return hot_.capacity() * sizeof(Hot) + links_.capacity() * sizeof(Link) +
           levels_.capacity() * sizeof(Level);
  }

  /// Number of whole-level relabel events since Build (instrumentation).
  uint64_t relabel_count() const { return relabel_count_; }

 private:
  /// Per-vertex state is split hot/cold by access pattern. The hot
  /// struct holds exactly what the scan loops read — Precedes (level,
  /// tag), CoreOf, DegPlus — in 16 aligned bytes, so every position
  /// comparison in a cascade costs one cache line per vertex (the
  /// former 24-byte combined node straddled two lines for a third of
  /// all indices, and dragged the intrusive-list pointers into cache
  /// that only mutations need). The cold struct holds the level-list
  /// links, touched only by maintenance moves and level walks.
  struct Hot {
    uint64_t tag = 0;
    uint32_t level = 0;
    uint32_t deg_plus = 0;
  };
  static_assert(sizeof(Hot) == 16, "keep position lookups one line wide");
  struct Link {
    VertexId prev = kNoVertex;
    VertexId next = kNoVertex;
  };
  struct Level {
    VertexId head = kNoVertex;
    VertexId tail = kNoVertex;
    uint32_t size = 0;
  };

  static constexpr uint64_t kTagGap = uint64_t{1} << 20;
  static constexpr uint64_t kTagOrigin = uint64_t{1} << 40;

  void EnsureLevel(uint32_t level) {
    if (level >= levels_.size()) levels_.resize(level + 1);
  }
  template <typename Adjacency>
  void BuildFromImpl(const Adjacency& graph, const CoreDecomposition& cores);

  /// Single definition of deg+: neighbors positioned after v. Shared by
  /// the bulk build and RecomputeDegPlus so the two paths cannot drift.
  template <typename Adjacency>
  uint32_t ComputeDegPlus(const Adjacency& graph, VertexId v) const;

  void Detach(VertexId v);
  void PushFront(uint32_t level, VertexId v);
  void PushBack(uint32_t level, VertexId v);
  void RelabelLevel(uint32_t level);

  std::vector<Hot> hot_;
  std::vector<Link> links_;
  std::vector<Level> levels_;
  uint64_t relabel_count_ = 0;
};

}  // namespace avt

#endif  // AVT_CORELIB_KORDER_H_

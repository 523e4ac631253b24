#include "maint/maintainer.h"

#include <algorithm>
#include <queue>

namespace avt {

void CoreMaintainer::Reset(const Graph& graph) {
  graph_ = graph;
  order_.Build(graph_);
  stats_.Reset();
  const size_t n = graph_.NumVertices();
  deg_minus_.Resize(n);
  in_heap_.Resize(n);
  candidate_.Resize(n);
  eliminated_.Resize(n);
  support_.Resize(n);
  cd_.Resize(n);
  dropped_.Resize(n);
  affected_mark_.Resize(n);
}

void CoreMaintainer::EnsureVertices(VertexId count) {
  if (count <= graph_.NumVertices()) return;
  while (graph_.NumVertices() < count) {
    graph_.AddVertex();
    order_.AddVertex();
  }
  const size_t n = graph_.NumVertices();
  deg_minus_.Grow(n);
  in_heap_.Grow(n);
  candidate_.Grow(n);
  eliminated_.Grow(n);
  support_.Grow(n);
  cd_.Grow(n);
  dropped_.Grow(n);
  affected_mark_.Grow(n);
}

size_t CoreMaintainer::MemoryFootprint() const {
  return graph_.MemoryFootprint() + order_.MemoryFootprint() +
         deg_minus_.MemoryFootprint() + in_heap_.MemoryFootprint() +
         candidate_.MemoryFootprint() +
         eliminated_.MemoryFootprint() + support_.MemoryFootprint() +
         cd_.MemoryFootprint() + dropped_.MemoryFootprint() +
         affected_mark_.MemoryFootprint() +
         affected_list_.capacity() * sizeof(VertexId);
}

void CoreMaintainer::MarkAffected(VertexId v) {
  if (!collecting_affected_) return;
  if (!affected_mark_.Get(v)) {
    affected_mark_.Set(v, 1);
    affected_list_.push_back(v);
  }
}

bool CoreMaintainer::InsertEdge(VertexId u, VertexId v) {
  if (!graph_.AddEdge(u, v)) return false;
  ++stats_.edges_inserted;

  // Lemma 1: the endpoint earlier in K-order gains a later neighbor.
  VertexId root = order_.Precedes(u, v) ? u : v;
  order_.IncrementDegPlus(root, +1);
  MarkAffected(u);
  MarkAffected(v);

  const uint32_t level = order_.CoreOf(root);
  // Lemma 2: core numbers can only change when deg+(root) exceeds its
  // core number.
  if (order_.DegPlus(root) <= level) return true;
  RunInsertCascade(root, level);
  return true;
}

void CoreMaintainer::RunInsertCascade(VertexId root, uint32_t level) {
  ++stats_.cascades;
  deg_minus_.Clear();
  in_heap_.Clear();
  candidate_.Clear();
  eliminated_.Clear();
  support_.Clear();

  // Forward pass in K-order position over level `level`, visiting only
  // affected vertices (root + vertices whose candidate degree turned
  // positive). Pops are ordered by tag, so every vertex is popped after
  // all candidates that precede it have been decided.
  using HeapEntry = std::pair<uint64_t, VertexId>;  // (tag, vertex)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  heap.emplace(order_.TagOf(root), root);
  in_heap_.Set(root, 1);

  std::vector<VertexId> visited;
  std::vector<VertexId> candidates_in_order;
  while (!heap.empty()) {
    auto [tag, w] = heap.top();
    heap.pop();
    visited.push_back(w);
    MarkAffected(w);
    ++stats_.visited;
    uint32_t upper = order_.DegPlus(w) + deg_minus_.Get(w);
    if (upper <= level) continue;  // cannot reach level+1: final (no
                                   // later pushes can target it).
    candidate_.Set(w, 1);
    candidates_in_order.push_back(w);
    for (VertexId x : graph_.Neighbors(w)) {
      if (order_.CoreOf(x) != level) continue;
      if (!order_.Precedes(w, x)) continue;
      if (candidate_.Get(x)) continue;
      deg_minus_.Add(x, 1);
      if (!in_heap_.Get(x)) {
        in_heap_.Set(x, 1);
        heap.emplace(order_.TagOf(x), x);
      }
    }
  }

  // Elimination to fixpoint with exact support counts. Support of a
  // candidate = neighbors already above `level` + surviving candidates.
  std::queue<VertexId> review;
  for (VertexId w : candidates_in_order) {
    uint32_t support = 0;
    for (VertexId x : graph_.Neighbors(w)) {
      if (order_.CoreOf(x) > level || candidate_.Get(x)) ++support;
    }
    support_.Set(w, support);
    if (support <= level) review.push(w);
  }
  std::vector<VertexId> eliminated_in_order;
  while (!review.empty()) {
    VertexId w = review.front();
    review.pop();
    if (eliminated_.Get(w)) continue;
    if (support_.Get(w) > level) continue;  // revived support? impossible,
                                            // but keep the check cheap.
    eliminated_.Set(w, 1);
    candidate_.Set(w, 0);
    eliminated_in_order.push_back(w);
    for (VertexId x : graph_.Neighbors(w)) {
      if (candidate_.Get(x) && !eliminated_.Get(x)) {
        support_.Add(x, static_cast<uint32_t>(-1));
        if (support_.Get(x) <= level) review.push(x);
      }
    }
  }

  // Apply moves. Survivors rise to level+1, entering at the front in
  // their original relative order (push front in reverse pop order).
  std::vector<VertexId> promoted;
  for (VertexId w : candidates_in_order) {
    if (!eliminated_.Get(w)) promoted.push_back(w);
  }
  for (auto it = promoted.rbegin(); it != promoted.rend(); ++it) {
    order_.MoveToLevelFront(*it, level + 1);
    ++stats_.promotions;
  }
  // Failed candidates move to the back of their level in elimination
  // order (restores deg+ <= core; see class comment).
  for (VertexId w : eliminated_in_order) {
    order_.MoveToLevelBack(w, level);
  }

  // Refresh deg+ for everything whose later-neighbor set may have
  // changed: exactly the visited vertices (a vertex not visited has no
  // moved neighbor that crossed from before to after it).
  for (VertexId w : visited) {
    order_.RecomputeDegPlus(graph_, w);
  }
}

bool CoreMaintainer::RemoveEdge(VertexId u, VertexId v) {
  // Edge endpoints arrive from stream deltas; like InsertEdge, a
  // removal the graph declines (absent edge, self-loop) is a benign
  // no-op — never an assertion, because external input must not be
  // able to abort the process. The graph mutates first; the index is
  // touched only once the removal actually happened.
  if (!graph_.RemoveEdge(u, v)) return false;
  // Fix deg+ of the earlier endpoint now that its later neighbor is
  // gone (Lemma 1, mirrored).
  VertexId earlier = order_.Precedes(u, v) ? u : v;
  order_.IncrementDegPlus(earlier, -1);
  ++stats_.edges_removed;
  MarkAffected(u);
  MarkAffected(v);

  const uint32_t ku = order_.CoreOf(u);
  const uint32_t kv = order_.CoreOf(v);
  const uint32_t level = std::min(ku, kv);
  if (level == 0) return true;  // an endpoint already at core 0 (only
                                // possible transiently; nothing to drop).
  std::vector<VertexId> seeds;
  if (ku == level) seeds.push_back(u);
  if (kv == level && v != u) seeds.push_back(v);
  RunRemoveCascade(seeds, level);
  return true;
}

void CoreMaintainer::RunRemoveCascade(const std::vector<VertexId>& seeds,
                                      uint32_t level) {
  cd_.Clear();
  dropped_.Clear();

  // cd(w): number of neighbors currently supporting w at `level`, i.e.
  // with effective core >= level, where already-dropped vertices count as
  // level-1. Computed lazily on first touch.
  auto effective_core = [this](VertexId x, uint32_t lvl) -> uint32_t {
    uint32_t c = order_.CoreOf(x);
    return dropped_.Get(x) ? lvl - 1 : c;
  };
  auto touch = [&](VertexId w) {
    if (cd_.Contains(w)) return;
    uint32_t count = 0;
    for (VertexId x : graph_.Neighbors(w)) {
      if (effective_core(x, level) >= level) ++count;
    }
    cd_.Set(w, count);
  };

  std::queue<VertexId> review;
  for (VertexId s : seeds) {
    touch(s);
    ++stats_.visited;
    if (cd_.Get(s) < level) review.push(s);
  }

  std::vector<VertexId> dropped_in_order;
  while (!review.empty()) {
    VertexId w = review.front();
    review.pop();
    if (dropped_.Get(w)) continue;
    if (cd_.Get(w) >= level) continue;
    dropped_.Set(w, 1);
    dropped_in_order.push_back(w);
    MarkAffected(w);
    for (VertexId x : graph_.Neighbors(w)) {
      if (order_.CoreOf(x) != level || dropped_.Get(x)) continue;
      if (cd_.Contains(x)) {
        cd_.Add(x, static_cast<uint32_t>(-1));
      } else {
        touch(x);  // already reflects w's drop via effective_core
        ++stats_.visited;
      }
      if (cd_.Get(x) < level) review.push(x);
    }
  }
  if (dropped_in_order.empty()) return;
  ++stats_.cascades;

  // Dropped vertices join the back of level-1 in drop order (valid: at
  // drop time each had < level supporters counting later-dropped ones).
  for (VertexId w : dropped_in_order) {
    order_.MoveToLevelBack(w, level - 1);
    ++stats_.demotions;
  }
  // deg+ refresh: the dropped vertices themselves, plus their kept
  // level-`level` neighbors that preceded them (they may lose the dropped
  // vertex from their later set). Recomputing all level-`level` neighbors
  // is simpler and within the same complexity bound.
  for (VertexId w : dropped_in_order) {
    order_.RecomputeDegPlus(graph_, w);
    for (VertexId x : graph_.Neighbors(w)) {
      if (order_.CoreOf(x) == level) {
        order_.RecomputeDegPlus(graph_, x);
      }
    }
  }
}

std::vector<VertexId> CoreMaintainer::ApplyDelta(const EdgeDelta& delta) {
  affected_mark_.Clear();
  affected_list_.clear();
  collecting_affected_ = true;
  for (const Edge& e : delta.insertions) InsertEdge(e.u, e.v);
  for (const Edge& e : delta.deletions) RemoveEdge(e.u, e.v);
  collecting_affected_ = false;
  return std::move(affected_list_);
}

bool CoreMaintainer::InjectIndexFaultForDrill() {
  if (graph_.NumVertices() == 0) return false;
  // Desync the index from the graph: promote the front vertex of the
  // highest populated level one level up. CoreOf now disagrees with a
  // fresh decomposition for that vertex — detectable by both the
  // sampled-coreness probe and the full invariant sweep.
  uint32_t level = order_.MaxLevel();
  for (;;) {
    const VertexId v = order_.LevelFront(level);
    if (v != kNoVertex) {
      order_.MoveToLevelBack(v, level + 1);
      return true;
    }
    if (level == 0) return false;
    --level;
  }
}

}  // namespace avt

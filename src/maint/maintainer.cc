#include "maint/maintainer.h"

#include <algorithm>
#include <utility>

namespace avt {

void CoreMaintainer::Reset(Graph&& graph, uint32_t k) {
  graph_ = std::move(graph);
  order_.Build(graph_);
  stats_.Reset();
  const size_t n = graph_.NumVertices();
  scratch_.Resize(n);
  affected_mark_.Resize(n);
  affected_list_.clear();
  counter_k_ = k;
  if (k == 0) {
    std::vector<NeighborCounts>().swap(nbr_counts_);
    std::vector<uint8_t>().swap(candidate_);
    return;
  }
  // One pass over the adjacency of the vertices outside the k-core,
  // reading a 1-byte class per vertex instead of the 16-byte K-order
  // records: the random reads of the neighbor scan then hit a 16x
  // smaller array. Each vertex's verdict byte is set as soon as its
  // counts are; k-core members keep the zero byte.
  std::vector<uint8_t> cls(n);
  for (VertexId v = 0; v < n; ++v) cls[v] = ClassOf(order_.CoreOf(v));
  nbr_counts_.assign(n, NeighborCounts{});
  candidate_.assign(n, 0);
  for (VertexId x = 0; x < n; ++x) {
    if (cls[x] == kInCore) continue;
    NeighborCounts& counts = nbr_counts_[x];
    for (VertexId y : graph_.Neighbors(x)) {
      counts.shell += cls[y] == kShell;
      counts.core += cls[y] == kInCore;
    }
    candidate_[x] = ComputeCandidate(x);
  }
}

void CoreMaintainer::EnsureVertices(VertexId count) {
  if (count <= graph_.NumVertices()) return;
  while (graph_.NumVertices() < count) {
    graph_.AddVertex();
    order_.AddVertex();
  }
  const size_t n = graph_.NumVertices();
  scratch_.Grow(n);
  affected_mark_.Grow(n);
  if (counter_k_ > 0) {
    nbr_counts_.resize(n);
    candidate_.resize(n, 0);
  }
}

size_t CoreMaintainer::MemoryFootprint() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return graph_.MemoryFootprint() + order_.MemoryFootprint() +
         bytes(nbr_counts_) + bytes(candidate_) +
         scratch_.MemoryFootprint() + affected_mark_.MemoryFootprint() +
         bytes(affected_list_) + bytes(heap_) + bytes(visited_) +
         bytes(candidates_) + bytes(review_) + bytes(moved_) +
         bytes(promoted_) + bytes(seeds_) + bytes(stash_);
}

void CoreMaintainer::RecountNeighbors(VertexId v) {
  NeighborCounts counts;
  for (VertexId y : graph_.Neighbors(v)) {
    const uint8_t cls = ClassOf(order_.CoreOf(y));
    counts.shell += cls == kShell;
    counts.core += cls == kInCore;
  }
  nbr_counts_[v] = counts;
  stats_.adjacency_reads += graph_.Degree(v);
}

std::vector<VertexId> CoreMaintainer::CollectCandidates() const {
  std::vector<VertexId> out;
  for (VertexId x = 0; x < candidate_.size(); ++x) {
    if (candidate_[x]) out.push_back(x);
  }
  return out;
}

void CoreMaintainer::MarkAffected(VertexId v) {
  if (!collecting_affected_) return;
  if (affected_mark_.TestAndSet(v)) affected_list_.push_back(v);
}

bool CoreMaintainer::InsertEdge(VertexId u, VertexId v) {
  if (!graph_.AddEdge(u, v)) return false;
  ++stats_.edges_inserted;
  CountNeighbor(u, order_.CoreOf(v), 1);
  CountNeighbor(v, order_.CoreOf(u), 1);

  // Lemma 1: the endpoint earlier in K-order gains a later neighbor.
  VertexId root = order_.Precedes(u, v) ? u : v;
  order_.IncrementDegPlus(root, +1);
  RefreshCandidate(root);
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
  scratch_.Clear();
  stash_.clear();

  // Forward pass in K-order position over level `level`, visiting only
  // affected vertices (root + vertices whose candidate degree turned
  // positive). Pops are ordered by tag, so every vertex is popped after
  // all candidates that precede it have been decided. Tags are unique
  // within a level, so the pop order is fixed by the keys alone.
  std::vector<HeapEntry>& heap = heap_;
  std::vector<VertexId>& visited = visited_;
  std::vector<VertexId>& candidates_in_order = candidates_;
  heap.clear();
  visited.clear();
  candidates_in_order.clear();
  auto push = [&heap](uint64_t tag, VertexId v) {
    heap.emplace_back(tag, v);
    std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>{});
  };
  push(order_.TagOf(root), root);
  scratch_.Mutable(root).flags |= kInHeap;

  // A candidate's one walk of its adjacency records everything the rest
  // of the cascade reads: its count of neighbors above `level`, and its
  // level-`level` neighbors in list order (its stash segment, the only
  // neighbors that can be candidates). Support needs no second scan:
  // support(w) = above + candidate neighbors, and the candidates before
  // w are exactly its deg-, while each later candidate credits w from
  // its own walk.
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>{});
    const VertexId w = heap.back().second;
    heap.pop_back();
    visited.push_back(w);
    MarkAffected(w);
    ++stats_.visited;
    CascadeSlot& slot = scratch_.Mutable(w);
    uint32_t upper = order_.DegPlus(w) + slot.count;
    if (upper <= level) continue;  // cannot reach level+1: final (no
                                   // later pushes can target it).
    slot.flags |= kCandidate;
    candidates_in_order.push_back(w);
    const uint64_t tag = order_.TagOf(w);
    const uint32_t at = OpenStash();
    uint32_t above = 0;
    for (VertexId x : graph_.Neighbors(w)) {
      const uint32_t core = order_.CoreOf(x);
      if (core != level) {
        above += core > level;
        continue;
      }
      stash_.push_back(x);
      if (order_.TagOf(x) < tag) {
        if (HasFlag(x, kCandidate)) ++scratch_.Mutable(x).support;
        continue;
      }
      CascadeSlot& next = scratch_.Mutable(x);
      ++next.count;  // deg-
      if (!(next.flags & kInHeap)) {
        next.flags |= kInHeap;
        push(order_.TagOf(x), x);
      }
    }
    CloseStash(at);
    stats_.adjacency_reads += graph_.Degree(w);
    slot.support = slot.count + above;
    slot.count = at;  // deg- is spent; the stash offset also ranks w
                      // among the candidates in K-order
  }

  // Elimination to fixpoint. review_ is the FIFO (a head index, not a
  // std::queue). An eliminated candidate's support is frozen from then
  // on: above + candidate neighbors that outlive it.
  std::vector<VertexId>& review = review_;
  review.clear();
  for (VertexId w : candidates_in_order) {
    if (scratch_.Get(w).support <= level) review.push_back(w);
  }
  std::vector<VertexId>& eliminated_in_order = moved_;
  eliminated_in_order.clear();
  for (size_t head = 0; head < review.size(); ++head) {
    const VertexId w = review[head];
    CascadeSlot& slot = scratch_.Mutable(w);
    if (slot.flags & kEliminated) continue;
    if (slot.support > level) continue;  // revived support? impossible,
                                         // but keep the check cheap.
    slot.flags = (slot.flags | kEliminated) & ~kCandidate;
    eliminated_in_order.push_back(w);
    const uint32_t end = StashEnd(slot.count);
    for (uint32_t i = slot.count + 1; i < end; ++i) {
      const VertexId x = stash_[i];
      if (!HasFlag(x, kCandidate)) continue;  // eliminated clears it
      if (--scratch_.Mutable(x).support <= level) review.push_back(x);
    }
  }

  // Exact deg+ from the stash, before any move (see the file comment):
  // a survivor keeps above + the survivors after it, an eliminated
  // vertex its frozen support, and an unmoved vertex gains its deg-,
  // since each candidate before it lands after it.
  std::vector<VertexId>& promoted = promoted_;
  promoted.clear();
  for (VertexId w : visited) {
    const CascadeSlot& slot = scratch_.Get(w);
    if (slot.flags & kEliminated) {
      order_.SetDegPlus(w, slot.support);
    } else if (slot.flags & kCandidate) {
      uint32_t deg_plus = slot.support;
      const uint32_t end = StashEnd(slot.count);
      for (uint32_t i = slot.count + 1; i < end; ++i) {
        const CascadeSlot& other = scratch_.Get(stash_[i]);
        deg_plus -= (other.flags & kCandidate) && other.count < slot.count;
      }
      order_.SetDegPlus(w, deg_plus);
      promoted.push_back(w);
    } else {
      order_.IncrementDegPlus(w, static_cast<int32_t>(slot.count));
    }
  }

  // Apply moves. Survivors rise to level+1, entering at the front in
  // their original relative order (push front in reverse pop order).
  const bool reclass = ChangesClass(level, level + 1);
  for (auto it = promoted.rbegin(); it != promoted.rend(); ++it) {
    order_.MoveToLevelFront(*it, level + 1);
    ++stats_.promotions;
    if (reclass) {
      for (VertexId x : graph_.Neighbors(*it)) {
        CountNeighbor(x, level, -1);
        CountNeighbor(x, level + 1, 1);
      }
      stats_.adjacency_reads += graph_.Degree(*it);
    }
  }
  // Failed candidates move to the back of their level in elimination
  // order (restores deg+ <= core; see class comment).
  for (VertexId w : eliminated_in_order) {
    order_.MoveToLevelBack(w, level);
  }

  // Every vertex whose deg+ or core changed was visited.
  for (VertexId w : visited) RefreshCandidate(w);
}

bool CoreMaintainer::RemoveEdge(VertexId u, VertexId v) {
  // Edge endpoints arrive from stream deltas; like InsertEdge, a
  // removal the graph declines (absent edge, self-loop) is a benign
  // no-op — never an assertion, because external input must not be
  // able to abort the process. The graph mutates first; the index is
  // touched only once the removal actually happened.
  if (!graph_.RemoveEdge(u, v)) return false;
  CountNeighbor(u, order_.CoreOf(v), -1);
  CountNeighbor(v, order_.CoreOf(u), -1);
  // Fix deg+ of the earlier endpoint now that its later neighbor is
  // gone (Lemma 1, mirrored).
  VertexId earlier = order_.Precedes(u, v) ? u : v;
  order_.IncrementDegPlus(earlier, -1);
  RefreshCandidate(earlier);
  ++stats_.edges_removed;
  MarkAffected(u);
  MarkAffected(v);

  const uint32_t ku = order_.CoreOf(u);
  const uint32_t kv = order_.CoreOf(v);
  const uint32_t level = std::min(ku, kv);
  if (level == 0) return true;  // an endpoint already at core 0 (only
                                // possible transiently; nothing to drop).
  seeds_.clear();
  if (ku == level) seeds_.push_back(u);
  if (kv == level && v != u) seeds_.push_back(v);
  RunRemoveCascade(seeds_, level);
  return true;
}

void CoreMaintainer::RunRemoveCascade(const std::vector<VertexId>& seeds,
                                      uint32_t level) {
  scratch_.Clear();
  stash_.clear();

  // cd(w): number of neighbors currently supporting w at `level`, i.e.
  // with effective core >= level, where already-dropped vertices count as
  // level-1. Computed lazily on first touch, by the one walk of w's
  // adjacency the cascade makes; it also stashes w's level-`level`
  // neighbors (the only ones a drop can reach), whose segment offset
  // `support` keeps.
  auto touch = [&](VertexId w) {
    CascadeSlot& slot = scratch_.Mutable(w);
    if (slot.flags & kCdSet) return;
    const uint32_t at = OpenStash();
    uint32_t count = 0;
    for (VertexId x : graph_.Neighbors(w)) {
      const uint32_t core = order_.CoreOf(x);
      if (core < level) continue;
      if (core == level) {
        stash_.push_back(x);
        if (HasFlag(x, kDropped)) continue;
      }
      ++count;
    }
    CloseStash(at);
    stats_.adjacency_reads += graph_.Degree(w);
    slot.count = count;
    slot.support = at;
    slot.flags |= kCdSet;
  };

  std::vector<VertexId>& review = review_;  // FIFO, head index
  review.clear();
  for (VertexId s : seeds) {
    touch(s);
    ++stats_.visited;
    if (scratch_.Get(s).count < level) review.push_back(s);
  }

  // A dropped vertex's cd is frozen from its drop on. Its stash segment
  // is read by index: touch() appends to stash_ inside the loop.
  std::vector<VertexId>& dropped_in_order = moved_;
  dropped_in_order.clear();
  for (size_t head = 0; head < review.size(); ++head) {
    const VertexId w = review[head];
    CascadeSlot& slot = scratch_.Mutable(w);
    if (slot.flags & kDropped) continue;
    if (slot.count >= level) continue;
    slot.flags |= kDropped;
    dropped_in_order.push_back(w);
    MarkAffected(w);
    const uint32_t end = StashEnd(slot.support);
    for (uint32_t i = slot.support + 1; i < end; ++i) {
      const VertexId x = stash_[i];
      if (HasFlag(x, kDropped)) continue;
      if (HasFlag(x, kCdSet)) {
        --scratch_.Mutable(x).count;
      } else {
        touch(x);  // already reflects w's drop via the kDropped test
        ++stats_.visited;
      }
      if (scratch_.Get(x).count < level) review.push_back(x);
    }
  }
  if (dropped_in_order.empty()) return;
  ++stats_.cascades;

  // Exact deg+ before any move: a kept level-`level` neighbor x loses a
  // dropped w from its later set iff x precedes w, since w lands below
  // all of level `level`; every other neighbor keeps its side of w.
  // Those x are in w's stash. A drop across the k-2 | k-1 | k boundary
  // re-classes w in its neighbors' counters with a full walk (dropped
  // neighbors are still at `level` here, so a drop out of the k-core
  // skips them; they are recounted below).
  const bool reclass = ChangesClass(level, level - 1);
  for (VertexId w : dropped_in_order) {
    if (reclass) {
      for (VertexId x : graph_.Neighbors(w)) {
        CountNeighbor(x, level, -1);
        CountNeighbor(x, level - 1, 1);
      }
      stats_.adjacency_reads += graph_.Degree(w);
    }
    const uint32_t at = scratch_.Get(w).support;
    const uint32_t end = StashEnd(at);
    for (uint32_t i = at + 1; i < end; ++i) {
      const VertexId x = stash_[i];
      if (!HasFlag(x, kDropped) && order_.Precedes(x, w)) {
        order_.IncrementDegPlus(x, -1);
        RefreshCandidate(x);
      }
    }
  }
  // Dropped vertices join the back of level-1 in drop order (valid: at
  // drop time each had < level supporters counting later-dropped ones).
  // A dropped vertex's later set is then exactly the cd it dropped
  // with: its kept neighbors at core >= level plus the neighbors
  // dropped after it. Once all have moved, those that just left the
  // k-core start keeping neighbor counters, and core, deg+ and
  // counters of w are final: refresh its verdict.
  for (VertexId w : dropped_in_order) {
    order_.MoveToLevelBack(w, level - 1);
    order_.SetDegPlus(w, scratch_.Get(w).count);
    ++stats_.demotions;
  }
  const bool left_core = counter_k_ > 0 && level == counter_k_;
  for (VertexId w : dropped_in_order) {
    if (left_core) RecountNeighbors(w);
    RefreshCandidate(w);
  }
}

const std::vector<VertexId>& CoreMaintainer::ApplyDelta(
    const EdgeDelta& delta) {
  for (VertexId v : affected_list_) affected_mark_.Reset(v);
  affected_list_.clear();
  collecting_affected_ = true;
  for (const Edge& e : delta.insertions) InsertEdge(e.u, e.v);
  for (const Edge& e : delta.deletions) RemoveEdge(e.u, e.v);
  collecting_affected_ = false;
  return affected_list_;
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

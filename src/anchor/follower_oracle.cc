#include "anchor/follower_oracle.h"

#include <algorithm>
#include <functional>

namespace avt {

void FollowerOracle::ResizeScratch() {
  // Grow, never reset: appended slots carry a stale stamp, so a growing
  // universe costs O(new vertices), not a rewrite of every record.
  const size_t n = graph_->NumVertices();
  query_.Grow(n);
  base_.Grow(n);
  overlay_.Grow(n);
  base_valid_ = false;
  // Reserve the hot vectors once; queries then run allocation-free after
  // a short warm-up (forward passes rarely touch more than a small
  // fraction of the graph, so these grow to their high-water mark and
  // stay there).
  unique_anchors_.reserve(64);
  visited_.reserve(256);
  candidates_in_order_.reserve(256);
  review_.reserve(256);
  heap_.reserve(256);
}

size_t FollowerOracle::MemoryFootprint() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return query_.MemoryFootprint() + base_.MemoryFootprint() +
         overlay_.MemoryFootprint() + bytes(base_anchors_) +
         bytes(base_visited_) + bytes(slot_base_) + bytes(unique_anchors_) +
         bytes(visited_) + bytes(candidates_in_order_) + bytes(review_) +
         bytes(heap_);
}

// Phase 1: the optimistic forward cascade, parameterized over the bundle
// it writes. One definition serves the per-query scratch (CountFollowers
// / UpperBound) and the resident base (BuildBase) so the two can never
// drift — the MarginalUpperBound == UpperBound invariant the lazy argmax
// proof rests on depends on that. `heap_` is a shared transient (only
// live during one cascade); the in-heap bit lives in each bundle.
template <typename Adjacency>
uint32_t FollowerOracle::RunCascade(const Adjacency& adj,
                                    std::span<const VertexId> anchors,
                                    VertexId extra, uint32_t k,
                                    EpochArray<CascadeState>& state,
                                    std::vector<VertexId>& anchors_out,
                                    std::vector<VertexId>& visited_out,
                                    std::vector<VertexId>* candidates_out) {
  state.Clear();
  anchors_out.clear();
  visited_out.clear();
  if (candidates_out) candidates_out->clear();
  heap_.clear();

  auto add_anchor = [&](VertexId a) {
    CascadeState& s = state.Mutable(a);
    if (!(s.flags & kAnchor)) {
      s.flags |= kAnchor;
      anchors_out.push_back(a);
    }
  };
  for (VertexId a : anchors) add_anchor(a);
  if (extra != kNoVertex) add_anchor(extra);

  auto push = [this](VertexId v, CascadeState& s) {
    if (!(s.flags & kInHeap)) {
      s.flags |= kInHeap;
      heap_.push_back({order_->CoreOf(v), order_->TagOf(v), v});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  };

  // Seed: anchors raise the potential of neighbors they precede (anchors
  // positioned after a neighbor are already inside its deg+ bound).
  for (VertexId a : anchors_out) {
    for (VertexId w : adj.Neighbors(a)) {
      if (order_->CoreOf(w) >= k || !order_->Precedes(a, w)) continue;
      CascadeState& s = state.Mutable(w);
      if (s.flags & kAnchor) continue;
      ++s.bump;
      push(w, s);
    }
  }

  uint32_t count = 0;
  while (!heap_.empty()) {
    VertexId w = heap_.front().vertex;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    visited_out.push_back(w);
    ++stats_.visited;
    CascadeState& s = state.Mutable(w);
    uint64_t upper =
        static_cast<uint64_t>(order_->DegPlus(w)) + s.deg_minus + s.bump;
    if (upper < k) continue;  // final: later pushes only target
                              // later positions.
    s.flags |= kCandidate;
    ++count;
    if (candidates_out) candidates_out->push_back(w);
    for (VertexId x : adj.Neighbors(w)) {
      if (order_->CoreOf(x) >= k || !order_->Precedes(w, x)) continue;
      CascadeState& t = state.Mutable(x);
      if (t.flags & (kAnchor | kCandidate)) continue;
      ++t.deg_minus;
      push(x, t);
    }
  }
  return count;
}

template <typename Adjacency>
uint32_t FollowerOracle::ForwardPass(const Adjacency& adj,
                                     std::span<const VertexId> anchors,
                                     VertexId extra, uint32_t k) {
  return RunCascade(adj, anchors, extra, k, query_, unique_anchors_,
                    visited_, &candidates_in_order_);
}

template <typename Adjacency>
uint32_t FollowerOracle::Eliminate(const Adjacency& adj, uint32_t k,
                                   std::vector<VertexId>* followers) {
  // Elimination fixpoint with exact support. `review_` doubles as the
  // FIFO (head index instead of std::queue — no per-query allocation).
  // Every candidate's support is written before any is read, so the
  // union with the (now dead) bump field is safe.
  constexpr uint8_t kSupporting = kAnchor | kCandidate;
  review_.clear();
  size_t head = 0;
  for (VertexId w : candidates_in_order_) {
    uint32_t support = 0;
    for (VertexId x : adj.Neighbors(w)) {
      if ((query_.Get(x).flags & kSupporting) || order_->CoreOf(x) >= k) {
        ++support;
      }
    }
    query_.Mutable(w).support = support;
    if (support < k) review_.push_back(w);
  }
  while (head < review_.size()) {
    VertexId w = review_[head++];
    CascadeState& s = query_.Mutable(w);
    if (s.flags & kEliminated) continue;
    if (s.support >= k) continue;
    s.flags = static_cast<uint8_t>((s.flags | kEliminated) & ~kCandidate);
    ++stats_.eliminated;
    for (VertexId x : adj.Neighbors(w)) {
      constexpr uint8_t kMask = kCandidate | kEliminated | kAnchor;
      if ((query_.Get(x).flags & kMask) != kCandidate) continue;
      if (--query_.Mutable(x).support < k) review_.push_back(x);
    }
  }

  uint32_t count = 0;
  for (VertexId w : candidates_in_order_) {
    if (query_.Get(w).flags & kCandidate) {
      ++count;
      if (followers) followers->push_back(w);
    }
  }
  return count;
}

template <typename F>
decltype(auto) FollowerOracle::WithAdjacency(F&& f) {
  if (csr_ != nullptr) return f(*csr_);
  return f(*graph_);
}

uint32_t FollowerOracle::CountFollowers(std::span<const VertexId> anchors,
                                        VertexId extra, uint32_t k,
                                        std::vector<VertexId>* followers) {
  ++stats_.queries;
  if (followers) followers->clear();
  if (k == 0) return 0;  // every vertex is trivially in the 0-core
  return WithAdjacency([&](const auto& adj) {
    ForwardPass(adj, anchors, extra, k);
    return Eliminate(adj, k, followers);
  });
}

uint32_t FollowerOracle::UpperBound(std::span<const VertexId> anchors,
                                    VertexId extra, uint32_t k) {
  ++stats_.bound_queries;
  if (k == 0) return 0;
  return WithAdjacency(
      [&](const auto& adj) { return ForwardPass(adj, anchors, extra, k); });
}

void FollowerOracle::BuildBase(std::span<const VertexId> anchors,
                               uint32_t k) {
  base_k_ = k;
  base_valid_ = true;
  if (k == 0) {
    base_.Clear();
    base_anchors_.clear();
    base_visited_.clear();
    base_count_ = 0;
    return;
  }
  base_count_ = WithAdjacency([&](const auto& adj) {
    return RunCascade(adj, anchors, kNoVertex, k, base_, base_anchors_,
                      base_visited_, nullptr);
  });
}

template <bool kCheckDirty, typename Adjacency>
int32_t FollowerOracle::MarginalUpperBoundImpl(const Adjacency& adj,
                                               VertexId x) {
  const uint32_t k = base_k_;
  overlay_.Clear();  // probe reset: one epoch bump, no O(n) work
  heap_.clear();

  const uint8_t x_flags = base_.Get(x).flags;
  if (kCheckDirty && (x_flags & kDirty)) return kDirtyMarginal;
  if (x_flags & kAnchor) return 0;  // trial set == base set
  if (x_flags & kCandidate) {
    // x's phase-1 influence on others is already in the base state (a
    // candidate propagates the same +1 credit to its later neighbors
    // that an anchor's bump would); promoting it to an anchor only
    // removes its own candidacy.
    return -1;
  }

  auto push = [this](VertexId v, CascadeState& o) {
    if (!(o.flags & kInHeap)) {
      o.flags |= kInHeap;
      heap_.push_back({order_->CoreOf(v), order_->TagOf(v), v});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  };

  // Seeds: x's bump to later neighbors that are not already settled
  // (base anchors and base candidates). Position is tested before the
  // base record is read, so a neighbor x never credits is never read —
  // and cannot make a reference probe dirty.
  constexpr uint8_t kSettled = kAnchor | kCandidate;
  for (VertexId w : adj.Neighbors(x)) {
    if (order_->CoreOf(w) >= k || !order_->Precedes(x, w)) continue;
    const uint8_t w_flags = base_.Get(w).flags;
    if (kCheckDirty && (w_flags & kDirty)) return kDirtyMarginal;
    if (w_flags & kSettled) continue;
    CascadeState& o = overlay_.Mutable(w);
    ++o.bump;
    push(w, o);
  }

  // Continue the base fixpoint: influence flows only forward in K-order,
  // so the position-ordered pops decide every vertex after all of its
  // (base + marginal) earlier contributors — the combined result is the
  // least fixpoint for base_anchors ∪ {x}. Every popped vertex had its
  // base record read (and dirty-checked) when it was pushed.
  int32_t added = 0;
  while (!heap_.empty()) {
    VertexId w = heap_.front().vertex;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    ++stats_.visited;
    const CascadeState b = base_.Get(w);
    CascadeState& o = overlay_.Mutable(w);
    uint64_t upper = static_cast<uint64_t>(order_->DegPlus(w)) + b.bump +
                     o.bump + b.deg_minus + o.deg_minus;
    if (upper < k) continue;
    o.flags |= kCandidate;
    ++added;
    for (VertexId z : adj.Neighbors(w)) {
      if (order_->CoreOf(z) >= k || z == x || !order_->Precedes(w, z)) {
        continue;
      }
      const uint8_t z_flags = base_.Get(z).flags;
      if (kCheckDirty && (z_flags & kDirty)) return kDirtyMarginal;
      if (z_flags & kSettled) continue;
      CascadeState& oz = overlay_.Mutable(z);
      if (oz.flags & kCandidate) continue;
      ++oz.deg_minus;
      push(z, oz);
    }
  }
  return added;
}

uint32_t FollowerOracle::MarginalUpperBound(VertexId x) {
  AVT_DCHECK(base_valid_);
  ++stats_.bound_queries;
  if (base_k_ == 0) return 0;
  return WithAdjacency([&](const auto& adj) {
    return static_cast<uint32_t>(
        static_cast<int64_t>(base_count_) +
        MarginalUpperBoundImpl</*kCheckDirty=*/false>(adj, x));
  });
}

void FollowerOracle::BuildSwapReference(std::span<const VertexId> anchors,
                                        uint32_t k, size_t first_slot,
                                        std::vector<uint32_t>* slot_counts) {
  ++stats_.swap_references;
  BuildBase(anchors, k);
  slot_counts->assign(anchors.size(), 0);
  if (k == 0) return;
  WithAdjacency([&](const auto& adj) {
    // Only vertices some cascade touched can hold non-default state, so
    // comparing S's region and slot i's region finds every difference.
    constexpr uint8_t kVisible = kAnchor | kCandidate;
    auto mark_if_differs = [&](VertexId v) {
      const CascadeState q = query_.Get(v);
      CascadeState& b = base_.Mutable(v);
      if (((b.flags ^ q.flags) & kVisible) || b.bump != q.bump ||
          b.deg_minus != q.deg_minus) {
        b.flags |= kDirty;
      }
    };
    for (size_t i = first_slot; i < anchors.size(); ++i) {
      slot_base_.assign(anchors.begin(), anchors.end());
      slot_base_.erase(slot_base_.begin() + static_cast<ptrdiff_t>(i));
      (*slot_counts)[i] = RunCascade(adj, slot_base_, kNoVertex, k, query_,
                                     unique_anchors_, visited_, nullptr);
      for (VertexId v : base_anchors_) mark_if_differs(v);
      for (VertexId v : base_visited_) mark_if_differs(v);
      for (VertexId v : unique_anchors_) mark_if_differs(v);
      for (VertexId v : visited_) mark_if_differs(v);
    }
  });
}

int32_t FollowerOracle::SwapMarginal(VertexId x) {
  AVT_DCHECK(base_valid_);
  ++stats_.bound_queries;
  if (base_k_ == 0) return 0;
  return WithAdjacency([&](const auto& adj) {
    return MarginalUpperBoundImpl</*kCheckDirty=*/true>(adj, x);
  });
}

}  // namespace avt

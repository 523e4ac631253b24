#include "core/inc_avt.h"

#include <algorithm>
#include <queue>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/greedy.h"
#include "util/timer.h"

namespace avt {
namespace {

/// Heap entry of the lazy local search: max-heap by value, smaller id
/// first on ties — the same tie-break the eager pool scan produces.
struct LazyEntry {
  uint32_t value;  // exact ? F(trial) : certified upper bound
  VertexId vertex;
  bool exact;
  bool operator<(const LazyEntry& other) const {
    if (value != other.value) return value < other.value;
    return vertex > other.vertex;
  }
};

}  // namespace

uint32_t IncAvtTracker::KCoreSize() const {
  // The K-order level lists partition V by core number, so |C_k| is the
  // sum of the level sizes from k up — O(degeneracy) instead of the
  // former O(n) per-vertex scan (which dominated small-delta snapshots).
  uint32_t size = 0;
  const KOrder& order = maintainer_.order();
  for (uint32_t level = k_; level <= order.MaxLevel(); ++level) {
    size += order.LevelSize(level);
  }
  return size;
}

AvtSnapshotResult IncAvtTracker::ProcessFirst(const Graph& g0) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = t_ = 0;

  // Algorithm 6 lines 1-2: build the K-order of G_1 and solve it with the
  // Greedy algorithm (lazy pick loop unless the tracker is eager — both
  // produce identical anchors).
  maintainer_.Reset(g0);
  // One engine for the tracker's lifetime: its worker 0 is the serial
  // oracle, so greedy, the local searches and the incumbent queries all
  // share max(1, num_threads) oracles. The maintainer's graph and order
  // have stable addresses, so a repeated ProcessFirst (rollback rebuild)
  // only grows the scratch to the new universe.
  if (engine_ == nullptr) {
    engine_ = std::make_unique<TrialEngine>(&maintainer_.graph(),
                                            &maintainer_.order(), nullptr,
                                            options_.num_threads);
  } else {
    engine_->ResizeScratch();
  }
  // The greedy solve runs over the maintainer's K-order and the
  // tracker's engine — no second CSR, K-order or oracle set.
  GreedyOptions greedy_options;
  greedy_options.lazy = options_.lazy;
  GreedySolver greedy(greedy_options);
  SolverResult first = greedy.SolveOver(
      maintainer_.graph(), maintainer_.order(), *engine_, k_, l_);
  anchors_ = first.anchors;

  pool_state_.assign(g0.NumVertices(), kUnseen);
  is_anchor_.assign(g0.NumVertices(), 0);
  for (VertexId a : anchors_) is_anchor_[a] = 1;
  pool_.clear();
  pool_seen_.clear();

  snap.anchors = anchors_;
  snap.num_followers = first.num_followers();
  snap.candidates_visited = first.candidates_visited;
  snap.bound_probes = first.bound_probes;
  snap.kcore_size = KCoreSize();
  uint32_t anchors_outside = 0;
  for (VertexId a : anchors_) {
    if (maintainer_.order().CoreOf(a) < k_) ++anchors_outside;
  }
  snap.anchored_core_size =
      snap.kcore_size + anchors_outside + snap.num_followers;
  snap.millis = timer.ElapsedMillis();
  return snap;
}

void IncAvtTracker::EagerLocalSearch(const std::vector<VertexId>& pool,
                                     uint32_t& current,
                                     AvtSnapshotResult& snap) {
  // Algorithm 6 lines 9-16 verbatim: per anchor slot, evaluate every
  // pool vertex with a full follower query and commit strict
  // improvements.
  FollowerOracle& oracle = engine_->serial_oracle();
  std::vector<VertexId> base;
  for (size_t i = 0; i < anchors_.size() && !pool.empty(); ++i) {
    base = anchors_;
    base.erase(base.begin() + static_cast<ptrdiff_t>(i));
    VertexId best_replacement = kNoVertex;
    uint32_t best_followers = current;
    for (VertexId v : pool) {
      if (is_anchor_[v]) continue;
      ++snap.candidates_visited;
      uint32_t followers = oracle.CountFollowers(base, v, k_);
      if (followers > best_followers) {
        best_followers = followers;
        best_replacement = v;
      }
    }
    if (best_replacement != kNoVertex) {
      is_anchor_[anchors_[i]] = 0;
      is_anchor_[best_replacement] = 1;
      anchors_[i] = best_replacement;
      current = best_followers;
    }
  }

  // If the budget was never filled (tiny first snapshot), try to extend.
  while (anchors_.size() < l_ && !pool.empty()) {
    VertexId best_vertex = kNoVertex;
    uint32_t best_followers = current;
    for (VertexId v : pool) {
      if (is_anchor_[v]) continue;
      ++snap.candidates_visited;
      uint32_t followers = oracle.CountFollowers(anchors_, v, k_);
      if (best_vertex == kNoVertex || followers > best_followers) {
        best_followers = followers;
        best_vertex = v;
      }
    }
    if (best_vertex == kNoVertex) break;
    anchors_.push_back(best_vertex);
    is_anchor_[best_vertex] = 1;
    current = best_followers;
  }
}

void IncAvtTracker::LazyLocalSearch(const std::vector<VertexId>& pool,
                                    uint32_t& current,
                                    AvtSnapshotResult& snap) {
  // Same search as EagerLocalSearch, same committed anchors (see the
  // equivalence argument in greedy.cc's LazyGreedy — identical heap
  // discipline), but each full query is gated by a certified bound.
  FollowerOracle& oracle = engine_->serial_oracle();
  std::vector<VertexId> base;
  std::priority_queue<LazyEntry> heap;
  bool base_ready = false;  // physical base state == this slot's base?

  // Certified bound on F(trial_base ∪ {v}): the phase-1 count of the
  // exact trial set, obtained as a marginal continuation of the slot's
  // resident cascade (cost: v's marginal region only). The oracle holds
  // one physical base at a time, so each slot builds its own once.
  auto bound_of = [&](std::span<const VertexId> trial_base,
                      VertexId v) -> uint32_t {
    if (!base_ready) {
      oracle.BuildBase(trial_base, k_);
      base_ready = true;
    }
    ++snap.bound_probes;
    return oracle.MarginalUpperBound(v);
  };

  // Resolves the heap top to an exact value (one full query per
  // non-exact pop); returns the accepted exact top.
  auto resolve_top = [&](std::span<const VertexId> trial_base,
                         bool stop_at_current) -> LazyEntry {
    while (!heap.empty()) {
      LazyEntry top = heap.top();
      if (stop_at_current && top.value <= current) {
        return {0, kNoVertex, true};  // nothing can strictly improve
      }
      if (top.exact) return top;
      heap.pop();
      ++snap.candidates_visited;
      uint32_t exact = oracle.CountFollowers(trial_base, top.vertex, k_);
      heap.push({exact, top.vertex, true});
    }
    return {0, kNoVertex, true};
  };

  // Swap phase. Only bounds above the incumbent enter the heap: with
  // stop_at_current an entry <= current is never resolved or returned,
  // so dropping it leaves the pop sequence unchanged.
  //
  // All slots share one swap reference (see
  // FollowerOracle::BuildSwapReference): one SwapMarginal per pool
  // vertex gives slot i's bound as slot_counts_[i] + delta, and only
  // vertices whose probe read a dirty vertex are probed per slot. A
  // commit changes S, so the next slot rebuilds the reference when at
  // least two slots remain to share it.
  bool reference_live = false;  // swap_marginals_ describe anchors_
  for (size_t i = 0; i < anchors_.size() && !pool.empty(); ++i) {
    base = anchors_;
    base.erase(base.begin() + static_cast<ptrdiff_t>(i));
    heap = std::priority_queue<LazyEntry>();
    base_ready = false;
    if (!reference_live && anchors_.size() - i >= 2) {
      oracle.BuildSwapReference(anchors_, k_, i, &slot_counts_);
      swap_marginals_.resize(pool.size());
      for (size_t j = 0; j < pool.size(); ++j) {
        if (!is_anchor_[pool[j]]) {
          swap_marginals_[j] = oracle.SwapMarginal(pool[j]);
        }
      }
      reference_live = true;
    }
    for (size_t j = 0; j < pool.size(); ++j) {
      const VertexId v = pool[j];
      if (is_anchor_[v]) continue;
      uint32_t bound;
      if (reference_live &&
          swap_marginals_[j] != FollowerOracle::kDirtyMarginal) {
        ++snap.bound_probes;
        bound = static_cast<uint32_t>(static_cast<int64_t>(slot_counts_[i]) +
                                      swap_marginals_[j]);
      } else {
        bound = bound_of(base, v);
      }
      if (bound > current) heap.push({bound, v, false});
    }
    LazyEntry winner = resolve_top(base, /*stop_at_current=*/true);
    if (winner.vertex == kNoVertex) continue;  // slot settled, no commit
    is_anchor_[anchors_[i]] = 0;
    is_anchor_[winner.vertex] = 1;
    anchors_[i] = winner.vertex;
    current = winner.value;
    reference_live = false;
  }

  // Extend phase: the eager loop always commits the argmax (anchoring
  // never hurts the objective by more than it adds), so no incumbent
  // gate here. The trial base is S itself.
  while (anchors_.size() < l_ && !pool.empty()) {
    heap = std::priority_queue<LazyEntry>();
    base_ready = false;
    bool any = false;
    for (VertexId v : pool) {
      if (is_anchor_[v]) continue;
      heap.push({bound_of(anchors_, v), v, false});
      any = true;
    }
    if (!any) break;
    LazyEntry winner = resolve_top(anchors_, /*stop_at_current=*/false);
    if (winner.vertex == kNoVertex) break;
    anchors_.push_back(winner.vertex);
    is_anchor_[winner.vertex] = 1;
    current = winner.value;
  }
}

void IncAvtTracker::ParallelLocalSearch(const std::vector<VertexId>& pool,
                                        uint32_t& current,
                                        AvtSnapshotResult& snap) {
  // The serial slot loops (Eager/LazyLocalSearch) fanned out over the
  // trial engine: each slot's pool evaluation is one Evaluate call —
  // fixed per-worker shards, per-worker oracles, (followers desc, id
  // asc) reduction — so the committed anchors are bit-identical to the
  // serial searches at every thread count.
  TrialPolicy policy;
  policy.lazy = options_.lazy;
  std::vector<VertexId> base;
  std::vector<VertexId> live;
  live.reserve(pool.size());
  auto collect_live = [&] {
    live.clear();
    for (VertexId v : pool) {
      if (!is_anchor_[v]) live.push_back(v);
    }
  };

  // Swap phase: per anchor slot, the best strict improvement wins.
  for (size_t i = 0; i < anchors_.size() && !pool.empty(); ++i) {
    base = anchors_;
    base.erase(base.begin() + static_cast<ptrdiff_t>(i));
    collect_live();
    if (live.empty()) continue;
    policy.gate = true;
    policy.floor = current;
    TrialOutcome outcome = engine_->Evaluate(live, base, k_, policy);
    snap.candidates_visited += outcome.full_queries;
    snap.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) continue;  // slot settled
    is_anchor_[anchors_[i]] = 0;
    is_anchor_[outcome.vertex] = 1;
    anchors_[i] = outcome.vertex;
    current = outcome.followers;
  }

  // Extend phase: ungated argmax, like the serial extend loops.
  while (anchors_.size() < l_ && !pool.empty()) {
    collect_live();
    if (live.empty()) break;
    policy.gate = false;
    policy.floor = 0;
    TrialOutcome outcome = engine_->Evaluate(live, anchors_, k_, policy);
    snap.candidates_visited += outcome.full_queries;
    snap.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) break;
    anchors_.push_back(outcome.vertex);
    is_anchor_[outcome.vertex] = 1;
    current = outcome.followers;
  }
}

void IncAvtTracker::EnsureVertices(VertexId count) {
  if (count <= maintainer_.graph().NumVertices()) return;
  maintainer_.EnsureVertices(count);
  const size_t n = maintainer_.graph().NumVertices();
  pool_state_.resize(n, kUnseen);
  is_anchor_.resize(n, 0);
  if (engine_) engine_->ResizeScratch();
}

AvtSnapshotResult IncAvtTracker::ProcessDelta(const EdgeDelta& delta) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = ++t_;

  // Step 1: bounded K-order maintenance; collect impacted vertices
  // (union of the paper's VI and VR before the core-number filter).
  std::vector<VertexId> impacted = maintainer_.ApplyDelta(delta);

  const Graph& g = maintainer_.graph();
  const KOrder& order = maintainer_.order();

  // Step 3: replacement pool. The published algorithm (kRestricted)
  // takes impacted vertices and their neighbors, outside C_k, passing
  // Theorem 3 (Algorithm 6 line 12); the ablation modes widen or empty
  // the pool to isolate the restriction's contribution. Sorted by id so
  // the scan order (and thus tie-breaks) is deterministic. pool_state_
  // memoizes each vertex's Theorem-3 verdict for the delta — a vertex
  // adjacent to many impacted vertices is filtered exactly once — and
  // is reset afterwards from pool_seen_, so the delta costs O(pool
  // region), not O(n). is_anchor_ is kept current by every commit.
  AVT_DCHECK(std::all_of(anchors_.begin(), anchors_.end(),
                         [&](VertexId a) { return is_anchor_[a] != 0; }));
  pool_.clear();
  auto consider = [&](VertexId v) {
    if (pool_state_[v] != kUnseen || is_anchor_[v]) return;
    pool_state_[v] = kRejected;
    pool_seen_.push_back(v);
    if (order.CoreOf(v) >= k_) return;
    if (!IsAnchorCandidate(g, order, v, k_)) return;
    pool_state_[v] = kPooled;
    pool_.push_back(v);
  };
  switch (mode_) {
    case IncAvtMode::kRestricted:
      for (VertexId v : impacted) {
        consider(v);
        for (VertexId w : g.Neighbors(v)) consider(w);
      }
      break;
    case IncAvtMode::kMaintainedFull:
      for (VertexId v = 0; v < g.NumVertices(); ++v) consider(v);
      break;
    case IncAvtMode::kCarryForward:
      break;  // no replacements; keep S_{t-1}
  }
  for (VertexId v : pool_seen_) pool_state_[v] = kUnseen;
  pool_seen_.clear();
  std::vector<VertexId>& pool = pool_;
  std::sort(pool.begin(), pool.end());

  // Step 2: seed with S_{t-1}; re-establish the incumbent follower count
  // F(S) on the new snapshot.
  uint32_t current = engine_->serial_oracle().CountFollowers(anchors_, k_);

  // Step 4: local search (lines 9-16).
  if (options_.num_threads > 1) {
    ParallelLocalSearch(pool, current, snap);
  } else if (options_.lazy) {
    LazyLocalSearch(pool, current, snap);
  } else {
    EagerLocalSearch(pool, current, snap);
  }

  snap.anchors = anchors_;
  // `current` is the exact follower count of the committed set in both
  // paths (incumbent or winning trial evaluation).
  snap.num_followers = current;
  snap.kcore_size = KCoreSize();
  uint32_t anchors_outside = 0;
  for (VertexId a : anchors_) {
    if (order.CoreOf(a) < k_) ++anchors_outside;
  }
  snap.anchored_core_size =
      snap.kcore_size + anchors_outside + snap.num_followers;
  snap.millis = timer.ElapsedMillis();
  return snap;
}

}  // namespace avt

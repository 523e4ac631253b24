#include "core/inc_avt.h"

#include <algorithm>
#include <queue>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/greedy.h"
#include "anchor/trial_engine.h"
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
  maintainer_.Reset(g0, k_);
  // One oracle for the tracker's lifetime: greedy, the local searches
  // and the incumbent queries all share it. The maintainer's graph and
  // order have stable addresses, so a repeated ProcessFirst (rollback
  // rebuild) only grows the scratch to the new universe.
  if (oracle_ == nullptr) {
    oracle_ = std::make_unique<FollowerOracle>(&maintainer_.graph(),
                                               &maintainer_.order());
  } else {
    oracle_->ResizeScratch();
  }
  // The greedy solve runs over the maintainer's K-order and the
  // tracker's oracle — no second CSR, K-order or oracle — and its
  // Theorem-3 pool comes off the maintainer's neighbor counters in
  // O(n) rather than an O(m) neighbor scan.
  GreedyOptions greedy_options;
  greedy_options.lazy = options_.lazy;
  GreedySolver greedy(greedy_options);
  SolverResult first =
      greedy.PickFrom(maintainer_.CollectCandidates(), *oracle_, k_, l_);
  anchors_ = first.anchors;

  in_pool_.assign(g0.NumVertices(), 0);
  is_anchor_.assign(g0.NumVertices(), 0);
  for (VertexId a : anchors_) is_anchor_[a] = 1;
  pool_.clear();

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

void IncAvtTracker::CollectLive(const std::vector<VertexId>& pool) {
  live_.clear();
  for (VertexId v : pool) {
    if (!is_anchor_[v]) live_.push_back(v);
  }
}

void IncAvtTracker::EagerLocalSearch(const std::vector<VertexId>& pool,
                                     uint32_t& current,
                                     AvtSnapshotResult& snap) {
  // Algorithm 6 lines 9-16 verbatim: per anchor slot, evaluate every
  // pool vertex with a full follower query and commit the best strict
  // improvement — (followers desc, id asc), the order of the pool scan.
  TrialPolicy policy;
  policy.lazy = false;
  policy.gate = true;
  std::vector<VertexId> base;
  for (size_t i = 0; i < anchors_.size() && !pool.empty(); ++i) {
    base = anchors_;
    base.erase(base.begin() + static_cast<ptrdiff_t>(i));
    CollectLive(pool);
    if (live_.empty()) continue;
    policy.floor = current;
    TrialOutcome outcome = EvaluateTrials(*oracle_, live_, base, k_, policy);
    snap.candidates_visited += outcome.full_queries;
    snap.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) continue;  // slot settled
    is_anchor_[anchors_[i]] = 0;
    is_anchor_[outcome.vertex] = 1;
    anchors_[i] = outcome.vertex;
    current = outcome.followers;
  }
  ExtendPhase(pool, current, snap);
}

void IncAvtTracker::ExtendPhase(const std::vector<VertexId>& pool,
                                uint32_t& current, AvtSnapshotResult& snap) {
  // If the budget was never filled (tiny first snapshot), extend S with
  // the argmax trial. Anchoring never hurts the objective by more than
  // it adds, so there is no incumbent gate; the trial base is S itself.
  TrialPolicy policy;
  policy.lazy = options_.lazy;
  while (anchors_.size() < l_ && !pool.empty()) {
    CollectLive(pool);
    if (live_.empty()) break;
    TrialOutcome outcome =
        EvaluateTrials(*oracle_, live_, anchors_, k_, policy);
    snap.candidates_visited += outcome.full_queries;
    snap.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) break;
    anchors_.push_back(outcome.vertex);
    is_anchor_[outcome.vertex] = 1;
    current = outcome.followers;
  }
}

void IncAvtTracker::LazyLocalSearch(const std::vector<VertexId>& pool,
                                    uint32_t& current,
                                    AvtSnapshotResult& snap) {
  // Same search as EagerLocalSearch, same committed anchors (see the
  // equivalence argument in greedy.cc's LazyGreedy — identical heap
  // discipline), but each full query is gated by a certified bound.
  FollowerOracle& oracle = *oracle_;
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

  // Swap phase. Only bounds above the incumbent enter the heap: an
  // entry <= current is never resolved or returned, so dropping it
  // leaves the pop sequence unchanged.
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
    // Pop-resolve: one full query per non-exact top until the top is
    // exact or cannot strictly beat the incumbent.
    LazyEntry winner{0, kNoVertex, true};
    while (!heap.empty()) {
      LazyEntry top = heap.top();
      if (top.value <= current) break;  // nothing can strictly improve
      if (top.exact) {
        winner = top;
        break;
      }
      heap.pop();
      ++snap.candidates_visited;
      heap.push({oracle.CountFollowers(base, top.vertex, k_), top.vertex,
                 true});
    }
    if (winner.vertex == kNoVertex) continue;  // slot settled, no commit
    is_anchor_[anchors_[i]] = 0;
    is_anchor_[winner.vertex] = 1;
    anchors_[i] = winner.vertex;
    current = winner.value;
    reference_live = false;
  }
  ExtendPhase(pool, current, snap);
}

void IncAvtTracker::EnsureVertices(VertexId count) {
  if (count <= maintainer_.graph().NumVertices()) return;
  maintainer_.EnsureVertices(count);
  const size_t n = maintainer_.graph().NumVertices();
  in_pool_.resize(n, 0);
  is_anchor_.resize(n, 0);
  if (oracle_) oracle_->ResizeScratch();
}

AvtSnapshotResult IncAvtTracker::ProcessDelta(const EdgeDelta& delta) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = ++t_;

  // Step 1: bounded K-order maintenance; collect impacted vertices
  // (union of the paper's VI and VR before the core-number filter).
  const std::vector<VertexId>& impacted = maintainer_.ApplyDelta(delta);

  const Graph& g = maintainer_.graph();
  const KOrder& order = maintainer_.order();

  // Step 3: replacement pool. The published algorithm (kRestricted)
  // takes impacted vertices and their neighbors, outside C_k, passing
  // Theorem 3 (Algorithm 6 line 12); the ablation modes widen or empty
  // the pool to isolate the restriction's contribution. Sorted by id so
  // the scan order (and thus tie-breaks) is deterministic. The
  // Theorem-3 verdict is one read of the maintainer's verdict byte
  // (CoreMaintainer::IsCandidate), so a walked vertex that fails it —
  // most of them — costs no K-order, counter or pool-mark load. Only
  // candidates are checked against in_pool_ (a candidate adjacent to
  // several impacted vertices is pooled once), and the marks are reset
  // afterwards from the pool itself, so the delta costs O(pool region),
  // not O(n). is_anchor_ is kept current by every commit.
  AVT_DCHECK(std::all_of(anchors_.begin(), anchors_.end(),
                         [&](VertexId a) { return is_anchor_[a] != 0; }));
  pool_.clear();
  auto consider = [&](VertexId v) {
    const bool candidate = maintainer_.IsCandidate(v);
    AVT_DCHECK(candidate == IsAnchorCandidate(g, order, v, k_));
    if (!candidate || in_pool_[v] || is_anchor_[v]) return;
    in_pool_[v] = 1;
    pool_.push_back(v);
  };
  switch (mode_) {
    case IncAvtMode::kRestricted:
      for (VertexId v : impacted) {
        consider(v);
        for (VertexId w : g.Neighbors(v)) consider(w);
        snap.pool_walked += 1 + g.Degree(v);
      }
      break;
    case IncAvtMode::kMaintainedFull:
      for (VertexId v = 0; v < g.NumVertices(); ++v) consider(v);
      snap.pool_walked = g.NumVertices();
      break;
    case IncAvtMode::kCarryForward:
      break;  // no replacements; keep S_{t-1}
  }
  for (VertexId v : pool_) in_pool_[v] = 0;
  std::vector<VertexId>& pool = pool_;
  std::sort(pool.begin(), pool.end());
  snap.pool_size = pool.size();

  // Step 2: seed with S_{t-1}; re-establish the incumbent follower count
  // F(S) on the new snapshot.
  uint32_t current = oracle_->CountFollowers(anchors_, k_);

  // Step 4: local search (lines 9-16).
  if (options_.lazy) {
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

#include "core/inc_avt.h"

#include <algorithm>
#include <utility>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/greedy.h"
#include "anchor/trial_engine.h"
#include "util/radix_sort.h"
#include "util/timer.h"

namespace avt {

void IncAvtTracker::FinishSnapshot(uint32_t followers,
                                   AvtSnapshotResult& snap) const {
  // The K-order level lists partition V by core number, so |C_k| is the
  // sum of the level sizes from k up — O(degeneracy), not an O(n)
  // per-vertex scan. Anchors are tracked outside the k-core; the ones
  // inside it add nothing to |C_k(S)|.
  const KOrder& order = maintainer_.order();
  snap.anchors = anchors_;
  snap.num_followers = followers;
  snap.kcore_size = 0;
  for (uint32_t level = k_; level <= order.MaxLevel(); ++level) {
    snap.kcore_size += order.LevelSize(level);
  }
  uint32_t anchors_outside = 0;
  for (VertexId a : anchors_) {
    if (order.CoreOf(a) < k_) ++anchors_outside;
  }
  snap.anchored_core_size = snap.kcore_size + anchors_outside + followers;
}

AvtSnapshotResult IncAvtTracker::ProcessFirstOwned(Graph g0) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = t_ = 0;

  // Algorithm 6 lines 1-2: build the K-order of G_1 and solve it with the
  // Greedy algorithm (lazy pick loop unless the tracker is eager — both
  // produce identical anchors).
  maintainer_.Reset(std::move(g0), k_);
  // One oracle for the tracker's lifetime: greedy, the local search
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
  // tracker's oracle — no second K-order or oracle — and its
  // Theorem-3 pool comes off the maintainer's neighbor counters in
  // O(n) rather than an O(m) neighbor scan.
  GreedyOptions greedy_options;
  greedy_options.lazy = options_.lazy;
  GreedySolver greedy(greedy_options);
  SolverResult first =
      greedy.PickFrom(maintainer_.CollectCandidates(), *oracle_, k_, l_);
  anchors_ = first.anchors;

  const size_t n = maintainer_.graph().NumVertices();
  in_pool_.assign(n, 0);
  is_anchor_.assign(n, 0);
  for (VertexId a : anchors_) is_anchor_[a] = 1;
  pool_.clear();

  snap.candidates_visited = first.candidates_visited;
  snap.bound_probes = first.bound_probes;
  FinishSnapshot(first.num_followers(), snap);
  snap.millis = timer.ElapsedMillis();
  return snap;
}

void IncAvtTracker::CollectLive(const std::vector<VertexId>& pool) {
  live_.clear();
  for (VertexId v : pool) {
    if (!is_anchor_[v]) live_.push_back(v);
  }
}

void IncAvtTracker::LocalSearch(const std::vector<VertexId>& pool,
                                uint32_t& current, AvtSnapshotResult& snap) {
  // Algorithm 6 lines 9-16: one EvaluateTrials per slot i < l. A slot
  // below |S| is a swap: the trial base is S∖{S[i]} and only a strict
  // improvement on the incumbent commits, best (followers desc, id asc)
  // first. A slot past |S| (the budget was never filled, e.g. a tiny
  // first snapshot) extends S with the argmax trial: anchoring never
  // hurts the objective by more than it adds, so there is no gate and
  // the trial base is S itself.
  //
  // Lazy swap slots share one swap reference (see
  // FollowerOracle::BuildSwapReference): one SwapMarginal per live
  // vertex gives its bound for slot i as slot_counts_[i] + marginal,
  // and EvaluateTrials probes only the dirty ones against the slot
  // base. A commit changes S, so the next slot rebuilds the reference
  // when at least two swap slots remain to share it.
  TrialPolicy policy;
  policy.lazy = options_.lazy;
  std::vector<VertexId> base;
  bool reference_live = false;  // swap_marginals_ describe anchors_, live_
  CollectLive(pool);
  for (size_t i = 0; i < l_ && !live_.empty(); ++i) {
    const bool swap = i < anchors_.size();
    base = anchors_;
    TrialBounds bounds;
    if (swap) {
      base.erase(base.begin() + static_cast<ptrdiff_t>(i));
      if (options_.lazy && !reference_live && anchors_.size() - i >= 2) {
        oracle_->BuildSwapReference(anchors_, k_, i, &slot_counts_);
        swap_marginals_.clear();
        for (VertexId v : live_) {
          swap_marginals_.push_back(oracle_->SwapMarginal(v));
        }
        reference_live = true;
      }
      if (reference_live) bounds = {slot_counts_[i], swap_marginals_};
    }
    policy.gate = swap;
    policy.floor = current;
    const TrialOutcome outcome =
        EvaluateTrials(*oracle_, live_, base, k_, policy, bounds);
    snap.candidates_visited += outcome.full_queries;
    snap.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) continue;  // slot settled
    if (swap) {
      is_anchor_[anchors_[i]] = 0;
      anchors_[i] = outcome.vertex;
    } else {
      anchors_.push_back(outcome.vertex);
    }
    is_anchor_[outcome.vertex] = 1;
    current = outcome.followers;
    reference_live = false;
    CollectLive(pool);
  }
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

  // Step 3: replacement pool. The published algorithm (kRestricted)
  // takes impacted vertices and their neighbors, outside C_k, passing
  // Theorem 3 (Algorithm 6 line 12); the ablation modes widen or empty
  // the pool to isolate the restriction's contribution. Sorted by id (an
  // O(pool) radix sort) so the scan order (and thus tie-breaks) is
  // deterministic. The Theorem-3 verdict is one read of the maintainer's
  // verdict byte (CoreMaintainer::IsCandidate), so a walked vertex that
  // fails it — most of them — costs no K-order, counter or pool-mark
  // load. Only candidates are checked against in_pool_ (a candidate
  // adjacent to several impacted vertices is pooled once), and the marks
  // are reset afterwards from the pool itself, so the delta costs
  // O(pool region), not O(n). is_anchor_ is kept current by every commit.
  AVT_DCHECK(std::all_of(anchors_.begin(), anchors_.end(),
                         [&](VertexId a) { return is_anchor_[a] != 0; }));
  pool_.clear();
  // Below k = 2 no vertex passes Theorem 3 (a vertex outside the 1-core
  // is isolated), so every mode's pool is kCarryForward's empty one and
  // the walk is skipped.
  const IncAvtMode pool_mode = k_ > 1 ? mode_ : IncAvtMode::kCarryForward;
  auto consider = [&](VertexId v) {
    const bool candidate = maintainer_.IsCandidate(v);
    AVT_DCHECK(candidate ==
               IsAnchorCandidate(g, maintainer_.order(), v, k_));
    if (!candidate || in_pool_[v] || is_anchor_[v]) return;
    in_pool_[v] = 1;
    pool_.push_back(v);
  };
  switch (pool_mode) {
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
  RadixSortIds(pool, pool_sort_scratch_);
  snap.pool_size = pool.size();

  // Step 2: seed with S_{t-1}; re-establish the incumbent follower count
  // F(S) on the new snapshot.
  uint32_t current = oracle_->CountFollowers(anchors_, k_);

  // Step 4: local search (lines 9-16).
  LocalSearch(pool, current, snap);

  // `current` is the exact follower count of the committed set (the
  // incumbent or the last winning trial).
  FinishSnapshot(current, snap);
  snap.millis = timer.ElapsedMillis();
  return snap;
}

}  // namespace avt

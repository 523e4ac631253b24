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

/// Stale references are dropped lazily (generation stamps + per-list
/// compaction); past this many HELD (vertex, key) references across all
/// lists the whole cache restarts cold — the global backstop.
constexpr size_t kTouchCompactionLimit = 4'000'000;

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

void IncAvtTracker::RecordTouch(uint64_t key, uint32_t gen,
                                std::span<const VertexId> region_a,
                                std::span<const VertexId> region_b) {
  for (VertexId r : region_a) PushTouch(touch_index_[r], {key, gen});
  for (VertexId r : region_b) PushTouch(touch_index_[r], {key, gen});
}

void IncAvtTracker::PushTouch(TouchList& list, TouchRef ref) {
  list.refs.push_back(ref);
  ++touch_total_;
  if (list.refs.size() >= list.compact_at) CompactTouchList(list);
}

void IncAvtTracker::CompactTouchList(TouchList& list) {
  size_t kept = 0;
  for (const TouchRef& ref : list.refs) {
    if (memo_.IsLive(ref.key, ref.gen)) list.refs[kept++] = ref;
  }
  touch_total_ -= list.refs.size() - kept;
  list.refs.resize(kept);
  // Next sweep only once the list doubles from here: amortized O(1).
  list.compact_at = static_cast<uint32_t>(
      std::max<size_t>(kTouchCompactMin, 2 * kept));
}

void IncAvtTracker::ClearTouchList(TouchList& list) {
  touch_total_ -= list.refs.size();
  list.refs.clear();
  list.compact_at = kTouchCompactMin;
}

void IncAvtTracker::InvalidateTouched(VertexId v) {
  TouchList& list = touch_index_[v];
  if (list.refs.empty()) return;
  // EraseRef skips references whose entry was meanwhile overwritten
  // (its region was re-recorded under a newer generation) or evicted.
  for (const TouchRef& ref : list.refs) memo_.EraseRef(ref.key, ref.gen);
  ClearTouchList(list);
}

AvtSnapshotResult IncAvtTracker::ProcessFirst(const Graph& g0) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = t_ = 0;

  // Algorithm 6 lines 1-2: build the K-order of G_1 and solve it with the
  // Greedy algorithm (lazy pick loop unless the tracker is eager — both
  // produce identical anchors).
  maintainer_.Reset(g0);
  maintainer_.SetCsrMirror(options_.csr == IncAvtCsrMode::kMaintained);
  // Scan backing per options_.csr: the maintained mirror (patched in
  // place, stable pointer), the rebuilt snapshot (stable member, filled
  // here for the greedy solve and refilled before every delta), or the
  // dynamic adjacency. The engine's per-worker oracles share the same
  // backing read-only.
  const bool rebuild = options_.csr == IncAvtCsrMode::kRebuildPerDelta;
  if (rebuild) maintainer_.graph().BuildCsr(&rebuilt_csr_);
  // One engine for the tracker's lifetime: its worker 0 is the serial
  // oracle, so greedy, the local searches and the incumbent queries all
  // share max(1, num_threads) oracles. Every bound structure has a
  // stable address, so a repeated ProcessFirst (rollback rebuild) only
  // grows the scratch to the new universe.
  if (engine_ == nullptr) {
    engine_ = std::make_unique<TrialEngine>(
        &maintainer_.graph(), &maintainer_.order(),
        rebuild ? &rebuilt_csr_ : nullptr, options_.num_threads,
        maintainer_.csr());
  } else {
    engine_->ResizeScratch();
  }
  // The greedy solve runs over the maintainer's K-order and the
  // tracker's engine — no second CSR, K-order or oracle set.
  GreedyOptions greedy_options;
  greedy_options.lazy = options_.lazy;
  GreedySolver greedy(greedy_options);
  SolverResult first = WithAdjacency([&](const auto& adj) {
    return greedy.SolveOver(adj, maintainer_.order(), *engine_, k_, l_);
  });
  anchors_ = first.anchors;

  // Reset the cross-snapshot memo under the configured retention
  // policy. Eager mode keeps no cross-snapshot memo at all, so it
  // configures kNone regardless — the store then reports zero bytes
  // and every memo path below self-gates on enabled().
  const size_t num_slots = 2 * static_cast<size_t>(l_) + 2;
  memo_.Configure(options_.lazy ? options_.memo_policy : MemoPolicy::kNone,
                  options_.memo_budget_bytes, num_slots);
  last_memo_stats_ = memo_.stats();
  touch_index_.assign(g0.NumVertices(), {});
  touch_total_ = 0;
  slot_bound_keys_.assign(num_slots, {});
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
  snap.memo_bytes = memo_.bytes();
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
  // discipline), but each full query is gated by a certified bound and
  // both bounds and exact values are memoized across snapshots with
  // region-based invalidation.
  FollowerOracle& oracle = engine_->serial_oracle();
  std::vector<VertexId> base;
  std::priority_queue<LazyEntry> heap;
  bool base_ready = false;  // physical base state == this slot's base?

  // Per-(slot, candidate) values can only be reused across snapshots
  // when the candidate can reappear in the pool with a clean region. In
  // kRestricted the pool is a subset of impacted ∪ N(impacted) — exactly
  // the set ProcessDelta just invalidated (every slot key's region
  // contains its candidate) — so recording them would be pure overhead;
  // the mode's cross-snapshot reuse comes from the incumbent memo and
  // bound gating instead. Wider pools (kMaintainedFull) do get hits.
  // MemoPolicy::kNone disables all of it (bound gating remains).
  const bool memoize_slots =
      mode_ != IncAvtMode::kRestricted && memo_.enabled();

  // (Re)establishes the oracle's resident cascade for the slot's trial
  // base. With the slot memo on, each slot's base is memoized across
  // snapshots under kBaseKeyBase | slot with its own dependency region;
  // when churn kills it, every per-slot bound probed against it dies too
  // (slot_bound_keys_). Only memo_hit reads those keys, so without the
  // slot memo nothing is recorded. The oracle holds one physical base at
  // a time, so switching slots rebuilds it — a rebuild over a clean
  // region is deterministic, so memoized bounds stay exact.
  // `record = false` skips all memo/touch bookkeeping — used by the
  // extend phase, whose every iteration ends in a commit that would
  // discard the entries unread.
  auto ensure_base = [&](uint64_t slot, std::span<const VertexId> trial_base,
                         bool record) {
    if (base_ready) return;
    const uint64_t base_key = kBaseKeyBase | slot;
    if (record && memoize_slots && !memo_.ContainsLive(base_key)) {
      // The base died (churn or eviction): every bound probed against
      // it dies too. Stale references — bounds since re-recorded under
      // a newer generation, or upgraded to exact entries that carry
      // their own full region — are skipped, not erased.
      TouchList& bounds = slot_bound_keys_[slot];
      for (const TouchRef& ref : bounds.refs) memo_.EraseRef(ref.key, ref.gen);
      ClearTouchList(bounds);
      oracle.BuildBase(trial_base, k_);
      const uint32_t gen = memo_.Record(base_key, {0, true});
      if (gen != TrialMemoStore::kDroppedGen) {
        RecordTouch(base_key, gen, oracle.BaseRegionAnchors(),
                    oracle.BaseRegionVisited());
      }
    } else {
      oracle.BuildBase(trial_base, k_);
    }
    base_ready = true;
  };

  // Certified per-slot bound on F(trial_base ∪ {v}): the phase-1 count
  // of the exact trial set, obtained as a marginal continuation of the
  // slot's resident cascade (cost: v's marginal region only).
  auto bound_of = [&](uint64_t slot, std::span<const VertexId> trial_base,
                      VertexId v, bool record) -> uint32_t {
    ensure_base(slot, trial_base, record);
    ++snap.bound_probes;
    uint32_t ub = oracle.MarginalUpperBound(v);
    if (record && memoize_slots) {
      const uint64_t key = (slot << 32) | v;
      const uint32_t gen = memo_.Record(key, {ub, false});
      if (gen != TrialMemoStore::kDroppedGen) {
        RecordTouch(key, gen, oracle.LastMarginalVisited(), {});
        PushTouch(slot_bound_keys_[slot], {key, gen});
      }
    }
    return ub;
  };

  // Resolves the heap top to an exact value (one full query per
  // non-exact pop), memoizing per (slot, candidate); returns the
  // accepted exact top.
  auto resolve_top = [&](uint64_t slot, std::span<const VertexId> trial_base,
                         bool stop_at_current, bool record) -> LazyEntry {
    while (!heap.empty()) {
      LazyEntry top = heap.top();
      if (stop_at_current && top.value <= current) {
        return {0, kNoVertex, true};  // nothing can strictly improve
      }
      if (top.exact) return top;
      heap.pop();
      ++snap.candidates_visited;
      uint32_t exact = oracle.CountFollowers(trial_base, top.vertex, k_);
      if (record && memoize_slots) {
        const uint64_t key = (slot << 32) | top.vertex;
        const uint32_t gen = memo_.Record(key, {exact, true});
        if (gen != TrialMemoStore::kDroppedGen) {
          RecordTouch(key, gen, oracle.LastRegionAnchors(),
                      oracle.LastRegionVisited());
        }
      }
      heap.push({exact, top.vertex, true});
    }
    return {0, kNoVertex, true};
  };

  // Commits a new anchor set: every memo entry was evaluated against a
  // base containing the replaced set, so the whole cache (resident
  // cascades included) dies. The winning trial's exact value is the new
  // F(S); the next snapshot re-establishes its dependency region with
  // one full query.
  auto commit = [&](const LazyEntry& winner) {
    memo_.Clear();
    for (TouchList& bounds : slot_bound_keys_) ClearTouchList(bounds);
    current = winner.value;
  };

  // A memoized bound is only as valid as the base cascade it was probed
  // against: exact entries carry their full region, but bound entries'
  // recorded region is their marginal cascade only, with the base's
  // region tracked by the slot's base key. A dead base key therefore
  // disqualifies surviving bound entries (ensure_base purges them on
  // the next probe); without this gate a stale bound could under-
  // estimate and silently settle a slot the eager loop would improve.
  auto memo_hit = [&](uint64_t slot, VertexId v, LazyEntry* out) {
    if (!memoize_slots) return false;
    TrialMemoStore::Entry entry;
    const bool found = memo_.Lookup((slot << 32) | v, &entry);
    const bool usable =
        found && (entry.exact || memo_.ContainsLive(kBaseKeyBase | slot));
    memo_.CountLookup(usable);
    if (!usable) return false;
    *out = {entry.value, static_cast<VertexId>(v), entry.exact};
    return true;
  };

  // Swap phase. Only bounds above the incumbent enter the heap: with
  // stop_at_current an entry <= current is never resolved or returned,
  // so dropping it leaves the pop sequence unchanged.
  //
  // Without the slot memo, all slots share one swap reference (see
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
    if (!memoize_slots && !reference_live && anchors_.size() - i >= 2) {
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
      LazyEntry entry;
      if (reference_live &&
          swap_marginals_[j] != FollowerOracle::kDirtyMarginal) {
        ++snap.bound_probes;
        entry = {static_cast<uint32_t>(static_cast<int64_t>(slot_counts_[i]) +
                                       swap_marginals_[j]),
                 v, false};
      } else if (!memo_hit(i, v, &entry)) {
        entry = {bound_of(i, base, v, /*record=*/true), v, false};
      }
      if (entry.value > current) heap.push(entry);
    }
    LazyEntry winner =
        resolve_top(i, base, /*stop_at_current=*/true, /*record=*/true);
    if (winner.vertex == kNoVertex) continue;  // slot settled, no commit
    is_anchor_[anchors_[i]] = 0;
    is_anchor_[winner.vertex] = 1;
    anchors_[i] = winner.vertex;
    commit(winner);
    reference_live = false;
  }

  // Extend phase: the eager loop always commits the argmax (anchoring
  // never hurts the objective by more than it adds), so no incumbent
  // gate here. The trial base is S itself.
  while (anchors_.size() < l_ && !pool.empty()) {
    const uint64_t slot = l_ + anchors_.size();
    heap = std::priority_queue<LazyEntry>();
    base_ready = false;
    bool any = false;
    for (VertexId v : pool) {
      if (is_anchor_[v]) continue;
      LazyEntry cached;
      if (memo_hit(slot, v, &cached)) {
        heap.push(cached);
      } else {
        heap.push({bound_of(slot, anchors_, v, /*record=*/false), v, false});
      }
      any = true;
    }
    if (!any) break;
    LazyEntry winner = resolve_top(slot, anchors_, /*stop_at_current=*/false,
                                   /*record=*/false);
    if (winner.vertex == kNoVertex) break;
    anchors_.push_back(winner.vertex);
    is_anchor_[winner.vertex] = 1;
    commit(winner);
  }
}

void IncAvtTracker::ParallelLocalSearch(const std::vector<VertexId>& pool,
                                        uint32_t& current,
                                        AvtSnapshotResult& snap) {
  // The serial slot loops (Eager/LazyLocalSearch) fanned out over the
  // trial engine: each slot's pool evaluation is one Evaluate call —
  // fixed per-worker shards, per-worker oracles, (followers desc, id
  // asc) reduction — so the committed anchors are bit-identical to the
  // serial searches at every thread count. Cross-snapshot slot memo
  // entries are not recorded here (worker oracles keep no state between
  // calls); the incumbent memo in ProcessDelta still applies, and every
  // commit must invalidate it exactly like the serial commit does.
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
  auto commit_invalidates_memo = [&] {
    memo_.Clear();
    for (TouchList& bounds : slot_bound_keys_) ClearTouchList(bounds);
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
    commit_invalidates_memo();
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
    commit_invalidates_memo();
    current = outcome.followers;
  }
}

void IncAvtTracker::EnsureVertices(VertexId count) {
  if (count <= maintainer_.graph().NumVertices()) return;
  maintainer_.EnsureVertices(count);
  const size_t n = maintainer_.graph().NumVertices();
  pool_state_.resize(n, kUnseen);
  is_anchor_.resize(n, 0);
  touch_index_.resize(n);
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

  // kRebuildPerDelta ablation: snapshot the post-delta adjacency into
  // the bound CsrView before any oracle scan. The maintained mirror
  // (kMaintained) needs nothing here — ApplyDelta already patched it.
  if (options_.csr == IncAvtCsrMode::kRebuildPerDelta) {
    g.BuildCsr(&rebuilt_csr_);
  }

  // Every adjacency walk below (invalidation neighborhoods, the
  // Theorem-3 pool filter) runs against the same backing the oracle
  // scans (WithAdjacency). All three iterate neighbors identically, so
  // the pool — and therefore every downstream tie-break — is
  // bit-identical across modes.

  // Warm-start invalidation: kill exactly the memo entries whose
  // dependency region the churn touched. A cached evaluation stays
  // exact iff its region avoids every impacted vertex and its one-hop
  // neighborhood — the query reads edges incident to the region and
  // positions of the region + its neighbors, and the maintainer marks
  // every cascade-touched vertex and both endpoints of every changed
  // edge, so impacted ∪ N(impacted) covers all state changes. The
  // periodic full reset bounds dead key references in the index.
  if (options_.lazy && memo_.enabled()) {
    if (touch_total_ > kTouchCompactionLimit) {
      memo_.Clear();
      for (TouchList& list : touch_index_) ClearTouchList(list);
      for (TouchList& list : slot_bound_keys_) ClearTouchList(list);
      touch_total_ = 0;
    }
    WithAdjacency([&](const auto& adj) {
      for (VertexId v : impacted) {
        InvalidateTouched(v);
        for (VertexId w : adj.Neighbors(v)) InvalidateTouched(w);
      }
    });
  }

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
  WithAdjacency([&](const auto& adj) {
    auto consider = [&](VertexId v) {
      if (pool_state_[v] != kUnseen || is_anchor_[v]) return;
      pool_state_[v] = kRejected;
      pool_seen_.push_back(v);
      if (order.CoreOf(v) >= k_) return;
      if (!IsAnchorCandidate(adj, order, v, k_)) return;
      pool_state_[v] = kPooled;
      pool_.push_back(v);
    };
    switch (mode_) {
      case IncAvtMode::kRestricted:
        for (VertexId v : impacted) {
          consider(v);
          for (VertexId w : adj.Neighbors(v)) consider(w);
        }
        break;
      case IncAvtMode::kMaintainedFull:
        for (VertexId v = 0; v < g.NumVertices(); ++v) consider(v);
        break;
      case IncAvtMode::kCarryForward:
        break;  // no replacements; keep S_{t-1}
    }
  });
  for (VertexId v : pool_seen_) pool_state_[v] = kUnseen;
  pool_seen_.clear();
  std::vector<VertexId>& pool = pool_;
  std::sort(pool.begin(), pool.end());

  // Step 2: seed with S_{t-1}; re-establish the incumbent follower count
  // F(S) on the new snapshot. In lazy mode the previous snapshot's value
  // is reused when churn did not touch its dependency region.
  uint32_t current = 0;
  bool have_incumbent = false;
  if (options_.lazy && memo_.enabled()) {
    TrialMemoStore::Entry incumbent;
    have_incumbent = memo_.Lookup(kIncumbentKey, &incumbent);
    memo_.CountLookup(have_incumbent);
    if (have_incumbent) current = incumbent.value;
  }
  if (!have_incumbent) {
    FollowerOracle& oracle = engine_->serial_oracle();
    current = oracle.CountFollowers(anchors_, k_);
    if (options_.lazy && memo_.enabled()) {
      const uint32_t gen = memo_.Record(kIncumbentKey, {current, true});
      if (gen != TrialMemoStore::kDroppedGen) {
        RecordTouch(kIncumbentKey, gen, oracle.LastRegionAnchors(),
                    oracle.LastRegionVisited());
      }
    }
  }

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
  // Memo counters: per-transition deltas of the store's cumulative
  // stats, plus the table footprint after the transition (capacity
  // never shrinks, so the per-run max of memo_bytes is the peak).
  const TrialMemoStore::Stats& memo_stats = memo_.stats();
  snap.memo_hits = memo_stats.hits - last_memo_stats_.hits;
  snap.memo_misses = memo_stats.misses - last_memo_stats_.misses;
  snap.memo_evictions = memo_stats.evictions - last_memo_stats_.evictions;
  snap.memo_bytes = memo_.bytes();
  last_memo_stats_ = memo_stats;
  snap.millis = timer.ElapsedMillis();
  return snap;
}

}  // namespace avt

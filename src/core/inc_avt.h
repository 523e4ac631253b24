// IncAVT: the paper's incremental AVT algorithm (Section 5, Algorithm 6).
//
// State carried between snapshots:
//   * CoreMaintainer — graph + K-order kept consistent by the bounded
//     maintenance of Algorithms 4/5 (no per-snapshot rebuild);
//   * the previous anchor set S_{t-1};
//   * (lazy mode) a memo of trial evaluations with their dependency
//     regions, reused across snapshots until churn touches them.
//
// Per transition:
//   1. Apply E+ / E- through the maintainer, collecting the impacted
//     vertex set (the union of the paper's VI and VR).
//   2. Seed S_t := S_{t-1}.
//   3. Build the replacement pool: impacted vertices and their neighbors,
//      outside C_k(G_t), passing the Theorem-3 filter (Algorithm 6 line
//      12). The pool is sorted by id so tie-breaks are deterministic and
//      independent of cascade traversal order.
//   4. Local search: for each u in S_t, try every pool vertex v as a
//      replacement; commit the swap whenever it strictly increases the
//      follower count (lines 9-16). Follower counts come from the
//      non-destructive FollowerOracle on the maintained K-order.
//
// Lazy mode (default) accelerates step 4 without changing its output:
//
//   * Each trial's full follower query is gated by the oracle's
//     certified UpperBound (phase-1-only cascade). A slot's max-heap of
//     bounds is popped lazily; if the top bound cannot strictly beat the
//     incumbent follower count, the whole slot is settled with zero full
//     queries — the common steady-state outcome. Bounds at or below the
//     incumbent never enter the swap-phase heap: they could never be
//     resolved or returned.
//   * Without the per-slot memo (kRestricted, or MemoPolicy::kNone), the
//     serial swap phase gets every slot's bounds from one swap
//     reference: the phase-1 cascade of S itself, with the vertices
//     whose state differs under some slot base S∖{u_i} marked dirty.
//     One marginal probe per pool vertex then gives its exact bound for
//     all l slots; only probes that read a dirty vertex (a few dozen per
//     delta) are redone per slot. A commit changes S, so the next slot
//     rebuilds the reference while at least two slots remain.
//   * Every evaluation (bound or full) records its dependency region:
//     the trial anchors plus all vertices popped by the forward pass. A
//     query's result is a pure function of the edges incident to that
//     region and the K-order positions of the region and its neighbors,
//     so a cached value stays exact while no region vertex is impacted.
//     ProcessDelta therefore warm-starts from the previous snapshot's
//     cached values, re-evaluating only entries whose region intersects
//     the maintainer's impacted set (plus its one-hop neighborhood) —
//     the "stable vertex values" reuse the paper's incremental thesis
//     motivates. Which entries can actually survive depends on the
//     pool: in kRestricted the pool is itself a subset of the
//     invalidated set, so the reuse that materializes there is the
//     incumbent F(S) and the bound gating; per-(slot, candidate) values
//     are memoized only for the wider ablation pools (kMaintainedFull)
//     where unimpacted candidates recur.
//
//   Both accelerations preserve bit-identical anchors versus the eager
//   loop (enforced by tests/lazy_greedy_test.cc).
//
// The pool is usually tiny relative to the full Theorem-3 candidate set —
// that is the entire advantage the paper measures in Figures 4/6/8.

#ifndef AVT_CORE_INC_AVT_H_
#define AVT_CORE_INC_AVT_H_

#include <vector>

#include "anchor/follower_oracle.h"
#include "anchor/trial_engine.h"
#include "core/avt.h"
#include "core/memo_store.h"
#include "maint/maintainer.h"

namespace avt {

/// Ablation modes for the incremental tracker (the full algorithm is
/// kRestricted; the others isolate where its speedup comes from).
enum class IncAvtMode {
  /// Algorithm 6 as published: maintained K-order + candidates
  /// restricted to churn-impacted vertices.
  kRestricted,
  /// Maintained K-order but the full Theorem-3 candidate pool per
  /// snapshot: measures the value of candidate restriction alone.
  kMaintainedFull,
  /// Carry S_{t-1} forward untouched (only refill if the budget is
  /// short): the "do-nothing" lower bound on tracking cost/quality.
  kCarryForward,
};

/// Execution knobs for IncAvtTracker.
struct IncAvtOptions {
  /// Lazy local search: certified-bound gating + cross-snapshot region
  /// memo (see file comment). Bit-identical anchors to the eager loop.
  bool lazy = true;
  /// Trial-engine worker count for the slot-trial local search (and the
  /// first snapshot's greedy solve); <= 1 runs serial. Parallel slot
  /// trials keep the bound gating but skip the cross-snapshot slot memo
  /// (worker oracles hold no cross-call state); anchors stay
  /// bit-identical to the serial loops at every thread count
  /// (tests/parallel_determinism_test.cc).
  uint32_t num_threads = 1;
  /// Cascade-scan backing (enum in core/avt.h). kMaintained (default)
  /// has the CoreMaintainer patch a DynamicCsr in lockstep with the
  /// graph, so every oracle scan — serial and per-worker — reads
  /// contiguous slabs with no per-delta rebuild; kRebuildPerDelta
  /// snapshots a fresh CsrView each transition; kNone scans the dynamic
  /// adjacency. All three backings iterate neighbors in the identical
  /// order, so anchors are bit-identical across modes (pinned by the
  /// differential fuzz and the PR-4 perf gate).
  IncAvtCsrMode csr = IncAvtCsrMode::kMaintained;
  /// Delta-transaction width the tracker requests from the driving
  /// engine (AvtEngine honors it via AvtTracker::PreferredBatchSize).
  /// With N > 1 the engine merges N consecutive source deltas into one
  /// canonical net-effect transaction, so the tracker pays ONE
  /// invalidation walk, ONE impacted-region candidate-pool build, and
  /// ONE local search per N deltas — and observes exactly every N-th
  /// snapshot of the stream, with state bit-identical to what the
  /// per-delta replay reaches at those boundaries (DeltaBatcher's
  /// last-op-wins guarantee; tests/differential_fuzz_test.cc pins it).
  /// 1 (default) is verbatim per-delta delivery.
  size_t batch_size = 1;
  /// Retention policy for the cross-snapshot trial memo (enum in
  /// core/avt.h, store in core/memo_store.h). Anchors are bit-identical
  /// under every policy — eviction only costs recomputation (pinned by
  /// the differential-fuzz policy matrix). Ignored in eager mode, which
  /// keeps no cross-snapshot memo at all.
  MemoPolicy memo_policy = MemoPolicy::kMemoizeAll;
  /// Byte budget for MemoPolicy::kLru (0 = the store's default 1 MiB);
  /// the memo table's slot array never outgrows it. Ignored by the
  /// other policies.
  size_t memo_budget_bytes = 0;
};

/// Incremental tracker (the paper's primary contribution).
class IncAvtTracker : public AvtTracker {
 public:
  IncAvtTracker(uint32_t k, uint32_t l,
                IncAvtMode mode = IncAvtMode::kRestricted,
                IncAvtOptions options = IncAvtOptions{})
      : k_(k), l_(l), mode_(mode), options_(options) {}

  AvtSnapshotResult ProcessFirst(const Graph& g0) override;
  AvtSnapshotResult ProcessDelta(const EdgeDelta& delta) override;
  /// Streaming growth: new isolated vertices join the maintained graph,
  /// K-order (back of level 0), CSR mirror, the oracle/engine scratch,
  /// and this tracker's per-vertex state, all without invalidating the
  /// cross-snapshot memo — an isolated vertex intersects no recorded
  /// dependency region and cannot change any query's result.
  void EnsureVertices(VertexId count) override;
  size_t PreferredBatchSize() const override {
    return options_.batch_size < 1 ? 1 : options_.batch_size;
  }
  std::string name() const override {
    switch (mode_) {
      case IncAvtMode::kRestricted: return "IncAVT";
      case IncAvtMode::kMaintainedFull: return "IncAVT-fullpool";
      case IncAvtMode::kCarryForward: return "IncAVT-carry";
    }
    return "IncAVT";
  }

  const CoreMaintainer& maintainer() const { return maintainer_; }
  /// The tracker's trial engine (null before the first ProcessFirst).
  const TrialEngine* trial_engine() const { return engine_.get(); }
  const std::vector<VertexId>& current_anchors() const { return anchors_; }

  /// The maintained graph + K-order index: exactly the redundant state
  /// integrity audits cross-check against a fresh decomposition.
  TrackerAuditView AuditView() const override {
    return {&maintainer_.graph(), &maintainer_.order()};
  }
  bool InjectAuditFaultForDrill() override {
    return maintainer_.InjectIndexFaultForDrill();
  }

 private:
  /// A (key, generation) reference into the memo store: the store
  /// stamps every Record, so a reference whose entry was overwritten,
  /// evicted, or cleared elsewhere is recognizably stale — skipped by
  /// the invalidation walk and dropped by compaction instead of
  /// accumulating forever (the PR-8 stale-key fix).
  struct TouchRef {
    uint64_t key;
    uint32_t gen;
  };

  /// One touch/bound list plus its compaction trigger. A list compacts
  /// (drops stale references) when it reaches `compact_at`, which then
  /// moves to twice the survivor count — so every O(n) sweep is paid
  /// for by at least n/2 preceding appends, amortized O(1).
  struct TouchList {
    std::vector<TouchRef> refs;
    uint32_t compact_at = kTouchCompactMin;
  };

  /// Runs `body` over the scan backing the oracles read: the maintained
  /// mirror, the rebuilt snapshot, or the dynamic adjacency.
  template <typename F>
  decltype(auto) WithAdjacency(F&& body) const {
    if (maintainer_.csr() != nullptr) return body(*maintainer_.csr());
    if (options_.csr == IncAvtCsrMode::kRebuildPerDelta) {
      return body(rebuilt_csr_);
    }
    return body(maintainer_.graph());
  }

  /// |C_k| of the maintained graph (anchors excluded by construction:
  /// anchors are tracked outside the k-core).
  uint32_t KCoreSize() const;

  /// Registers (key, gen) as dependent on every vertex of the given
  /// region spans (a query's anchors + forward-pass pops).
  void RecordTouch(uint64_t key, uint32_t gen,
                   std::span<const VertexId> region_a,
                   std::span<const VertexId> region_b);

  /// Appends to a touch/bound list, compacting stale references when
  /// the list hits its trigger.
  void PushTouch(TouchList& list, TouchRef ref);
  /// Drops references whose memo entries are gone or superseded.
  void CompactTouchList(TouchList& list);
  /// Empties a list (references only — entries stay) and resets its
  /// trigger; keeps touch_total_ in step.
  void ClearTouchList(TouchList& list);

  /// Kills every memo entry whose region contains v.
  void InvalidateTouched(VertexId v);

  /// Local search over `pool` (already sorted), replicating the eager
  /// swap + extend loops with bound gating and the memo. Updates
  /// anchors_/is_anchor_/current; returns work counters via snap.
  void LazyLocalSearch(const std::vector<VertexId>& pool, uint32_t& current,
                       AvtSnapshotResult& snap);
  void EagerLocalSearch(const std::vector<VertexId>& pool, uint32_t& current,
                        AvtSnapshotResult& snap);
  /// num_threads > 1: the same slot loops fanned out over the trial
  /// engine — per-slot sharded evaluation (bound-gated when lazy),
  /// deterministic (followers desc, id asc) reduction, identical commits
  /// to the serial searches. Uses the incumbent memo but not the
  /// per-(slot, candidate) memo.
  void ParallelLocalSearch(const std::vector<VertexId>& pool,
                           uint32_t& current, AvtSnapshotResult& snap);

  uint32_t k_;
  uint32_t l_;
  IncAvtMode mode_;
  IncAvtOptions options_;
  size_t t_ = 0;
  CoreMaintainer maintainer_;
  /// The tracker's only oracles: max(1, num_threads) workers bound to the
  /// maintainer's graph/order plus whichever CSR backing options_.csr
  /// selects (shared read-only). Worker 0 doubles as the serial oracle
  /// (greedy final count, serial local searches, incumbent queries);
  /// num_threads > 1 adds the parallel slot-trial evaluation. Created by
  /// the first ProcessFirst and kept for the tracker's lifetime.
  std::unique_ptr<TrialEngine> engine_;
  /// kRebuildPerDelta scratch: filled from the maintained graph by
  /// ProcessFirst and at the start of every ProcessDelta (caller-owned
  /// buffers, so the rebuild reuses its high-water allocation). Stable
  /// address — the engine binds it once.
  CsrView rebuilt_csr_;
  std::vector<VertexId> anchors_;
  /// Per-vertex scratch, sized once per universe so ProcessDelta neither
  /// allocates nor clears anything n-sized. pool_state_ memoizes the
  /// Theorem-3 verdict per vertex within one delta — vertices reachable
  /// from several impacted vertices are filtered once, not per
  /// appearance — and is reset from pool_seen_. is_anchor_ mirrors
  /// anchors_ (set by ProcessFirst, updated by every commit) and is read
  /// by the pool filter and the local searches.
  enum : uint8_t { kUnseen = 0, kRejected = 1, kPooled = 2 };
  std::vector<uint8_t> pool_state_;
  std::vector<VertexId> pool_seen_;  // vertices whose pool_state_ is set
  std::vector<uint8_t> is_anchor_;
  std::vector<VertexId> pool_;
  /// Swap-reference scratch for the serial lazy search: one
  /// SwapMarginal per pool_ entry and one phase-1 count per slot base.
  /// Pool- and l-sized, reused across deltas.
  std::vector<int32_t> swap_marginals_;
  std::vector<uint32_t> slot_counts_;

  // --- lazy-mode state ---------------------------------------------
  /// Cross-snapshot trial memo behind the MemoPolicy abstraction (key
  /// space and retention semantics documented in core/memo_store.h).
  /// Cleared whenever anchors_ changes (a new base invalidates every
  /// trial); churn kills individual entries via touch_index_, and a dead
  /// base drags its dependent bounds along (slot_bound_keys_). Policies
  /// may additionally evict entries (LRU budget, top-value-only) — the
  /// generation stamps keep those evictions and this tracker's
  /// invalidation bookkeeping consistent with each other.
  TrialMemoStore memo_;
  /// Per-transition deltas for AvtSnapshotResult's memo counters.
  TrialMemoStore::Stats last_memo_stats_;
  /// Inverted dependency index: touch_index_[v] lists the memo entries
  /// whose evaluation read v's state. ProcessDelta erases exactly those
  /// entries for each impacted vertex and its one-hop neighborhood;
  /// stale references are skipped via their generation stamp and
  /// dropped by per-list compaction. touch_total_ (references currently
  /// held across ALL lists) still triggers a periodic full reset as the
  /// global backstop.
  std::vector<TouchList> touch_index_;
  size_t touch_total_ = 0;
  /// slot_bound_keys_[slot] — references to bounds probed against the
  /// slot's current base cascade; erased together with the base.
  std::vector<TouchList> slot_bound_keys_;

  static constexpr uint64_t kIncumbentKey = TrialMemoStore::kIncumbentKey;
  static constexpr uint64_t kBaseKeyBase = TrialMemoStore::kBaseKeyBase;
  static constexpr uint32_t kTouchCompactMin = 64;
};

}  // namespace avt

#endif  // AVT_CORE_INC_AVT_H_

// IncAVT: the paper's incremental AVT algorithm (Section 5, Algorithm 6).
//
// State carried between snapshots:
//   * CoreMaintainer — graph + K-order kept consistent by the bounded
//     maintenance of Algorithms 4/5 (no per-snapshot rebuild);
//   * the previous anchor set S_{t-1}.
// Nothing else survives a transition: the oracles, the trial engine and
// the pool filter all scan the maintainer's own graph.
//
// Per transition:
//   1. Apply E+ / E- through the maintainer, collecting the impacted
//     vertex set (the union of the paper's VI and VR).
//   2. Seed S_t := S_{t-1} and count its followers F(S) on G_t (one full
//     query: the incumbent every swap must strictly beat).
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
//   * The swap phase gets every slot's bounds from one swap
//     reference: the phase-1 cascade of S itself, with the vertices
//     whose state differs under some slot base S∖{u_i} marked dirty.
//     One marginal probe per pool vertex then gives its exact bound for
//     all l slots; only probes that read a dirty vertex (a few dozen per
//     delta) are redone per slot. A commit changes S, so the next slot
//     rebuilds the reference while at least two slots remain.
//
//   Both accelerations preserve bit-identical anchors versus the eager
//   loop (enforced by tests/lazy_greedy_test.cc).
//
// Threads (IncAvtOptions::num_threads) never change the search: every
// thread count runs the same lazy (or eager) loops. The pool walk and
// the lazy swap phase run on worker 0 alone; the engine's workers split
// only TrialEngine::Evaluate calls — the eager slots and the extend
// phase — whose outcomes and counters are thread-count-invariant. Pools,
// anchors and work counters are therefore bit-identical at every thread
// count.
//
// The pool is usually tiny relative to the full Theorem-3 candidate set —
// that is the entire advantage the paper measures in Figures 4/6/8.

#ifndef AVT_CORE_INC_AVT_H_
#define AVT_CORE_INC_AVT_H_

#include <vector>

#include "anchor/follower_oracle.h"
#include "anchor/trial_engine.h"
#include "core/avt.h"
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
  /// Lazy local search: certified-bound gating and the shared swap
  /// reference (see file comment). Bit-identical anchors to the eager
  /// loop.
  bool lazy = true;
  /// Trial-engine worker count; <= 1 runs everything serial. Every
  /// thread count runs the same searches. The workers split the first
  /// snapshot's greedy solve, the eager search's full queries and the
  /// extend phase's trials (TrialEngine::Evaluate, serial below its
  /// kMinProbesPerWorker cutover); the pool walk and the lazy swap phase
  /// stay on worker 0. Anchors, pools and work counters are
  /// bit-identical at every thread count
  /// (tests/parallel_determinism_test.cc).
  uint32_t num_threads = 1;
  /// Delta-transaction width the tracker requests from the driving
  /// engine (AvtEngine honors it via AvtTracker::PreferredBatchSize).
  /// With N > 1 the engine merges N consecutive source deltas into one
  /// canonical net-effect transaction, so the tracker pays ONE
  /// incumbent query, ONE impacted-region candidate-pool build, and
  /// ONE local search per N deltas — and observes exactly every N-th
  /// snapshot of the stream, with state bit-identical to what the
  /// per-delta replay reaches at those boundaries (DeltaBatcher's
  /// last-op-wins guarantee; tests/differential_fuzz_test.cc pins it).
  /// 1 (default) is verbatim per-delta delivery.
  size_t batch_size = 1;
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
  /// K-order (back of level 0), the oracle/engine scratch, and this
  /// tracker's per-vertex state. An isolated vertex cannot change any
  /// query's result.
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
  /// |C_k| of the maintained graph (anchors excluded by construction:
  /// anchors are tracked outside the k-core).
  uint32_t KCoreSize() const;

  /// Local search over `pool` (already sorted), replicating the eager
  /// swap + extend loops with bound gating. Updates
  /// anchors_/is_anchor_/current; returns work counters via snap.
  void LazyLocalSearch(const std::vector<VertexId>& pool, uint32_t& current,
                       AvtSnapshotResult& snap);
  /// Algorithm 6's loops with one full query per trial, each slot one
  /// eager TrialEngine::Evaluate.
  void EagerLocalSearch(const std::vector<VertexId>& pool, uint32_t& current,
                        AvtSnapshotResult& snap);
  /// Fills S up to l from the pool (argmax trial per step, no incumbent
  /// gate) with one TrialEngine::Evaluate per added anchor.
  void ExtendPhase(const std::vector<VertexId>& pool, uint32_t& current,
                   AvtSnapshotResult& snap);
  /// live_ := the pool minus the current anchors.
  void CollectLive(const std::vector<VertexId>& pool);

  uint32_t k_;
  uint32_t l_;
  IncAvtMode mode_;
  IncAvtOptions options_;
  size_t t_ = 0;
  CoreMaintainer maintainer_;
  /// The tracker's only oracles and threads: max(1, num_threads) workers
  /// bound to the maintainer's graph/order (shared read-only). Worker 0
  /// is the serial oracle: greedy's final count, the incumbent queries,
  /// the swap reference and its marginal pass, dirty per-slot probes and
  /// every pop-resolve. With num_threads > 1 the workers also split the
  /// greedy solve and the eager/extend Evaluate calls. Created by the
  /// first ProcessFirst and kept for the tracker's lifetime.
  std::unique_ptr<TrialEngine> engine_;
  std::vector<VertexId> anchors_;
  /// Per-vertex scratch, sized once per universe so ProcessDelta neither
  /// allocates nor clears anything n-sized. The pool walk reads the
  /// maintainer's Theorem-3 verdict byte first; only candidates touch
  /// in_pool_, which marks the vertices pooled in this delta — a
  /// candidate reachable from several impacted vertices is pooled once
  /// — and is reset from pool_ itself. is_anchor_ mirrors anchors_ (set
  /// by ProcessFirst, updated by every commit) and is read by the pool
  /// filter and the local searches.
  std::vector<uint8_t> in_pool_;
  std::vector<uint8_t> is_anchor_;
  std::vector<VertexId> pool_;
  std::vector<VertexId> live_;  // CollectLive's output
  /// Swap-reference scratch for the lazy search: one SwapMarginal per
  /// pool_ entry and one phase-1 count per slot base. Pool- and
  /// l-sized, reused across deltas.
  std::vector<int32_t> swap_marginals_;
  std::vector<uint32_t> slot_counts_;
};

}  // namespace avt

#endif  // AVT_CORE_INC_AVT_H_

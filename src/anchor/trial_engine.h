// Deterministic parallel trial evaluation: the workers and per-worker
// oracles behind both pick loops.
//
// GreedySolver's per-pick argmax, IncAvtTracker's eager slots and both
// trackers' extend phase reduce to the same question: among live
// candidates x, which trial set base ∪ {x} has the most followers —
// tie-break smallest id — optionally restricted to counts strictly above
// an incumbent floor? That is Evaluate. IncAVT's lazy swap phase asks a
// different one — every pool vertex's marginal over ONE shared swap
// reference — and answers it serially on worker 0's oracle
// (serial_oracle()).
//
// Every trial is a pure function of the shared read-only (graph,
// K-order[, CSR]) triple, so trials are embarrassingly parallel; what
// is NOT trivially parallel is keeping the answer (and the lazy
// strategy's work counters) bit-identical to the serial loop. TrialEngine
// owns that guarantee:
//
//   * one FollowerOracle per worker — oracle queries are non-destructive
//     over the shared structures, and each worker's cascade scratch
//     (including its own resident base cascade) is private;
//   * lazy mode runs in two phases. Phase 1 (parallel): the live list is
//     partitioned into per-worker GRAPH REGIONS — candidates sorted by
//     K-order position (level, tag), then block-split — so the marginal
//     cascades a worker probes share cache-resident K-order state; each
//     worker builds the base cascade once and writes one certified
//     MarginalUpperBound per candidate into an index-addressed slot.
//     Phase 2 (serial): ONE global CELF heap over all bounds, keyed
//     (value desc, id asc), pop-resolved with full queries on worker 0's
//     oracle until the top is exact (or provably cannot beat the floor).
//     Because each bound is a pure function of (base, candidate, k) —
//     independent of which worker produced it or in what order — the
//     heap's content, its pop sequence, and therefore the winner AND the
//     full_queries/bound_probes counters are identical to the serial
//     loop at every thread count. In particular the global winner is
//     resolved exactly ONCE per call: full queries no longer scale with
//     the worker count (the PR-3 per-shard design resolved one winner
//     per shard, multiplying exact queries by the thread count — the
//     regression BENCH_PR3 recorded);
//   * eager mode fans the full queries out with work stealing
//     (ParallelFor) and keeps a per-worker running best — valid because
//     the global (followers desc, id asc) maximum of a set is reachable
//     from any partition of it, and the query count is |live| at every
//     thread count;
//   * small live sets skip the fan-out entirely (the base-cascade
//     rebuild per worker plus the fork-join wakeup dwarf a handful of
//     marginal probes); the serial path computes the identical bounds,
//     so the cutover is invisible in outputs and counters.
//
// Anchors are bit-identical to the serial path at every thread count,
// and the work counters are thread-count-invariant — both pinned by
// tests/parallel_determinism_test.cc. Per-worker oracle stats (oracle(w))
// split with the work; only their sums are invariant.

#ifndef AVT_ANCHOR_TRIAL_ENGINE_H_
#define AVT_ANCHOR_TRIAL_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "anchor/follower_oracle.h"
#include "util/thread_pool.h"

namespace avt {

/// How one Evaluate call selects its winner.
struct TrialPolicy {
  /// Certified-bound gating (phase-1 probes, pop-resolve) instead of a
  /// full query per candidate. Identical winner either way.
  bool lazy = true;
  /// When true, only trials with followers strictly above `floor`
  /// qualify (IncAVT's swap slots); a lazy call whose top bound cannot
  /// beat the floor settles with zero full queries.
  bool gate = false;
  uint32_t floor = 0;
};

/// Winner plus deterministic work counters. Both counters are pure
/// functions of (live, base, k, policy) — never of the thread count.
struct TrialOutcome {
  VertexId vertex = kNoVertex;  // kNoVertex: no live candidate qualified
  uint32_t followers = 0;       // exact F(base ∪ {vertex})
  uint64_t full_queries = 0;
  uint64_t bound_probes = 0;
};

/// Parallel (or serial, num_threads <= 1) trial evaluator bound to one
/// read-only (graph, order[, csr]) triple. The referenced structures must
/// outlive the engine and stay consistent while Evaluate runs; after the
/// graph/order are maintained in place (IncAVT), the next Evaluate simply
/// reads the new state — per-worker oracles hold no cross-call caches.
class TrialEngine {
 public:
  TrialEngine(const Graph* graph, const KOrder* order, const CsrView* csr,
              uint32_t num_threads);

  /// Below this many probes per worker Evaluate stays on worker 0: the
  /// fork-join wakeup plus the per-worker base-cascade rebuild cost more
  /// than the probes they spread; the serial path computes the identical
  /// bounds, so the cutover changes nothing observable. (BENCH_PR3's
  /// IncAVT arm lost 1.4x at 8 threads precisely because steady-state
  /// pools are this small.)
  static constexpr size_t kMinProbesPerWorker = 8;

  uint32_t num_threads() const { return num_threads_; }

  /// Worker w's oracle (w < num_threads()), for per-worker stats.
  const FollowerOracle& oracle(uint32_t w) const { return *oracles_[w]; }

  /// Worker 0's oracle: the serial path and pop-resolver of Evaluate, and
  /// the serial oracle of every caller sharing this engine (the greedy
  /// final follower count, IncAVT's swap-reference pass, pop-resolves
  /// and incumbent queries) — so a caller never needs an oracle of its
  /// own. Use it
  /// between Evaluate calls only.
  FollowerOracle& serial_oracle() { return *oracles_[0]; }
  const FollowerOracle& serial_oracle() const { return *oracles_[0]; }

  /// Grows every worker oracle's scratch after the bound graph/order
  /// grew (streaming sources add vertices mid-stream). Call between
  /// Evaluate calls only.
  void ResizeScratch();

  /// Heap bytes held by the worker oracles and the Evaluate scratch
  /// (thread stacks excluded): linear in num_threads().
  size_t MemoryFootprint() const;

  /// Argmax over live candidates of F(base ∪ {x}) under `policy`. `live`
  /// must be duplicate-free and disjoint from `base`; id-ascending order
  /// is NOT required (neither the reduction nor the K-order partition
  /// depends on it).
  TrialOutcome Evaluate(std::span<const VertexId> live,
                        std::span<const VertexId> base, uint32_t k,
                        const TrialPolicy& policy);

  /// Total cascade vertices visited across all worker oracles (the
  /// solver-level cascade_visited metric).
  uint64_t CascadeVisited() const;

 private:
  const uint32_t num_threads_;
  const KOrder* order_;               // partition key source (level, tag)
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  std::vector<std::unique_ptr<FollowerOracle>> oracles_;
  /// Evaluate scratch, reused across calls: per-candidate certified
  /// bounds (index-addressed, so phase 1 writes are race-free) and the
  /// K-order-sorted index permutation behind the region partition.
  std::vector<uint32_t> bounds_;
  std::vector<uint32_t> perm_;
};

}  // namespace avt

#endif  // AVT_ANCHOR_TRIAL_ENGINE_H_

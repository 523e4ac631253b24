// The paper's optimized Greedy algorithm (Section 4), plus the execution
// strategies used by the ablation benches.
//
// Per pick, the algorithm needs argmax over candidates x of the follower
// count F(S ∪ {x}) given the anchors S already chosen. Both accelerations
// of Section 4 are active in every mode:
//   4.1 candidate reduction — only vertices preceding a (k-1)-shell
//       neighbor in K-order are probed;
//   4.2 fast follower computation — order-based cascade instead of a
//       fresh core decomposition per candidate.
//
// Execution strategies for the pick loop (both route through
// anchor/trial_engine.h and compose freely with num_threads):
//   * lazy (DEFAULT) — CELF-style lazy evaluation with *certified* upper
//     bounds. The anchored-k-core objective is not submodular (the paper
//     proves inapproximability), so the classic CELF trick of reusing
//     stale gains as bounds is unsound here: a candidate's gain can grow
//     as S grows, and a stale bound would silently change the argmax.
//     Instead, each pick refreshes a cheap certified bound per candidate
//     (FollowerOracle::UpperBound — the phase-1 cascade without the
//     elimination fixpoint), then pops a max-heap keyed (bound desc,
//     id asc), fully evaluating only the top until an exact entry
//     dominates every remaining bound. Because bound >= exact always
//     holds for the same trial set, the accepted pick is provably the
//     exhaustive argmax under the same tie-break (followers desc, id
//     asc) — anchors are bit-identical to the serial scan while full
//     oracle queries collapse to a handful per pick.
//   * lazy = false ("scan") — the textbook loop: one full oracle query
//     per candidate per pick. Kept as the reference for tests and the
//     perf gate.
//
// num_threads > 1 distributes either strategy over a worker pool with
// one FollowerOracle per worker: lazy shards the candidate heap into
// fixed per-thread slices, eager fans full queries out with work
// stealing, and both reduce winners by (followers desc, id asc) — the
// anchors stay bit-identical to the serial path at every thread count
// (the determinism argument lives in trial_engine.h; enforced by
// tests/parallel_determinism_test.cc).
//
// Solve(graph) snapshots the graph into a CsrView once per solve and
// routes the K-order build plus all cascade scans through contiguous
// spans, then runs the shared pick loop (SolveOver). Callers that
// already hold the K-order and a TrialEngine — IncAvtTracker's first
// snapshot, which maintains both anyway — call SolveOver directly and
// build nothing.

#ifndef AVT_ANCHOR_GREEDY_H_
#define AVT_ANCHOR_GREEDY_H_

#include "anchor/solver.h"
#include "graph/csr.h"

namespace avt {

class KOrder;
class TrialEngine;

/// Tuning knobs for GreedySolver.
struct GreedyOptions {
  bool prune_candidates = true;
  /// Trial-engine worker count; <= 1 runs serial. Output is identical at
  /// every thread count.
  uint32_t num_threads = 1;
  /// Lazy pick loop with certified bounds (see file comment). Identical
  /// output to the eager scan, much cheaper. Composes with num_threads.
  bool lazy = true;
};

/// Optimized greedy anchored-k-core solver.
class GreedySolver : public AnchorSolver {
 public:
  GreedySolver() = default;
  explicit GreedySolver(bool prune_candidates) {
    options_.prune_candidates = prune_candidates;
  }
  explicit GreedySolver(const GreedyOptions& options) : options_(options) {}

  SolverResult Solve(const Graph& graph, uint32_t k, uint32_t l) override;

  /// The pick loop over prebuilt state: `order` is the K-order of the
  /// graph that `adj` iterates (the Graph itself or a CsrView of it —
  /// instantiated for both), and `engine` is bound to that same graph
  /// and order. The engine's worker count
  /// stands in for options.num_threads, and the final follower count
  /// runs on its serial oracle, so the solve allocates no oracle
  /// scratch. Anchors, followers and work counters equal Solve(graph).
  template <typename Adjacency>
  SolverResult SolveOver(const Adjacency& adj, const KOrder& order,
                         TrialEngine& engine, uint32_t k, uint32_t l);

  std::string name() const override {
    if (!options_.prune_candidates) return "Greedy-nopruning";
    if (options_.num_threads > 1) return "Greedy-parallel";
    if (!options_.lazy) return "Greedy-scan";
    return "Greedy";
  }

 private:
  GreedyOptions options_;
  /// Per-solve adjacency snapshot, kept across Solve calls so repeated
  /// solves (StaticAvtTracker re-solving every snapshot) refill the same
  /// buffers instead of reallocating offsets/targets each time.
  CsrView csr_;
};

}  // namespace avt

#endif  // AVT_ANCHOR_GREEDY_H_

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
// anchor/trial_engine.h):
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
//     asc) — anchors are bit-identical to the eager scan while full
//     oracle queries collapse to a handful per pick.
//   * lazy = false ("scan") — the textbook loop: one full oracle query
//     per candidate per pick. Kept as the reference for tests and the
//     execution-strategy ablation.
//
// Solve(graph) snapshots the graph into a CsrView once per solve and
// routes the K-order build, the candidate filter and all cascade scans
// through contiguous spans, then runs the shared pick loop (PickFrom).
// Callers that already hold the K-order, an oracle and the pool —
// IncAvtTracker's first snapshot, whose maintainer reads the Theorem-3
// pool off its neighbor counters in O(n) — call PickFrom directly and
// build nothing.

#ifndef AVT_ANCHOR_GREEDY_H_
#define AVT_ANCHOR_GREEDY_H_

#include "anchor/solver.h"
#include "graph/csr.h"

namespace avt {

class FollowerOracle;

/// Tuning knobs for GreedySolver.
struct GreedyOptions {
  bool prune_candidates = true;
  /// Inert: the solver is single-threaded and never reads this. Kept
  /// only because perfbench/main.cc still assigns it; it goes with that
  /// assignment.
  uint32_t num_threads = 1;
  /// Lazy pick loop with certified bounds (see file comment). Identical
  /// output to the eager scan, much cheaper.
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

  /// The pick loop over prebuilt state: `pool` is the candidate pool,
  /// ascending id, of the graph and K-order `oracle` is bound to. Every
  /// trial and the final follower count run on `oracle`, so the solve
  /// allocates no oracle scratch. Given the Theorem-3 pool
  /// (CollectAnchorCandidates, or CoreMaintainer::CollectCandidates),
  /// anchors, followers and work counters equal Solve(graph).
  SolverResult PickFrom(const std::vector<VertexId>& pool,
                        FollowerOracle& oracle, uint32_t k, uint32_t l);

  std::string name() const override {
    if (!options_.prune_candidates) return "Greedy-nopruning";
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

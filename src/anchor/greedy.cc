#include "anchor/greedy.h"

#include <algorithm>

#include "anchor/candidates.h"
#include "anchor/trial_engine.h"
#include "corelib/korder.h"

namespace avt {

SolverResult GreedySolver::Solve(const Graph& graph, uint32_t k,
                                 uint32_t l) {
  if (k == 0 || l == 0) return SolverResult{};
  // One contiguous adjacency snapshot serves the whole solve: the
  // K-order build, the candidate filter and every oracle cascade scan
  // it. The view lives in the solver so back-to-back solves reuse its
  // buffers.
  graph.BuildCsr(&csr_);
  KOrder order;
  order.Build(csr_);
  TrialEngine engine(&graph, &order, &csr_, options_.num_threads);
  const std::vector<VertexId> pool =
      options_.prune_candidates ? CollectAnchorCandidates(csr_, order, k)
                                : CollectUnprunedCandidates(csr_, order, k);
  return PickFrom(pool, engine, k, l);
}

SolverResult GreedySolver::PickFrom(const std::vector<VertexId>& pool,
                                    TrialEngine& engine, uint32_t k,
                                    uint32_t l) {
  SolverResult result;
  if (k == 0 || l == 0) return result;
  const uint64_t visited_before = engine.CascadeVisited();

  // Algorithm 2: l picks, each taking the candidate with the most
  // followers given the anchors already chosen — evaluated by the trial
  // engine (per-worker oracles, deterministic sharded reduction; serial
  // when it has one worker). Both strategies share the engine:
  //   * lazy (default) — certified-bound CELF per shard (see greedy.h);
  //   * eager scan — one full query per candidate, the reference loop.
  // Zero-marginal picks are allowed (an anchor always joins C_k(S)
  // itself), matching the paper's objective |C_k(S)| = |C_k| + |S| + |F|.
  TrialPolicy policy;
  policy.lazy = options_.lazy;

  // The live pool stays id-ascending: the engine's reduction does not
  // depend on that, but keeping the order keeps the serial lazy heap's
  // insertion sequence stable.
  std::vector<VertexId> live = pool;
  std::vector<VertexId> chosen;
  for (uint32_t pick = 0; pick < l && !live.empty(); ++pick) {
    TrialOutcome outcome = engine.Evaluate(live, chosen, k, policy);
    result.candidates_visited += outcome.full_queries;
    result.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) break;
    chosen.push_back(outcome.vertex);
    live.erase(std::lower_bound(live.begin(), live.end(), outcome.vertex));
  }

  result.anchors = chosen;
  if (!chosen.empty()) {
    engine.serial_oracle().CountFollowers(chosen, k, &result.followers);
  }
  result.cascade_visited = engine.CascadeVisited() - visited_before;
  return result;
}

}  // namespace avt

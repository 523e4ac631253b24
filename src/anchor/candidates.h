// Candidate anchored-vertex pruning (Theorem 3 of the paper).
//
// A vertex x can only produce followers if it has at least one neighbor v
// with core(v) = k-1 positioned after x in the K-order (x ⪯ v): anchoring
// x only adds support to neighbors it precedes, and a first follower must
// sit on the (k-1)-shell. The theorem shrinks the Greedy candidate pool
// from |V| to the vertices adjacent "upward" to the shell, which is the
// dominant speedup of the paper's optimized Greedy over OLAK.
//
// Everything here is templated over the adjacency view (Graph or
// CsrView — both iterate neighbors in the same order), so the one-shot
// solvers filter over their frozen snapshot and the incremental tracker
// filters its churn-restricted pool over the maintained graph.

#ifndef AVT_ANCHOR_CANDIDATES_H_
#define AVT_ANCHOR_CANDIDATES_H_

#include <cstdint>
#include <vector>

#include "corelib/korder.h"
#include "graph/graph.h"

namespace avt {

/// True iff x passes the Theorem-3 filter for threshold k.
template <typename Adjacency>
inline bool IsAnchorCandidate(const Adjacency& adj, const KOrder& order,
                              VertexId x, uint32_t k) {
  if (k == 0) return false;
  if (order.CoreOf(x) >= k) return false;  // k-core members gain nothing
  for (VertexId v : adj.Neighbors(x)) {
    if (order.CoreOf(v) == k - 1 && order.Precedes(x, v)) return true;
  }
  return false;
}

/// All Theorem-3 candidates of the graph, ascending vertex id.
template <typename Adjacency>
std::vector<VertexId> CollectAnchorCandidates(const Adjacency& adj,
                                              const KOrder& order,
                                              uint32_t k) {
  std::vector<VertexId> out;
  for (VertexId x = 0; x < adj.NumVertices(); ++x) {
    if (IsAnchorCandidate(adj, order, x, k)) out.push_back(x);
  }
  return out;
}

/// Unpruned pool used by the OLAK baseline: every vertex outside the
/// k-core with at least one neighbor (anchoring an isolated vertex or a
/// k-core member can never create followers, which OLAK also skips).
template <typename Adjacency>
std::vector<VertexId> CollectUnprunedCandidates(const Adjacency& adj,
                                                const KOrder& order,
                                                uint32_t k) {
  std::vector<VertexId> out;
  for (VertexId x = 0; x < adj.NumVertices(); ++x) {
    if (order.CoreOf(x) < k && adj.Degree(x) > 0) out.push_back(x);
  }
  return out;
}

}  // namespace avt

#endif  // AVT_ANCHOR_CANDIDATES_H_

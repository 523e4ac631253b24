// Candidate anchored-vertex pruning (Theorem 3 of the paper).
//
// A vertex x can only produce followers if it has at least one neighbor v
// with core(v) = k-1 positioned after x in the K-order (x ⪯ v): anchoring
// x only adds support to neighbors it precedes, and a first follower must
// sit on the (k-1)-shell. The theorem shrinks the Greedy candidate pool
// from |V| to the vertices adjacent "upward" to the shell, which is the
// dominant speedup of the paper's optimized Greedy over OLAK.
//
// IsAnchorCandidate scans x's neighbors in the graph; the incremental
// tracker does not: its CoreMaintainer keeps per-vertex counts of
// neighbors at core k-1 and at core >= k and answers the same test in
// O(1) (CoreMaintainer::IsCandidate — below k-1 "any neighbor at k-1",
// at k-1 "deg+ exceeds the neighbors at >= k"). The scan here stays the
// reference that verdict is checked against.

#ifndef AVT_ANCHOR_CANDIDATES_H_
#define AVT_ANCHOR_CANDIDATES_H_

#include <cstdint>
#include <vector>

#include "corelib/korder.h"
#include "graph/graph.h"

namespace avt {

/// True iff x passes the Theorem-3 filter for threshold k.
inline bool IsAnchorCandidate(const Graph& graph, const KOrder& order,
                              VertexId x, uint32_t k) {
  if (k == 0) return false;
  if (order.CoreOf(x) >= k) return false;  // k-core members gain nothing
  for (VertexId v : graph.Neighbors(x)) {
    if (order.CoreOf(v) == k - 1 && order.Precedes(x, v)) return true;
  }
  return false;
}

/// All Theorem-3 candidates of the graph, ascending vertex id.
inline std::vector<VertexId> CollectAnchorCandidates(const Graph& graph,
                                                     const KOrder& order,
                                                     uint32_t k) {
  std::vector<VertexId> out;
  for (VertexId x = 0; x < graph.NumVertices(); ++x) {
    if (IsAnchorCandidate(graph, order, x, k)) out.push_back(x);
  }
  return out;
}

/// Unpruned pool of Greedy-nopruning (the Theorem-3 ablation): every
/// vertex outside the k-core with at least one neighbor (anchoring an
/// isolated vertex or a k-core member can never create followers).
inline std::vector<VertexId> CollectUnprunedCandidates(const Graph& graph,
                                                       const KOrder& order,
                                                       uint32_t k) {
  std::vector<VertexId> out;
  for (VertexId x = 0; x < graph.NumVertices(); ++x) {
    if (order.CoreOf(x) < k && graph.Degree(x) > 0) out.push_back(x);
  }
  return out;
}

}  // namespace avt

#endif  // AVT_ANCHOR_CANDIDATES_H_

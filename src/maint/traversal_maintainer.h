// Traversal-based core maintenance (the pre-K-order state of the art the
// paper builds on: Sariyüce et al. PVLDB'13 [31], Li et al. TKDE'14
// [26]).
//
// Maintains only core numbers — no K-order — using the locality property
// of coreness: core(v) equals the largest h such that v has at least h
// neighbors with core >= h (an h-index fixpoint). Insertions seed from
// the edge endpoints and propagate through the "purecore" region;
// deletions re-run the h-index rule to a fixpoint from above.
//
// This engine exists for two reasons:
//   * an independent implementation to differential-test CoreMaintainer
//     against (two engines + one naive recompute rarely share bugs);
//   * callers that only need core numbers (no anchored queries) can use
//     the lighter structure.

#ifndef AVT_MAINT_TRAVERSAL_MAINTAINER_H_
#define AVT_MAINT_TRAVERSAL_MAINTAINER_H_

#include <cstdint>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"
#include "util/epoch.h"

namespace avt {

/// Core-number-only incremental maintenance.
class TraversalMaintainer {
 public:
  TraversalMaintainer() = default;

  /// Copies `graph` and computes initial core numbers.
  void Reset(const Graph& graph);

  const Graph& graph() const { return graph_; }
  uint32_t CoreOf(VertexId v) const { return core_[v]; }
  const std::vector<uint32_t>& cores() const { return core_; }

  /// Inserts an edge and updates core numbers. False if already present.
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes an edge and updates core numbers. False if absent.
  bool RemoveEdge(VertexId u, VertexId v);

  /// Applies a delta (insertions then deletions).
  void ApplyDelta(const EdgeDelta& delta);

  /// Vertices whose core changed in the most recent operation.
  const std::vector<VertexId>& last_changed() const {
    return last_changed_;
  }

 private:
  // h-index of the multiset {effective core of each neighbor}, capped by
  // the vertex's degree.
  uint32_t LocalHIndex(VertexId v) const;

  // Propagates decreases from `seeds` until the h-index fixpoint.
  void RelaxDownward(std::vector<VertexId> seeds);

  // Propagates potential increases after inserting edge (u, v).
  void PropagateUpward(VertexId root);

  Graph graph_;
  std::vector<uint32_t> core_;
  std::vector<VertexId> last_changed_;
  EpochArray<uint8_t> in_queue_;
  EpochArray<uint8_t> candidate_;
  EpochArray<uint32_t> support_;
};

}  // namespace avt

#endif  // AVT_MAINT_TRAVERSAL_MAINTAINER_H_

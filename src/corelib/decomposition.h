// k-core decomposition (Definition 1/2 of the paper).
//
// DecomposeCores implements the O(m) bucket algorithm of Batagelj &
// Zaversnik, additionally recording the peel order, which is exactly the
// K-order of Definition 5: vertices grouped by core number, ordered by
// removal time within a group.
//
// Pinned vertices (anchors treated as having infinite degree, Definition 4)
// are supported: a pinned vertex is never peeled, receives core number
// kPinnedCore, and appears in no order group. This single primitive yields
// the exact anchored k-core used as ground truth throughout the library.

#ifndef AVT_CORELIB_DECOMPOSITION_H_
#define AVT_CORELIB_DECOMPOSITION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace avt {

/// Core number assigned to pinned (anchored) vertices.
inline constexpr uint32_t kPinnedCore =
    std::numeric_limits<uint32_t>::max();

/// Result of a full core decomposition.
struct CoreDecomposition {
  /// core[v] = core number of v (kPinnedCore for pinned vertices).
  std::vector<uint32_t> core;
  /// Peel order: every non-pinned vertex exactly once, grouped by core
  /// number ascending, removal order within a group (a valid K-order).
  std::vector<VertexId> peel_order;
  /// Largest finite core number present (0 for edgeless graphs).
  uint32_t max_core = 0;

  bool InKCore(VertexId v, uint32_t k) const { return core[v] >= k; }
};

/// Full bucket-based core decomposition. `pinned` (optional, may be empty)
/// lists vertices that are never peeled.
CoreDecomposition DecomposeCores(const Graph& graph,
                                 const std::vector<VertexId>& pinned = {});

/// Literal transcription of the paper's Algorithm 1 (repeated scanning).
/// O(n^2) worst case — reference implementation for differential tests.
CoreDecomposition DecomposeCoresNaive(const Graph& graph);

/// Vertices of the k-core C_k (core >= k), ascending id. Pinned vertices
/// are included (they are members of the anchored k-core by definition).
std::vector<VertexId> KCoreMembers(const CoreDecomposition& cores,
                                   uint32_t k);

/// Vertices with core number exactly k (the k-shell).
std::vector<VertexId> KShellMembers(const CoreDecomposition& cores,
                                    uint32_t k);

/// Max-core degree (Definition 6): number of u's neighbors whose core
/// number is >= core(u).
uint32_t MaxCoreDegree(const Graph& graph, const CoreDecomposition& cores,
                       VertexId u);

}  // namespace avt

#endif  // AVT_CORELIB_DECOMPOSITION_H_

#include "corelib/decomposition.h"

#include <algorithm>

namespace avt {

CoreDecomposition DecomposeCores(const Graph& graph,
                                 const std::vector<VertexId>& pinned) {
  const VertexId n = graph.NumVertices();
  CoreDecomposition result;
  result.core.assign(n, 0);
  result.peel_order.reserve(n);

  std::vector<uint8_t> is_pinned(n, 0);
  for (VertexId p : pinned) {
    AVT_CHECK(p < n);
    is_pinned[p] = 1;
  }

  // Bucket sort vertices by degree. Pinned vertices never enter buckets.
  std::vector<uint32_t> degree(n, 0);
  uint32_t max_degree = 0;
  VertexId peelable = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = graph.Degree(v);
    if (!is_pinned[v]) {
      max_degree = std::max(max_degree, degree[v]);
      ++peelable;
    }
  }

  // bucket_start[d] .. : positions of vertices with current degree d in
  // `order`; standard Batagelj-Zaversnik layout with position index.
  std::vector<VertexId> order(peelable);
  std::vector<VertexId> position(n, 0);
  std::vector<VertexId> bucket_start(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!is_pinned[v]) ++bucket_start[degree[v] + 1];
  }
  for (size_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  {
    std::vector<VertexId> cursor(bucket_start.begin(),
                                 bucket_start.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      if (is_pinned[v]) continue;
      position[v] = cursor[degree[v]]++;
      order[position[v]] = v;
    }
  }

  uint32_t max_core = 0;
  for (VertexId i = 0; i < peelable; ++i) {
    VertexId v = order[i];
    uint32_t core_v = degree[v];
    max_core = std::max(max_core, core_v);
    result.core[v] = core_v;
    result.peel_order.push_back(v);
    for (VertexId w : graph.Neighbors(v)) {
      if (is_pinned[w]) continue;
      if (degree[w] <= degree[v]) continue;  // already peeled or same bucket floor
      // Move w one bucket down: swap w with the first vertex of its bucket.
      uint32_t dw = degree[w];
      VertexId first_pos = bucket_start[dw];
      VertexId first_vertex = order[first_pos];
      if (first_vertex != w) {
        std::swap(order[position[w]], order[first_pos]);
        std::swap(position[w], position[first_vertex]);
      }
      ++bucket_start[dw];
      --degree[w];
    }
    // Clamp: vertices peeled later can never report a lower core than the
    // current peel level. (degree[] of an unpeeled vertex may sit below
    // core_v only transiently; the standard fix is to peel with
    // degree[v] := max(degree[v], core so far), achieved by bucket order.)
  }

  // The bucket algorithm peels in nondecreasing current-degree order, so
  // result.core is already the correct core number; but when a vertex's
  // remaining degree dropped below the current level before being peeled
  // its bucket was below; enforce monotone peel levels:
  uint32_t level = 0;
  for (VertexId v : result.peel_order) {
    level = std::max(level, result.core[v]);
    result.core[v] = level;
  }
  // (For pinned vertices:)
  for (VertexId v = 0; v < n; ++v) {
    if (is_pinned[v]) result.core[v] = kPinnedCore;
  }
  result.max_core = max_core;
  return result;
}

CoreDecomposition DecomposeCoresNaive(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  CoreDecomposition result;
  result.core.assign(n, 0);
  result.peel_order.reserve(n);

  std::vector<uint32_t> degree(n);
  std::vector<uint8_t> removed(n, 0);
  for (VertexId v = 0; v < n; ++v) degree[v] = graph.Degree(v);

  VertexId remaining = n;
  uint32_t k = 1;
  while (remaining > 0) {
    bool any = true;
    while (any) {
      any = false;
      for (VertexId v = 0; v < n; ++v) {
        if (removed[v] || degree[v] >= k) continue;
        removed[v] = 1;
        --remaining;
        any = true;
        result.core[v] = k - 1;
        result.peel_order.push_back(v);
        result.max_core = std::max(result.max_core, k - 1);
        for (VertexId w : graph.Neighbors(v)) {
          if (!removed[w]) --degree[w];
        }
      }
    }
    ++k;
  }
  return result;
}

std::vector<VertexId> KCoreMembers(const CoreDecomposition& cores,
                                   uint32_t k) {
  std::vector<VertexId> members;
  for (VertexId v = 0; v < cores.core.size(); ++v) {
    if (cores.core[v] >= k) members.push_back(v);
  }
  return members;
}

std::vector<VertexId> KShellMembers(const CoreDecomposition& cores,
                                    uint32_t k) {
  std::vector<VertexId> members;
  for (VertexId v = 0; v < cores.core.size(); ++v) {
    if (cores.core[v] == k) members.push_back(v);
  }
  return members;
}

uint32_t MaxCoreDegree(const Graph& graph, const CoreDecomposition& cores,
                       VertexId u) {
  uint32_t mcd = 0;
  for (VertexId w : graph.Neighbors(u)) {
    if (cores.core[w] >= cores.core[u]) ++mcd;
  }
  return mcd;
}

}  // namespace avt

#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace avt {

Graph Graph::FromEdges(VertexId num_vertices, const std::vector<Edge>& edges) {
  // Canonical input (every edge normalized, the list sorted — an edge
  // log frame, CollectEdges) keeps a duplicate right after its twin, so
  // "equal to the previous edge" is the whole duplicate test. Any other
  // input pays AddEdge's HasEdge scan per edge. Either way each kept
  // edge is appended in input order, so neighbor order is exactly what
  // per-edge AddEdge calls would give.
  bool canonical = true;
  for (size_t i = 0; i < edges.size() && canonical; ++i) {
    canonical = edges[i].u <= edges[i].v &&
                (i == 0 || !(edges[i] < edges[i - 1]));
  }
  auto duplicate = [&](const Graph& g, size_t i) {
    return canonical ? i > 0 && edges[i] == edges[i - 1]
                     : g.HasEdge(edges[i].u, edges[i].v);
  };

  Graph g(num_vertices);
  // Count, reserve, append: no neighbor list reallocates. Only the
  // HasEdge path over-reserves (for duplicates it skips later).
  std::vector<uint32_t> degree(num_vertices, 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    AVT_CHECK_MSG(e.u < num_vertices && e.v < num_vertices,
                  "edge endpoint out of range");
    if (e.u == e.v || (canonical && duplicate(g, i))) continue;
    ++degree[e.u];
    ++degree[e.v];
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.adjacency_[v].reserve(degree[v]);
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u == e.v || duplicate(g, i)) continue;
    g.adjacency_[e.u].push_back(e.v);
    g.adjacency_[e.v].push_back(e.u);
    ++g.num_edges_;
  }
  return g;
}

StatusOr<Graph> Graph::FromAdjacency(
    std::vector<std::vector<VertexId>> adjacency) {
  const size_t n = adjacency.size();
  // Every undirected edge must appear exactly once in each endpoint's
  // list. Count (min,max) keys from both sides: balanced counts plus
  // no per-list duplicates imply exact symmetry.
  std::unordered_map<uint64_t, int32_t> balance;
  uint64_t entries = 0;
  for (size_t u = 0; u < n; ++u) {
    for (VertexId v : adjacency[u]) {
      if (v >= n) {
        return Status::Corruption("adjacency references vertex " +
                                  std::to_string(v) + " outside universe " +
                                  std::to_string(n));
      }
      if (v == static_cast<VertexId>(u)) {
        return Status::Corruption("adjacency contains self-loop at vertex " +
                                  std::to_string(u));
      }
      const uint64_t lo = std::min<uint64_t>(u, v);
      const uint64_t hi = std::max<uint64_t>(u, v);
      balance[(lo << 32) | hi] += (u < v) ? 1 : -1;
      ++entries;
    }
  }
  for (const auto& [key, count] : balance) {
    if (count != 0) {
      return Status::Corruption(
          "asymmetric adjacency: edge (" + std::to_string(key >> 32) + ", " +
          std::to_string(key & 0xFFFFFFFFull) +
          ") present on one side only");
    }
  }
  if (entries != 2 * balance.size()) {
    return Status::Corruption("duplicate entries in adjacency lists");
  }
  Graph g;
  g.adjacency_ = std::move(adjacency);
  g.num_edges_ = balance.size();
  return g;
}

bool Graph::AddEdge(VertexId u, VertexId v) {
  // Active in release builds: mutation endpoints arrive from deltas and
  // files, and an out-of-range id must fail loudly here (callers that
  // stream a growing universe call EnsureVertex first), never index out
  // of bounds. Two compares per edge mutation is noise next to the list
  // operations below.
  AVT_CHECK_MSG(u < NumVertices() && v < NumVertices(),
                "AddEdge endpoint out of range (grow with EnsureVertex)");
  if (u == v) return false;
  if (HasEdge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::RemoveEdge(VertexId u, VertexId v) {
  AVT_CHECK_MSG(u < NumVertices() && v < NumVertices(),
                "RemoveEdge endpoint out of range (grow with EnsureVertex)");
  if (u == v) return false;
  auto erase_one = [this](VertexId from, VertexId target) {
    auto& list = adjacency_[from];
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i] == target) {
        list[i] = list.back();
        list.pop_back();
        return true;
      }
    }
    return false;
  };
  if (!erase_one(u, v)) return false;
  AVT_CHECK(erase_one(v, u));
  --num_edges_;
  return true;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  AVT_DCHECK(u < NumVertices() && v < NumVertices());
  // Scan the shorter list.
  const auto& a = adjacency_[u].size() <= adjacency_[v].size()
                      ? adjacency_[u]
                      : adjacency_[v];
  VertexId target = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), target) != a.end();
}

std::vector<Edge> Graph::CollectEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (VertexId v : adjacency_[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (const auto& list : adjacency_) {
    best = std::max(best, static_cast<uint32_t>(list.size()));
  }
  return best;
}

size_t Graph::MemoryFootprint() const {
  size_t bytes = adjacency_.capacity() * sizeof(adjacency_[0]);
  for (const std::vector<VertexId>& list : adjacency_) {
    bytes += list.capacity() * sizeof(VertexId);
  }
  return bytes;
}

}  // namespace avt

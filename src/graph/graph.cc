#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace avt {

Graph Graph::FromEdges(VertexId num_vertices, const std::vector<Edge>& edges) {
  Graph g(num_vertices);
  // Degree-counting reserve pass: size every neighbor list up front so
  // the insertion loop never reallocates. Duplicates (skipped below)
  // only make the counts a slight over-reserve.
  std::vector<uint32_t> degree(num_vertices, 0);
  for (const Edge& e : edges) {
    AVT_CHECK_MSG(e.u < num_vertices && e.v < num_vertices,
                  "edge endpoint out of range");
    if (e.u == e.v) continue;
    ++degree[e.u];
    ++degree[e.v];
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.adjacency_[v].reserve(degree[v]);
  }
  for (const Edge& e : edges) {
    g.AddEdge(e.u, e.v);
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

CsrView Graph::BuildCsr() const {
  CsrView csr;
  BuildCsr(&csr);
  return csr;
}

void Graph::BuildCsr(CsrView* out) const {
  const VertexId n = NumVertices();
  out->offsets_.resize(static_cast<size_t>(n) + 1);
  out->offsets_[0] = 0;
  for (VertexId u = 0; u < n; ++u) {
    out->offsets_[u + 1] = out->offsets_[u] + adjacency_[u].size();
  }
  out->targets_.resize(out->offsets_[n]);
  for (VertexId u = 0; u < n; ++u) {
    std::copy(adjacency_[u].begin(), adjacency_[u].end(),
              out->targets_.begin() +
                  static_cast<ptrdiff_t>(out->offsets_[u]));
  }
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

// Unit tests for the dynamic graph substrate.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "graph/delta.h"
#include "graph/snapshots.h"
#include "maint/maintainer.h"
#include "util/random.h"

namespace avt {
namespace {

TEST(Graph, EmptyConstruction) {
  Graph g(10);
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  EXPECT_FALSE(g.AddEdge(1, 1));
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.RemoveEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(Graph, AddVertexGrowsUniverse) {
  Graph g(2);
  VertexId v = g.AddVertex();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_TRUE(g.AddEdge(0, v));
}

TEST(Graph, EnsureVertexGrowsOnDemand) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.EnsureVertex(2);  // already valid: no-op
  EXPECT_EQ(g.NumVertices(), 3u);
  g.EnsureVertex(7);  // grows to hold id 7, new vertices isolated
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_EQ(g.Degree(7), 0u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.AddEdge(2, 7));
  g.EnsureVertex(0);  // never shrinks
  EXPECT_EQ(g.NumVertices(), 8u);
}

TEST(GraphDeathTest, OutOfRangeMutationFailsLoudly) {
  // A delta referencing an unseen vertex must be caught at the source
  // boundary (AvtEngine) or grown via EnsureVertex first; reaching
  // AddEdge/RemoveEdge with an out-of-range id is a loud error in every
  // build type, not silent out-of-bounds indexing.
  Graph g(3);
  EXPECT_DEATH(g.AddEdge(0, 5), "EnsureVertex");
  EXPECT_DEATH(g.RemoveEdge(0, 5), "EnsureVertex");
}

TEST(Graph, CollectEdgesNormalizedAndSorted) {
  Graph g(4);
  g.AddEdge(3, 1);
  g.AddEdge(2, 0);
  g.AddEdge(1, 0);
  std::vector<Edge> edges = g.CollectEdges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], Edge(0, 1));
  EXPECT_EQ(edges[1], Edge(0, 2));
  EXPECT_EQ(edges[2], Edge(1, 3));
}

TEST(Graph, FromEdgesSkipsJunk) {
  std::vector<Edge> edges{Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(1, 2)};
  Graph g = Graph::FromEdges(3, edges);
  EXPECT_EQ(g.NumEdges(), 2u);
}

// Per-edge AddEdge over `edges` in order: the reference FromEdges must
// reproduce, neighbor order included.
Graph AddEdgesInOrder(VertexId n, const std::vector<Edge>& edges) {
  Graph g(n);
  for (const Edge& e : edges) g.AddEdge(e.u, e.v);
  return g;
}

void ExpectSameLists(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices());
  EXPECT_EQ(got.NumEdges(), want.NumEdges());
  for (VertexId v = 0; v < want.NumVertices(); ++v) {
    const std::span<const VertexId> a = got.Neighbors(v);
    const std::span<const VertexId> b = want.Neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << "vertex " << v;
  }
}

TEST(Graph, FromEdgesMatchesAddEdgeOrderOnCanonicalAndUnsortedLists) {
  Rng rng(11);
  const VertexId n = 60;
  std::vector<Edge> canonical;
  for (int i = 0; i < 400; ++i) {
    canonical.emplace_back(static_cast<VertexId>(rng.Uniform(n)),
                           static_cast<VertexId>(rng.Uniform(n)));
  }
  std::sort(canonical.begin(), canonical.end());  // self-loops and twins
  ExpectSameLists(Graph::FromEdges(n, canonical),
                  AddEdgesInOrder(n, canonical));

  // Unsorted, with far-apart duplicates and both orientations of a pair
  // (fields assigned directly, so not normalized): the HasEdge path.
  std::vector<Edge> unsorted = canonical;
  for (size_t i = unsorted.size(); i > 1; --i) {
    std::swap(unsorted[i - 1], unsorted[rng.Uniform(i)]);
  }
  for (size_t i = 0; i < unsorted.size(); i += 3) {
    std::swap(unsorted[i].u, unsorted[i].v);
  }
  ExpectSameLists(Graph::FromEdges(n, unsorted),
                  AddEdgesInOrder(n, unsorted));
}

TEST(Graph, EqualityIsStructural) {
  Graph a(3), b(3);
  a.AddEdge(0, 1);
  a.AddEdge(1, 2);
  b.AddEdge(2, 1);
  b.AddEdge(1, 0);
  EXPECT_TRUE(a == b);
  b.RemoveEdge(1, 2);
  EXPECT_FALSE(a == b);
}

TEST(EdgeDelta, ApplyAndInverseRoundTrip) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  Graph original = g;

  EdgeDelta delta;
  delta.insertions.push_back(Edge(2, 3));
  delta.insertions.push_back(Edge(3, 4));
  delta.deletions.push_back(Edge(0, 1));
  delta.Apply(g);
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 1));

  delta.Inverse().Apply(g);
  EXPECT_TRUE(g == original);
}

TEST(EdgeDelta, ApplyOrderPinned) {
  // The application order is observable when an edge sits in both
  // batches. Default (insert_first = true, the paper's ⊕ E+ then ⊖ E-):
  // the edge is inserted, then deleted — final graph lacks it.
  EdgeDelta delta;
  delta.insertions.push_back(Edge(0, 1));
  delta.deletions.push_back(Edge(0, 1));
  {
    Graph g(2);
    delta.Apply(g);
    EXPECT_FALSE(g.HasEdge(0, 1)) << "insert-first must end absent";
    EXPECT_EQ(g.NumEdges(), 0u);
  }
  // Deletions-first: the deletion no-ops (edge absent), then the
  // insertion lands — final graph has it.
  {
    Graph g(2);
    delta.Apply(g, /*insert_first=*/false);
    EXPECT_TRUE(g.HasEdge(0, 1)) << "delete-first must end present";
    EXPECT_EQ(g.NumEdges(), 1u);
  }
  // And the default matches what CoreMaintainer::ApplyDelta does, so
  // sequence replay and incremental maintenance see the same graphs.
  {
    Graph g(2);
    CoreMaintainer maintainer;
    maintainer.Reset(g);
    maintainer.ApplyDelta(delta);
    Graph replayed(2);
    delta.Apply(replayed);
    EXPECT_TRUE(maintainer.graph() == replayed);
  }
}

TEST(EdgeDelta, DiffGraphsReconstructsTarget) {
  Graph a(4), b(4);
  a.AddEdge(0, 1);
  a.AddEdge(1, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(0, 3);
  EdgeDelta delta = DiffGraphs(a, b);
  EXPECT_EQ(delta.deletions.size(), 1u);
  EXPECT_EQ(delta.insertions.size(), 2u);
  delta.Apply(a);
  EXPECT_TRUE(a == b);
}

TEST(SnapshotSequence, MaterializeAndStream) {
  Graph g0(4);
  g0.AddEdge(0, 1);
  SnapshotSequence sequence(g0);

  EdgeDelta d1;
  d1.insertions.push_back(Edge(1, 2));
  sequence.PushDelta(d1);
  EdgeDelta d2;
  d2.insertions.push_back(Edge(2, 3));
  d2.deletions.push_back(Edge(0, 1));
  sequence.PushDelta(d2);

  EXPECT_EQ(sequence.NumSnapshots(), 3u);
  Graph g2 = sequence.Materialize(2);
  EXPECT_TRUE(g2.HasEdge(2, 3));
  EXPECT_FALSE(g2.HasEdge(0, 1));
  EXPECT_EQ(sequence.TotalChurn(), 3u);

  size_t calls = 0;
  sequence.ForEachSnapshot(
      [&](size_t t, const Graph& graph, const EdgeDelta& delta) {
        EXPECT_TRUE(graph == sequence.Materialize(t));
        if (t == 0) {
          EXPECT_TRUE(delta.Empty());
        } else {
          EXPECT_FALSE(delta.Empty());
        }
        ++calls;
      });
  EXPECT_EQ(calls, 3u);
}

}  // namespace
}  // namespace avt

// Differential and property tests for order-based core maintenance
// (paper Algorithms 4/5). Every mutation is checked against a fresh
// decomposition plus the full K-order invariant suite.

#include "maint/maintainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "corelib/invariants.h"
#include "gen/models.h"
#include "util/random.h"

namespace avt {
namespace {

void ExpectConsistent(const CoreMaintainer& maintainer,
                      const std::string& context) {
  InvariantReport report =
      CheckKOrderInvariants(maintainer.graph(), maintainer.order());
  ASSERT_TRUE(report.ok) << context << ": " << report.failure;
}

TEST(MaintainerInsert, PendantEdgeNoCascade) {
  Graph g(3);
  g.AddEdge(0, 1);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.InsertEdge(1, 2));
  EXPECT_EQ(m.CoreOf(2), 1u);
  EXPECT_EQ(m.CoreOf(0), 1u);
  ExpectConsistent(m, "pendant insert");
}

TEST(MaintainerInsert, DuplicateEdgeRejected) {
  Graph g(2);
  g.AddEdge(0, 1);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_FALSE(m.InsertEdge(0, 1));
  EXPECT_FALSE(m.InsertEdge(1, 0));
  EXPECT_EQ(m.graph().NumEdges(), 1u);
}

TEST(MaintainerInsert, ClosingTriangleRaisesCores) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.InsertEdge(0, 2));
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(m.CoreOf(v), 2u);
  ExpectConsistent(m, "triangle close");
}

TEST(MaintainerInsert, IsolatedPairPromotesToCoreOne) {
  Graph g(2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.InsertEdge(0, 1));
  EXPECT_EQ(m.CoreOf(0), 1u);
  EXPECT_EQ(m.CoreOf(1), 1u);
  ExpectConsistent(m, "isolated pair");
}

TEST(MaintainerInsert, GrowCliqueEdgeByEdge) {
  const VertexId n = 8;
  Graph g(n);
  CoreMaintainer m;
  m.Reset(g);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      ASSERT_TRUE(m.InsertEdge(u, v));
      ExpectConsistent(m, "clique growth");
    }
  }
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(m.CoreOf(v), n - 1);
}

TEST(MaintainerRemove, PendantEdge) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.RemoveEdge(1, 2));
  EXPECT_EQ(m.CoreOf(2), 0u);
  EXPECT_EQ(m.CoreOf(0), 1u);
  ExpectConsistent(m, "pendant removal");
}

TEST(MaintainerRemove, AbsentEdgeRejected) {
  Graph g(3);
  g.AddEdge(0, 1);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_FALSE(m.RemoveEdge(0, 2));
  EXPECT_FALSE(m.RemoveEdge(0, 0));
}

TEST(MaintainerRemove, BreakTriangleDropsCores) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.RemoveEdge(0, 1));
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(m.CoreOf(v), 1u);
  ExpectConsistent(m, "triangle break");
}

TEST(MaintainerRemove, ShrinkCliqueEdgeByEdge) {
  const VertexId n = 8;
  Graph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  CoreMaintainer m;
  m.Reset(g);
  std::vector<Edge> edges = g.CollectEdges();
  for (const Edge& e : edges) {
    ASSERT_TRUE(m.RemoveEdge(e.u, e.v));
    ExpectConsistent(m, "clique shrink");
  }
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(m.CoreOf(v), 0u);
}

TEST(MaintainerInsert, CascadePromotesDeepChain) {
  // Square with a diagonal missing: inserting it lifts the whole square
  // from core 2 to core... build two triangles sharing an edge, then
  // close the 4-cycle: {0,1,2,3} all reach core 3 only when dense enough.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 2);
  CoreMaintainer m;
  m.Reset(g);
  ExpectConsistent(m, "pre diagonal");
  EXPECT_TRUE(m.InsertEdge(1, 3));  // K4: everyone core 3
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(m.CoreOf(v), 3u);
  ExpectConsistent(m, "post diagonal");
}

// ---------------------------------------------------------------------
// Randomized differential sweeps: random graphs, random churn, verified
// against fresh decompositions after every single operation.
// ---------------------------------------------------------------------

struct ChurnCase {
  const char* label;
  VertexId n;
  uint64_t m;
  int model;  // 0 = ER, 1 = BA, 2 = CL, 3 = WS, 4 = SBM
};

class MaintainerChurnTest : public ::testing::TestWithParam<ChurnCase> {};

Graph MakeModelGraph(const ChurnCase& c, Rng& rng) {
  switch (c.model) {
    case 0: return ErdosRenyi(c.n, c.m, rng);
    case 1: return BarabasiAlbert(c.n, 3, rng);
    case 2: return ChungLuPowerLaw(c.n, 6.0, 2.2, 40, rng);
    case 3: return WattsStrogatz(c.n, 6, 0.2, rng);
    default: return PlantedPartition(c.n, 5, c.m, 0.8, rng);
  }
}

TEST_P(MaintainerChurnTest, RandomChurnStaysConsistent) {
  const ChurnCase& c = GetParam();
  Rng rng(0xC0FFEE ^ c.n);
  Graph g = MakeModelGraph(c, rng);
  CoreMaintainer m;
  m.Reset(g);

  for (int step = 0; step < 120; ++step) {
    bool insert = rng.Bernoulli(0.5);
    if (insert || m.graph().NumEdges() == 0) {
      VertexId u = static_cast<VertexId>(rng.Uniform(c.n));
      VertexId v = static_cast<VertexId>(rng.Uniform(c.n));
      if (u == v) continue;
      m.InsertEdge(u, v);
    } else {
      std::vector<Edge> edges = m.graph().CollectEdges();
      const Edge& e = edges[rng.Uniform(edges.size())];
      m.RemoveEdge(e.u, e.v);
    }
    InvariantReport report = CheckKOrderInvariants(m.graph(), m.order());
    ASSERT_TRUE(report.ok)
        << c.label << " step " << step << ": " << report.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, MaintainerChurnTest,
    ::testing::Values(ChurnCase{"er-sparse", 80, 160, 0},
                      ChurnCase{"er-dense", 60, 600, 0},
                      ChurnCase{"ba", 90, 0, 1},
                      ChurnCase{"chung-lu", 100, 0, 2},
                      ChurnCase{"watts-strogatz", 80, 0, 3},
                      ChurnCase{"sbm", 100, 350, 4}),
    [](const ::testing::TestParamInfo<ChurnCase>& param_info) {
      std::string label = param_info.param.label;
      for (char& ch : label) {
        if (ch == '-') ch = '_';
      }
      return label;
    });

TEST(MaintainerBatch, ApplyDeltaMatchesRebuild) {
  Rng rng(2024);
  Graph g = ChungLuPowerLaw(200, 6.0, 2.1, 50, rng);
  CoreMaintainer m;
  m.Reset(g);

  for (int round = 0; round < 10; ++round) {
    EdgeDelta delta;
    // Deletions from current edges.
    std::vector<Edge> edges = m.graph().CollectEdges();
    std::vector<uint64_t> picks =
        rng.SampleDistinct(edges.size(), std::min<size_t>(25, edges.size()));
    for (uint64_t i : picks) delta.deletions.push_back(edges[i]);
    // Insertions: random absent pairs.
    Graph shadow = m.graph();
    int added = 0;
    while (added < 25) {
      VertexId u = static_cast<VertexId>(rng.Uniform(200));
      VertexId v = static_cast<VertexId>(rng.Uniform(200));
      if (u == v) continue;
      Edge e(u, v);
      bool deleted_now = false;
      for (const Edge& d : delta.deletions) {
        if (d == e) deleted_now = true;
      }
      if (deleted_now) continue;
      if (shadow.AddEdge(u, v)) {
        delta.insertions.push_back(e);
        ++added;
      }
    }

    std::vector<VertexId> affected = m.ApplyDelta(delta);
    InvariantReport report = CheckKOrderInvariants(m.graph(), m.order());
    ASSERT_TRUE(report.ok) << "round " << round << ": " << report.failure;

    // Affected set covers every vertex whose core changed.
    // (Recompute the pre-delta cores by undoing the delta.)
    Graph before = m.graph();
    delta.Inverse().Apply(before);
    CoreDecomposition old_cores = DecomposeCores(before);
    std::vector<uint8_t> in_affected(m.graph().NumVertices(), 0);
    for (VertexId v : affected) in_affected[v] = 1;
    for (VertexId v = 0; v < m.graph().NumVertices(); ++v) {
      if (old_cores.core[v] != m.CoreOf(v)) {
        EXPECT_TRUE(in_affected[v])
            << "vertex " << v << " changed core but was not reported";
      }
    }
  }
}

TEST(MaintainerStats, CountersAdvance) {
  Graph g(4);
  CoreMaintainer m;
  m.Reset(g);
  m.InsertEdge(0, 1);
  m.InsertEdge(1, 2);
  m.InsertEdge(2, 0);
  EXPECT_EQ(m.stats().edges_inserted, 3u);
  EXPECT_GT(m.stats().promotions, 0u);
  m.RemoveEdge(0, 1);
  EXPECT_EQ(m.stats().edges_removed, 1u);
  EXPECT_GT(m.stats().demotions, 0u);
}

TEST(MaintainerStats, HubCandidateWalksItsAdjacencyOnce) {
  // Hub 0 with 200 leaves sits at core 1; a K4 on 201..204 sits at
  // core 3, after it in K-order. The hub's second edge into the K4
  // lifts deg+(0) past its core: the cascade's only candidate is the
  // hub (each leaf after it reaches deg+ + deg- = 1), which gains
  // support from the two K4 neighbors and rises to core 2.
  Graph g(205);
  for (VertexId leaf = 1; leaf <= 200; ++leaf) g.AddEdge(0, leaf);
  for (VertexId u = 201; u <= 204; ++u) {
    for (VertexId v = u + 1; v <= 204; ++v) g.AddEdge(u, v);
  }
  CoreMaintainer m;
  m.Reset(g);
  ASSERT_EQ(m.CoreOf(0), 1u);
  ASSERT_EQ(m.order().DegPlus(0), 0u);
  ASSERT_TRUE(m.InsertEdge(0, 201));
  ASSERT_EQ(m.stats().cascades, 0u);

  m.ResetStats();
  ASSERT_TRUE(m.InsertEdge(0, 202));
  EXPECT_EQ(m.stats().cascades, 1u);
  EXPECT_EQ(m.stats().promotions, 1u);
  EXPECT_EQ(m.CoreOf(0), 2u);
  // One walk of the hub's 202 entries; support, elimination and deg+
  // read what that walk recorded.
  EXPECT_EQ(m.stats().adjacency_reads, m.graph().Degree(0));
  EXPECT_GE(m.graph().Degree(0), 200u);
  ExpectConsistent(m, "hub promotion");
}

// K-order golden digest: the soak checks only that the maintained
// K-order is a valid one; this pins that it is the same one. Seeded
// hub-heavy churn (a third of the insertions touch one of the 20
// highest-degree vertices) goes through ApplyDelta, and after every
// delta FNV-1a folds the full order, then each vertex's deg+, core and
// Theorem-3 verdict byte. A cascade that picks a different, equally
// valid order (another elimination order, another front/back move)
// changes the digest.
struct GoldenCase {
  const char* label;
  int model;  // 0: BA(3000, 3); 1: Chung-Lu(3000, 6, alpha 2.0)
  uint32_t k;
  uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

class KOrderGoldenDigest : public ::testing::TestWithParam<GoldenCase> {};

uint64_t FoldWord(uint64_t hash, uint32_t word) {
  for (int byte = 0; byte < 4; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST_P(KOrderGoldenDigest, MatchesRecordedStream) {
  const GoldenCase& c = GetParam();
  constexpr VertexId kN = 3000;
  Rng rng(0x60D5EED ^ c.model);
  Graph g = c.model == 0 ? BarabasiAlbert(kN, 3, rng)
                         : ChungLuPowerLaw(kN, 6.0, 2.0, 600, rng);
  std::vector<VertexId> by_degree(kN);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&g](VertexId a, VertexId b) {
                     return g.Degree(a) > g.Degree(b);
                   });
  const std::vector<VertexId> hubs(by_degree.begin(), by_degree.begin() + 20);

  CoreMaintainer m;
  m.Reset(g, c.k);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (int step = 0; step < 40; ++step) {
    EdgeDelta delta;
    for (int i = 0; i < 90; ++i) {
      const VertexId u = i % 3 == 0 ? hubs[rng.Uniform(hubs.size())]
                                    : static_cast<VertexId>(rng.Uniform(kN));
      const VertexId v = static_cast<VertexId>(rng.Uniform(kN));
      if (u != v) delta.insertions.push_back(Edge(u, v));
    }
    const std::vector<Edge> edges = m.graph().CollectEdges();
    for (uint64_t i : rng.SampleDistinct(edges.size(), 90)) {
      delta.deletions.push_back(edges[i]);
    }
    m.ApplyDelta(delta);
    for (VertexId v : m.order().FullOrder()) digest = FoldWord(digest, v);
    for (VertexId v = 0; v < kN; ++v) {
      digest = FoldWord(digest, m.order().DegPlus(v));
      digest = FoldWord(digest, m.CoreOf(v));
      digest = FoldWord(digest, m.IsCandidate(v) ? 1u : 0u);
    }
  }
  ExpectConsistent(m, c.label);
  EXPECT_EQ(digest, c.digest)
      << c.label << ": digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    HubChurn, KOrderGoldenDigest,
    ::testing::Values(GoldenCase{"ba_k0", 0, 0, 0xf17a44c00148b177ULL},
                      GoldenCase{"ba_k3", 0, 3, 0x06899b60039bf3b7ULL},
                      GoldenCase{"ba_k5", 0, 5, 0x6015ad6ddbc77e07ULL},
                      GoldenCase{"chung_lu_k0", 1, 0, 0xae07c4cdd05a8e7aULL},
                      GoldenCase{"chung_lu_k3", 1, 3, 0x81743759bc57dcfbULL},
                      GoldenCase{"chung_lu_k5", 1, 5, 0x66a50dbb0af18052ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return std::string(param_info.param.label);
    });

}  // namespace
}  // namespace avt

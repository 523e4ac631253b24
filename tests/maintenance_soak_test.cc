// Long-horizon soak tests: the maintained K-order must stay exactly
// equivalent to a rebuilt one across hundreds of churn steps, large
// batches, adversarial patterns (hub collapse, community merge), and the
// dataset replicas' own delta streams. Every case runs once per
// neighbor-counter threshold k in {1, 2, 3, 5}, and after every edge
// operation the maintained Theorem-3 counters of every vertex outside
// the k-core must equal a recount and the maintained verdict byte
// (IsCandidate) must equal the neighbor-scan reference on every vertex.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "anchor/candidates.h"
#include "corelib/invariants.h"
#include "gen/churn.h"
#include "gen/datasets.h"
#include "gen/models.h"
#include "maint/maintainer.h"
#include "util/random.h"

namespace avt {
namespace {

void ExpectEquivalentToRebuild(const CoreMaintainer& maintainer,
                               const std::string& context) {
  InvariantReport report =
      CheckKOrderInvariants(maintainer.graph(), maintainer.order());
  ASSERT_TRUE(report.ok) << context << ": " << report.failure;
}

::testing::AssertionResult CountersMatchRecount(const CoreMaintainer& m) {
  const uint32_t k = m.counter_k();
  const Graph& g = m.graph();
  for (VertexId x = 0; x < g.NumVertices(); ++x) {
    if (m.IsCandidate(x) != IsAnchorCandidate(g, m.order(), x, k)) {
      return ::testing::AssertionFailure()
             << "vertex " << x << " candidate verdict differs from the scan";
    }
    if (m.CoreOf(x) >= k) continue;  // k-core members keep no live counts
    uint32_t shell = 0;
    uint32_t core = 0;
    for (VertexId y : g.Neighbors(x)) {
      if (m.CoreOf(y) >= k) {
        ++core;
      } else if (m.CoreOf(y) + 1 == k) {
        ++shell;
      }
    }
    if (m.ShellNeighbors(x) != shell || m.CoreNeighbors(x) != core) {
      return ::testing::AssertionFailure()
             << "vertex " << x << " counters (" << m.ShellNeighbors(x)
             << ", " << m.CoreNeighbors(x) << "), recount (" << shell
             << ", " << core << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// One soak run per counter threshold.
class MaintenanceSoak : public ::testing::TestWithParam<uint32_t> {
 protected:
  uint32_t k() const { return GetParam(); }

  bool Insert(CoreMaintainer& m, VertexId u, VertexId v) {
    const bool inserted = m.InsertEdge(u, v);
    EXPECT_TRUE(CountersMatchRecount(m))
        << "after inserting (" << u << ", " << v << ")";
    return inserted;
  }
  bool Remove(CoreMaintainer& m, VertexId u, VertexId v) {
    const bool removed = m.RemoveEdge(u, v);
    EXPECT_TRUE(CountersMatchRecount(m))
        << "after removing (" << u << ", " << v << ")";
    return removed;
  }
  /// ApplyDelta's order (insertions, then deletions), one checked edge
  /// operation at a time.
  void Apply(CoreMaintainer& m, const EdgeDelta& delta) {
    for (const Edge& e : delta.insertions) Insert(m, e.u, e.v);
    for (const Edge& e : delta.deletions) Remove(m, e.u, e.v);
  }
};

INSTANTIATE_TEST_SUITE_P(CounterK, MaintenanceSoak,
                         ::testing::Values(1u, 2u, 3u, 5u),
                         ::testing::PrintToStringParamName());

TEST_P(MaintenanceSoak, LongUniformChurn) {
  Rng rng(101);
  Graph g = ChungLuPowerLaw(300, 6.0, 2.2, 60, rng);
  CoreMaintainer m;
  m.Reset(g, k());
  for (int step = 0; step < 400; ++step) {
    // Mid-stream growth: the new vertices join with zero counters and
    // take part in the rest of the churn.
    if (step == 200) {
      m.EnsureVertices(340);
      ASSERT_TRUE(CountersMatchRecount(m)) << "after growth";
    }
    const VertexId n = m.graph().NumVertices();
    if (rng.Bernoulli(0.5) && m.graph().NumEdges() > 0) {
      std::vector<Edge> edges = m.graph().CollectEdges();
      const Edge& e = edges[rng.Uniform(edges.size())];
      Remove(m, e.u, e.v);
    } else {
      Insert(m, static_cast<VertexId>(rng.Uniform(n)),
             static_cast<VertexId>(rng.Uniform(n)));
    }
    if (step % 40 == 39) {
      ExpectEquivalentToRebuild(m, "uniform churn step " +
                                       std::to_string(step));
    }
  }
  ExpectEquivalentToRebuild(m, "uniform churn end");
  EXPECT_EQ(m.graph().NumVertices(), 340u);
}

TEST_P(MaintenanceSoak, HubCollapseAndRebirth) {
  // Remove every edge of the largest hub, then rebuild it: exercises
  // deep demotion cascades followed by deep promotions.
  Rng rng(103);
  Graph g = BarabasiAlbert(250, 4, rng);
  CoreMaintainer m;
  m.Reset(g, k());

  VertexId hub = 0;
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
  }
  std::vector<VertexId> neighbors(m.graph().Neighbors(hub).begin(),
                                  m.graph().Neighbors(hub).end());
  // A removal cascade walks each touched vertex's adjacency once: the
  // endpoints at the lower core, then the level neighbors of each
  // dropped vertex. A drop across the k-2 | k-1 | k boundary adds one
  // re-class walk per dropped vertex, and a drop out of the k-core one
  // counter recount.
  uint64_t expected_reads = 0;
  for (VertexId w : neighbors) {
    std::vector<uint32_t> before(m.graph().NumVertices());
    for (VertexId x = 0; x < before.size(); ++x) before[x] = m.CoreOf(x);
    const uint32_t level = std::min(before[hub], before[w]);
    ASSERT_TRUE(Remove(m, hub, w));
    if (level == 0) continue;
    const Graph& after = m.graph();
    std::vector<uint8_t> touched(before.size(), 0);
    for (VertexId s : {hub, w}) touched[s] = before[s] == level;
    const uint64_t walks_per_drop =
        (level == k()) + (level == k() || level + 1 == k());
    for (VertexId d = 0; d < before.size(); ++d) {
      if (m.CoreOf(d) == before[d]) continue;
      expected_reads += walks_per_drop * after.Degree(d);
      for (VertexId x : after.Neighbors(d)) touched[x] |= before[x] == level;
    }
    for (VertexId x = 0; x < before.size(); ++x) {
      if (touched[x]) expected_reads += after.Degree(x);
    }
  }
  ExpectEquivalentToRebuild(m, "hub collapsed");
  EXPECT_EQ(m.CoreOf(hub), 0u);
  EXPECT_GT(m.stats().demotions, 0u);
  EXPECT_EQ(m.stats().adjacency_reads, expected_reads);
  for (VertexId w : neighbors) {
    ASSERT_TRUE(Insert(m, hub, w));
  }
  ExpectEquivalentToRebuild(m, "hub rebuilt");
}

TEST_P(MaintenanceSoak, CommunityMergeAndSplit) {
  // Two dense blocks joined then cut by a thick bridge.
  Rng rng(107);
  Graph g(120);
  for (VertexId u = 0; u < 60; ++u) {
    for (int j = 0; j < 5; ++j) {
      g.AddEdge(u, static_cast<VertexId>(rng.Uniform(60)));
    }
  }
  for (VertexId u = 60; u < 120; ++u) {
    for (int j = 0; j < 5; ++j) {
      g.AddEdge(u, 60 + static_cast<VertexId>(rng.Uniform(60)));
    }
  }
  CoreMaintainer m;
  m.Reset(g, k());

  std::vector<Edge> bridge;
  for (int j = 0; j < 40; ++j) {
    VertexId u = static_cast<VertexId>(rng.Uniform(60));
    VertexId v = 60 + static_cast<VertexId>(rng.Uniform(60));
    if (Insert(m, u, v)) bridge.push_back(Edge(u, v));
  }
  ExpectEquivalentToRebuild(m, "merged");
  for (const Edge& e : bridge) {
    ASSERT_TRUE(Remove(m, e.u, e.v));
  }
  ExpectEquivalentToRebuild(m, "split");
}

TEST_P(MaintenanceSoak, LargeBatchDeltas) {
  Rng rng(109);
  Graph g = ErdosRenyi(400, 1600, rng);
  CoreMaintainer m;
  m.Reset(g, k());
  ChurnOptions options;
  options.num_snapshots = 6;
  options.min_churn = 200;  // paper-scale batches
  options.max_churn = 250;
  SnapshotSequence sequence = MakeChurnSnapshots(g, options, rng);
  for (const EdgeDelta& delta : sequence.deltas()) {
    Apply(m, delta);
    ExpectEquivalentToRebuild(m, "large batch");
  }
  EXPECT_TRUE(m.graph() ==
              sequence.Materialize(sequence.NumSnapshots() - 1));
}

TEST_P(MaintenanceSoak, DatasetReplicaDeltaStreams) {
  for (const char* name : {"eu-core", "CollegeMsg"}) {
    const DatasetInfo& info = DatasetByName(name);
    SnapshotSequence sequence = MakeDatasetSnapshots(info, 0.25, 8, 55);
    CoreMaintainer m;
    m.Reset(sequence.initial(), k());
    for (const EdgeDelta& delta : sequence.deltas()) {
      Apply(m, delta);
    }
    ExpectEquivalentToRebuild(m, name);
    EXPECT_TRUE(m.graph() ==
                sequence.Materialize(sequence.NumSnapshots() - 1))
        << name;
  }
}

TEST_P(MaintenanceSoak, EmptyToDenseToEmpty) {
  const VertexId n = 60;
  CoreMaintainer m;
  m.Reset(Graph(n), k());
  Rng rng(113);
  std::vector<Edge> inserted;
  for (int i = 0; i < 600; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u != v && Insert(m, u, v)) inserted.push_back(Edge(u, v));
  }
  ExpectEquivalentToRebuild(m, "densified");
  rng.Shuffle(inserted);
  for (const Edge& e : inserted) {
    ASSERT_TRUE(Remove(m, e.u, e.v));
  }
  ExpectEquivalentToRebuild(m, "emptied");
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(m.CoreOf(v), 0u);
}

// Growth followed by churn on the new ids. At k = 1 a fresh isolated
// vertex sits at level k-1 with deg+ = 0, so its verdict is decided by
// the deg+ branch: the first edge to it raises an endpoint's deg+ and
// the promotion that follows must clear the byte again.
TEST_P(MaintenanceSoak, GrowthThenChurnOnNewIds) {
  Rng rng(127);
  Graph g = ChungLuPowerLaw(120, 5.0, 2.2, 30, rng);
  CoreMaintainer m;
  m.Reset(g, k());
  const VertexId old_n = g.NumVertices();
  const VertexId n = old_n + 60;
  m.EnsureVertices(n);
  ASSERT_TRUE(CountersMatchRecount(m)) << "after growth";
  auto fresh_id = [&] {
    return static_cast<VertexId>(old_n + rng.Uniform(n - old_n));
  };
  std::vector<Edge> inserted;
  for (int i = 0; i < 300; ++i) {
    const VertexId u = fresh_id();
    const VertexId v = rng.Bernoulli(0.5)
                           ? fresh_id()
                           : static_cast<VertexId>(rng.Uniform(n));
    if (u != v && Insert(m, u, v)) inserted.push_back(Edge(u, v));
    if (i % 3 == 2 && !inserted.empty()) {
      const size_t j = rng.Uniform(inserted.size());
      ASSERT_TRUE(Remove(m, inserted[j].u, inserted[j].v));
      inserted[j] = inserted.back();
      inserted.pop_back();
    }
  }
  ExpectEquivalentToRebuild(m, "churn on grown ids");
  rng.Shuffle(inserted);
  for (const Edge& e : inserted) ASSERT_TRUE(Remove(m, e.u, e.v));
  ExpectEquivalentToRebuild(m, "grown ids emptied");
  for (VertexId v = old_n; v < n; ++v) EXPECT_EQ(m.CoreOf(v), 0u);
}

// Deterministic worst-case-ish pattern: a long path repeatedly closed
// into a cycle and reopened, shifting core numbers between 1 and 2
// across the whole component.
TEST_P(MaintenanceSoak, PathCycleFlapping) {
  const VertexId n = 200;
  Graph g(n);
  for (VertexId v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  CoreMaintainer m;
  m.Reset(g, k());
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(Insert(m, n - 1, 0));  // close the cycle: all core 2
    EXPECT_EQ(m.CoreOf(n / 2), 2u);
    ExpectEquivalentToRebuild(m, "cycle closed");
    ASSERT_TRUE(Remove(m, n - 1, 0));  // reopen: all core 1
    EXPECT_EQ(m.CoreOf(n / 2), 1u);
    ExpectEquivalentToRebuild(m, "cycle opened");
  }
  EXPECT_GE(m.stats().promotions, 20u * n / 2);
}

// Reset(g, 0) keeps neither counters nor verdict bytes, also after a
// Reset that kept them, and IsCandidate is false for every vertex
// through churn and growth, where every verdict refresh must be a
// no-op on the empty byte array.
TEST(MaintenanceSoakWithoutCounters, ResetToZeroHoldsNoVerdicts) {
  Rng rng(131);
  const Graph g = ChungLuPowerLaw(300, 6.0, 2.2, 60, rng);
  const size_t n = g.NumVertices();
  CoreMaintainer fresh;
  fresh.Reset(g, 0);
  CoreMaintainer m;
  m.Reset(g, 3);
  // 8-byte counter record + 1 verdict byte per vertex.
  EXPECT_EQ(m.MemoryFootprint() - fresh.MemoryFootprint(), n * 9);
  EXPECT_FALSE(m.CollectCandidates().empty());
  m.Reset(g, 0);
  EXPECT_EQ(m.counter_k(), 0u);
  EXPECT_EQ(m.MemoryFootprint(), fresh.MemoryFootprint());
  EXPECT_TRUE(m.CollectCandidates().empty());
  m.EnsureVertices(static_cast<VertexId>(n + 40));
  for (int step = 0; step < 300; ++step) {
    const VertexId size = m.graph().NumVertices();
    const VertexId u = static_cast<VertexId>(rng.Uniform(size));
    const VertexId v = static_cast<VertexId>(rng.Uniform(size));
    if (rng.Bernoulli(0.5)) {
      m.InsertEdge(u, v);
    } else {
      m.RemoveEdge(u, v);
    }
    for (VertexId x = 0; x < size; ++x) {
      ASSERT_FALSE(m.IsCandidate(x)) << "vertex " << x << " step " << step;
    }
  }
  EXPECT_TRUE(m.CollectCandidates().empty());
}

}  // namespace
}  // namespace avt

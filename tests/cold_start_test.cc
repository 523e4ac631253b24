// Cold start over shared state: IncAvtTracker::ProcessFirst solves G_0
// greedily over the maintainer's K-order and the tracker's own oracle
// instead of building a second CSR, K-order and oracle. These tests pin
// that the shared path is invisible in outputs — anchors, followers and
// work counters equal a standalone GreedySolver::Solve under both
// strategies, and a repeated ProcessFirst (the rollback rebuild)
// reproduces the first — and that the memory it saves stays saved:
// oracle scratch sized by the cascade (bits, not records, per vertex),
// one oracle per tracker whatever num_threads says, and a maintainer
// that holds one adjacency (no mirror), one packed cascade-scratch
// record and one affected bit per vertex.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anchor/candidates.h"
#include "anchor/follower_oracle.h"
#include "anchor/greedy.h"
#include "core/inc_avt.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "util/random.h"

namespace avt {
namespace {

struct Case {
  const char* name;
  Graph graph;
  uint32_t k;
  uint32_t l;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  Rng power_rng(91);
  cases.push_back({"power-law", ChungLuPowerLaw(2000, 8.0, 2.2, 120,
                                                power_rng),
                   5, 4});
  Rng er_rng(92);
  cases.push_back({"erdos-renyi", ErdosRenyi(1500, 3300, er_rng), 3, 4});
  return cases;
}

IncAvtOptions TrackerOptions(bool lazy) {
  IncAvtOptions options;
  options.lazy = lazy;
  return options;
}

void ExpectSameSnapshot(const AvtSnapshotResult& a,
                        const AvtSnapshotResult& b, const std::string& what) {
  EXPECT_EQ(a.anchors, b.anchors) << what;
  EXPECT_EQ(a.num_followers, b.num_followers) << what;
  EXPECT_EQ(a.candidates_visited, b.candidates_visited) << what;
  EXPECT_EQ(a.bound_probes, b.bound_probes) << what;
}

TEST(ColdStart, ProcessFirstEqualsStandaloneGreedy) {
  for (const Case& c : Cases()) {
    Rng churn_rng(93);
    Graph working = c.graph;
    ChurnOptions churn;
    churn.min_churn = 20;
    churn.max_churn = 40;
    const EdgeDelta delta = NextChurnDelta(working, churn, churn_rng);
    for (bool lazy : {true, false}) {
      GreedyOptions greedy_options;
      greedy_options.lazy = lazy;
      const SolverResult standalone =
          GreedySolver(greedy_options).Solve(c.graph, c.k, c.l);
      ASSERT_FALSE(standalone.anchors.empty()) << c.name;
      const std::string what =
          std::string(c.name) + " lazy=" + std::to_string(lazy);
      IncAvtTracker tracker(c.k, c.l, IncAvtMode::kRestricted,
                            TrackerOptions(lazy));
      const AvtSnapshotResult first = tracker.ProcessFirst(c.graph);
      // The greedy pool read off the neighbor counters is the
      // neighbor-scan pool: the O(1) verdict agrees on all n vertices.
      const CoreMaintainer& m = tracker.maintainer();
      EXPECT_EQ(m.CollectCandidates(),
                CollectAnchorCandidates(m.graph(), m.order(), c.k))
          << what;
      EXPECT_EQ(first.anchors, standalone.anchors) << what;
      EXPECT_EQ(first.num_followers, standalone.num_followers()) << what;
      EXPECT_EQ(first.candidates_visited, standalone.candidates_visited)
          << what;
      EXPECT_EQ(first.bound_probes, standalone.bound_probes) << what;

      // Rollback rebuild: the same tracker, its state moved on by a
      // delta, re-initialized from G_0 — and the replayed delta must
      // land where the first replay landed.
      const AvtSnapshotResult next = tracker.ProcessDelta(delta);
      ExpectSameSnapshot(tracker.ProcessFirst(c.graph), first,
                         what + " (second ProcessFirst)");
      ExpectSameSnapshot(tracker.ProcessDelta(delta), next,
                         what + " (replayed delta)");
    }
  }

  // Absolute pins of the standalone solve. The checks above are
  // relative (Solve ≡ ProcessFirst, lazy ≡ scan), so a change that moves
  // both sides together passes them; these values do not move with it.
  struct Pin {
    const char* name;
    bool prune;
    bool lazy;
    std::vector<VertexId> anchors;
    uint32_t followers;
    uint64_t candidates_visited;
    uint64_t bound_probes;
    uint64_t cascade_visited;
  };
  const std::vector<VertexId> power_law_anchors = {70, 1231, 256, 512};
  const std::vector<VertexId> erdos_renyi_anchors = {521, 392, 718, 420};
  const Pin pins[] = {
      {"power-law", true, true, power_law_anchors, 10, 4, 618, 827},
      {"power-law", true, false, power_law_anchors, 10, 618, 0, 3991},
      {"power-law", false, true, power_law_anchors, 10, 4, 4906, 1886},
      {"power-law", false, false, power_law_anchors, 10, 4906, 0, 27550},
      {"erdos-renyi", true, true, erdos_renyi_anchors, 27, 4, 454, 811},
      {"erdos-renyi", true, false, erdos_renyi_anchors, 27, 454, 0, 7166},
      {"erdos-renyi", false, true, erdos_renyi_anchors, 27, 4, 1426, 827},
      {"erdos-renyi", false, false, erdos_renyi_anchors, 27, 1426, 0,
       21264},
  };
  const std::vector<Case> cases = Cases();
  for (const Pin& pin : pins) {
    const Case* c = nullptr;
    for (const Case& candidate : cases) {
      if (std::string(candidate.name) == pin.name) c = &candidate;
    }
    ASSERT_NE(c, nullptr) << pin.name;
    GreedyOptions options;
    options.prune_candidates = pin.prune;
    options.lazy = pin.lazy;
    const SolverResult r = GreedySolver(options).Solve(c->graph, c->k, c->l);
    const std::string what = std::string(pin.name) +
                             " prune=" + std::to_string(pin.prune) +
                             " lazy=" + std::to_string(pin.lazy);
    EXPECT_EQ(r.anchors, pin.anchors) << what;
    EXPECT_EQ(r.num_followers(), pin.followers) << what;
    EXPECT_EQ(r.candidates_visited, pin.candidates_visited) << what;
    EXPECT_EQ(r.bound_probes, pin.bound_probes) << what;
    EXPECT_EQ(r.cascade_visited, pin.cascade_visited) << what;
  }
}

TEST(ColdStart, OracleScratchIsPackedPerVertex) {
  // The per-vertex cost is the slope between two universe sizes; the
  // reserved hot vectors are the same constant at both.
  constexpr VertexId kN = 50'000;
  Graph small(kN);
  Graph large(2 * kN);
  KOrder small_order;
  KOrder large_order;
  small_order.Build(small);
  large_order.Build(large);
  const FollowerOracle small_oracle(&small, &small_order);
  const FollowerOracle large_oracle(&large, &large_order);
  const size_t per_vertex =
      (large_oracle.MemoryFootprint() - small_oracle.MemoryFootprint()) / kN;
  EXPECT_LE(per_vertex, 56u);
}

TEST(ColdStart, OracleScratchIsSizedByTheCascade) {
  // Each bundle's per-vertex cost is one membership bit; its records
  // live in a table sized by the cascades run, so the slope between two
  // universe sizes is at most 1 byte per vertex (3 bits today).
  constexpr VertexId kN = 50'000;
  Graph small(kN);
  Graph large(2 * kN);
  KOrder small_order;
  KOrder large_order;
  small_order.Build(small);
  large_order.Build(large);
  const FollowerOracle small_oracle(&small, &small_order);
  const FollowerOracle large_oracle(&large, &large_order);
  EXPECT_LE(large_oracle.MemoryFootprint() - small_oracle.MemoryFootprint(),
            size_t{1} * kN);
}

TEST(ColdStart, TrackerHoldsOneOracle) {
  Rng rng(94);
  const Graph g0 = ChungLuPowerLaw(20'000, 8.0, 2.2, 200, rng);
  KOrder order;
  order.Build(g0);
  const size_t one_oracle = FollowerOracle(&g0, &order).MemoryFootprint();
  IncAvtTracker tracker(5, 4);
  tracker.ProcessFirst(g0);
  ASSERT_NE(tracker.oracle(), nullptr);
  // The greedy solve ran on this same oracle: its footprint is one
  // oracle plus at most one more oracle's worth of grown hot vectors — a
  // second oracle would double it.
  const size_t footprint = tracker.oracle()->MemoryFootprint();
  EXPECT_GE(footprint, one_oracle);
  EXPECT_LT(footprint, 2 * one_oracle);
  EXPECT_GT(tracker.maintainer().MemoryFootprint(),
            tracker.maintainer().order().MemoryFootprint());
}

TEST(ColdStart, OneOracleWhateverNumThreads) {
  // num_threads is inert: a tracker asked for two threads holds the
  // same single oracle, and reaches the same anchors, as one asked for
  // one.
  Rng rng(97);
  const Graph g0 = ChungLuPowerLaw(20'000, 8.0, 2.2, 200, rng);
  IncAvtOptions two_threads;
  two_threads.num_threads = 2;
  IncAvtTracker one(5, 4);
  IncAvtTracker two(5, 4, IncAvtMode::kRestricted, two_threads);
  const AvtSnapshotResult a = one.ProcessFirst(g0);
  const AvtSnapshotResult b = two.ProcessFirst(g0);
  ASSERT_FALSE(a.anchors.empty());
  EXPECT_EQ(b.anchors, a.anchors);
  EXPECT_EQ(b.num_followers, a.num_followers);
  EXPECT_EQ(two.oracle()->MemoryFootprint(), one.oracle()->MemoryFootprint());
}

TEST(ColdStart, MaintainerHoldsOneAdjacency) {
  // The cold-1m shape at 1/50 scale: Chung-Lu, average degree 10,
  // exponent 2.2, maximum degree n/20. The maintainer holds the graph,
  // the K-order, the 8-byte neighbor counters, the 1-byte Theorem-3
  // verdict and its cascade scratch (one 16-byte record + the 8-byte
  // affected mark) and nothing else (121 B/vertex); a second copy of
  // the adjacency would add ~68 B/vertex here, seven separate scratch
  // arrays 40.
  constexpr VertexId kN = 20'000;
  Rng rng(96);
  const Graph g0 = ChungLuPowerLaw(kN, 10.0, 2.2, kN / 20, rng);
  IncAvtTracker tracker(5, 4);
  tracker.ProcessFirst(g0);
  const size_t per_vertex = tracker.maintainer().MemoryFootprint() / kN;
  EXPECT_LE(per_vertex, 128u);
}

TEST(ColdStart, MaintainerAffectedMarkIsABit) {
  // The cold-1m shape of MaintainerHoldsOneAdjacency. The affected mark
  // is one bit per vertex (it was an 8-byte epoch slot), so the whole
  // maintainer fits in 114 B/vertex.
  constexpr VertexId kN = 20'000;
  Rng rng(96);
  const Graph g0 = ChungLuPowerLaw(kN, 10.0, 2.2, kN / 20, rng);
  IncAvtTracker tracker(5, 4);
  tracker.ProcessFirst(g0);
  EXPECT_LE(tracker.maintainer().MemoryFootprint(), size_t{114} * kN);
}

}  // namespace
}  // namespace avt

// Differential tests: the order-based follower oracle must agree exactly
// with the pinned-peel ground truth on every graph model and anchor set.

#include "anchor/follower_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/trial_engine.h"
#include "corelib/korder.h"
#include "gen/models.h"
#include "util/random.h"

namespace avt {
namespace {

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FollowerOracle, EmptyAnchorsNoFollowers) {
  Graph g(4);
  g.AddEdge(0, 1);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  EXPECT_EQ(oracle.CountFollowers({}, 2), 0u);
}

TEST(FollowerOracle, ChainCascade) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> anchors{5};
  std::vector<VertexId> followers;
  EXPECT_EQ(oracle.CountFollowers(anchors, 2, &followers), 2u);
  EXPECT_EQ(Sorted(followers), (std::vector<VertexId>{3, 4}));
}

TEST(FollowerOracle, AnchorInsideKCoreIsNeutral) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> anchors{0};  // core 2 at k=2: already in C_2
  EXPECT_EQ(oracle.CountFollowers(anchors, 2),
            CountFollowersExact(g, 2, anchors));
}

TEST(FollowerOracle, DuplicateAnchorsDoNotDoubleCount) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> once{4};
  std::vector<VertexId> twice{4, 4};
  EXPECT_EQ(oracle.CountFollowers(once, 2),
            oracle.CountFollowers(twice, 2));
}

TEST(FollowerOracle, MultiAnchorSynergyBelowShell) {
  // Same topology as the anchored_core test: follower of plain core 1.
  Graph g(8);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 7);
  g.AddEdge(1, 2);
  g.AddEdge(1, 7);
  g.AddEdge(2, 7);
  g.AddEdge(3, 4);
  g.AddEdge(3, 5);
  g.AddEdge(3, 0);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> anchors{4, 5};
  std::vector<VertexId> followers;
  EXPECT_EQ(oracle.CountFollowers(anchors, 3, &followers), 1u);
  EXPECT_EQ(followers, (std::vector<VertexId>{3}));
}

// ---------------------------------------------------------------------
// Randomized differential sweep over models, k, and anchor-set sizes.
// ---------------------------------------------------------------------

struct OracleCase {
  const char* label;
  int model;
  VertexId n;
  uint32_t k;
  uint32_t anchor_count;
};

class FollowerOracleDiffTest : public ::testing::TestWithParam<OracleCase> {
};

Graph MakeOracleGraph(const OracleCase& c, Rng& rng) {
  switch (c.model) {
    case 0: return ErdosRenyi(c.n, static_cast<uint64_t>(c.n) * 3, rng);
    case 1: return BarabasiAlbert(c.n, 3, rng);
    case 2: return ChungLuPowerLaw(c.n, 7.0, 2.1, 50, rng);
    case 3: return WattsStrogatz(c.n, 6, 0.3, rng);
    default: return PlantedPartition(c.n, 6, static_cast<uint64_t>(c.n) * 4,
                                     0.85, rng);
  }
}

TEST_P(FollowerOracleDiffTest, MatchesExactPeel) {
  const OracleCase& c = GetParam();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 977 + c.model);
    Graph g = MakeOracleGraph(c, rng);
    KOrder order;
    order.Build(g);
    FollowerOracle oracle(&g, &order);

    // Anchor sets biased toward useful candidates plus random extras.
    std::vector<VertexId> pool = CollectAnchorCandidates(g, order, c.k);
    std::vector<VertexId> anchors;
    for (uint32_t i = 0; i < c.anchor_count; ++i) {
      if (!pool.empty() && rng.Bernoulli(0.7)) {
        anchors.push_back(pool[rng.Uniform(pool.size())]);
      } else {
        anchors.push_back(static_cast<VertexId>(rng.Uniform(c.n)));
      }
    }

    std::vector<VertexId> fast;
    uint32_t fast_count = oracle.CountFollowers(anchors, c.k, &fast);
    AnchoredCoreResult exact = ComputeAnchoredKCore(g, c.k, anchors);
    EXPECT_EQ(fast_count, exact.followers.size())
        << c.label << " seed " << seed;
    EXPECT_EQ(Sorted(fast), Sorted(exact.followers))
        << c.label << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FollowerOracleDiffTest,
    ::testing::Values(OracleCase{"er_k3_a1", 0, 120, 3, 1},
                      OracleCase{"er_k3_a4", 0, 120, 3, 4},
                      OracleCase{"er_k5_a8", 0, 150, 5, 8},
                      OracleCase{"ba_k3_a2", 1, 120, 3, 2},
                      OracleCase{"ba_k4_a6", 1, 150, 4, 6},
                      OracleCase{"cl_k3_a3", 2, 140, 3, 3},
                      OracleCase{"cl_k6_a5", 2, 140, 6, 5},
                      OracleCase{"ws_k3_a4", 3, 120, 3, 4},
                      OracleCase{"ws_k4_a2", 3, 120, 4, 2},
                      OracleCase{"sbm_k4_a5", 4, 150, 4, 5},
                      OracleCase{"sbm_k2_a3", 4, 100, 2, 3}),
    [](const ::testing::TestParamInfo<OracleCase>& param_info) {
      return std::string(param_info.param.label);
    });

// The oracle must be repeatable and side-effect free: evaluating many
// different sets then re-evaluating the first gives identical answers.
TEST(FollowerOracle, NonDestructiveAcrossQueries) {
  Rng rng(555);
  Graph g = ChungLuPowerLaw(200, 6.0, 2.2, 40, rng);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> pool = CollectAnchorCandidates(g, order, 3);
  if (pool.size() < 4) GTEST_SKIP() << "degenerate sample";

  std::vector<VertexId> first{pool[0], pool[1]};
  uint32_t reference = oracle.CountFollowers(first, 3);
  for (size_t i = 0; i + 1 < std::min<size_t>(pool.size(), 40); ++i) {
    std::vector<VertexId> probe{pool[i], pool[i + 1]};
    oracle.CountFollowers(probe, 3);
  }
  EXPECT_EQ(oracle.CountFollowers(first, 3), reference);
}

TEST(FollowerOracle, StatsAccumulate) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> anchors{4};
  oracle.CountFollowers(anchors, 2);
  EXPECT_EQ(oracle.stats().queries, 1u);
  EXPECT_GT(oracle.stats().visited, 0u);
  oracle.UpperBound(anchors, kNoVertex, 2);
  EXPECT_EQ(oracle.stats().bound_queries, 1u);
}

TEST(FollowerOracle, UpperBoundCertifiesEveryTrialSet) {
  // The phase-1 count must dominate the exact follower count for the
  // same inputs — this is the soundness the lazy pick loops rest on.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(7100 + seed);
    Graph g = ChungLuPowerLaw(150, 6.0, 2.2, 40, rng);
    KOrder order;
    order.Build(g);
    FollowerOracle oracle(&g, &order);
    for (uint32_t k : {2u, 3u, 4u}) {
      std::vector<VertexId> pool = CollectAnchorCandidates(g, order, k);
      std::vector<VertexId> anchors;
      for (size_t i = 0; i < pool.size() && anchors.size() < 3; i += 3) {
        anchors.push_back(pool[i]);
      }
      for (VertexId x : pool) {
        uint32_t bound = oracle.UpperBound(anchors, x, k);
        uint32_t exact = oracle.CountFollowers(anchors, x, k);
        EXPECT_GE(bound, exact) << "seed " << seed << " k=" << k
                                << " extra=" << x;
      }
    }
  }
}

TEST(FollowerOracle, MarginalProbeEqualsUpperBound) {
  // A marginal continuation of the resident base cascade must land on
  // exactly the full phase-1 count of the trial set, for every
  // candidate — including candidates that are already base followers,
  // base anchors, or disconnected from the base region.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(7300 + seed);
    Graph g = ChungLuPowerLaw(150, 6.0, 2.2, 40, rng);
    KOrder order;
    order.Build(g);
    FollowerOracle oracle(&g, &order);
    for (uint32_t k : {2u, 3u}) {
      std::vector<VertexId> pool = CollectAnchorCandidates(g, order, k);
      std::vector<VertexId> anchors;
      for (size_t i = 0; i < pool.size() && anchors.size() < 4; i += 2) {
        anchors.push_back(pool[i]);
      }
      oracle.BuildBase(anchors, k);
      for (VertexId x = 0; x < g.NumVertices(); ++x) {
        if (order.CoreOf(x) >= k) continue;
        uint32_t marginal = oracle.MarginalUpperBound(x);
        uint32_t reference = oracle.UpperBound(anchors, x, k);
        EXPECT_EQ(marginal, reference)
            << "seed " << seed << " k=" << k << " x=" << x;
      }
    }
  }
}

TEST(FollowerOracle, SwapReferenceGivesEverySlotBound) {
  // One probe against the swap reference of S must equal the marginal
  // probe against each slot base S∖{S[i]} wherever it reads no dirty
  // vertex — for every slot and every non-core x, including reference
  // candidates (the -1 delta), anchors, and sets holding a k-core
  // member. Handed to EvaluateTrials, the reference's bounds must pick
  // the slot's winner at the same cost as probing every candidate,
  // gated on the incumbent or not. The run must see clean and dirty
  // probes both, and slots that resolve a winner, or the check proves
  // nothing.
  uint64_t resolved[2] = {0, 0};  // [gate]: slots that found a winner
  uint64_t clean = 0;
  uint64_t dirty = 0;
  uint64_t reference_candidates = 0;
  uint64_t sets_with_core_member = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    for (int model : {0, 1}) {
      Rng rng(7900 + 2 * seed + model);
      Graph g = model == 0 ? ChungLuPowerLaw(200, 6.0, 2.2, 40, rng)
                           : ErdosRenyi(200, 700, rng);
      KOrder order;
      order.Build(g);
      FollowerOracle oracle(&g, &order);
      const VertexId n = g.NumVertices();
      for (uint32_t k : {2u, 3u, 4u}) {
        std::vector<VertexId> pool = CollectAnchorCandidates(g, order, k);
        if (pool.size() < 6) continue;
        VertexId core_member = kNoVertex;
        for (VertexId v = 0; v < n && core_member == kNoVertex; ++v) {
          if (order.CoreOf(v) >= k) core_member = v;
        }
        for (size_t size = 2; size <= 6; ++size) {
          std::vector<VertexId> anchors;
          for (size_t j = 0; j < size; ++j) {
            anchors.push_back(pool[(seed + j * pool.size() / size) %
                                   pool.size()]);
          }
          if (size % 2 == 0 && core_member != kNoVertex) {
            anchors[1] = core_member;
            ++sets_with_core_member;
          }
          // Odd sizes skip slot 0, as the tracker does after a commit.
          const size_t first_slot = size % 2;
          std::vector<uint32_t> slot_counts;
          oracle.BuildSwapReference(anchors, k, first_slot, &slot_counts);
          ASSERT_EQ(slot_counts.size(), anchors.size());
          std::vector<int32_t> deltas(n, 0);
          for (VertexId x = 0; x < n; ++x) {
            if (order.CoreOf(x) < k) deltas[x] = oracle.SwapMarginal(x);
          }
          // The tracker's live set: non-core vertices outside S, with
          // their reference bounds aligned.
          std::vector<VertexId> live;
          std::vector<int32_t> marginals;
          for (VertexId x = 0; x < n; ++x) {
            if (order.CoreOf(x) >= k ||
                std::find(anchors.begin(), anchors.end(), x) !=
                    anchors.end()) {
              continue;
            }
            live.push_back(x);
            marginals.push_back(deltas[x]);
          }
          const uint32_t incumbent = oracle.CountFollowers(anchors, k);
          for (size_t i = first_slot; i < anchors.size(); ++i) {
            std::vector<VertexId> slot_base = anchors;
            slot_base.erase(slot_base.begin() + static_cast<ptrdiff_t>(i));
            EXPECT_EQ(slot_counts[i],
                      oracle.UpperBound(slot_base, kNoVertex, k));
            oracle.BuildBase(slot_base, k);
            for (VertexId x = 0; x < n; ++x) {
              if (order.CoreOf(x) >= k) continue;
              if (deltas[x] == FollowerOracle::kDirtyMarginal) {
                ++dirty;
                continue;
              }
              ++clean;
              if (deltas[x] == -1) ++reference_candidates;
              EXPECT_EQ(static_cast<int64_t>(slot_counts[i]) + deltas[x],
                        oracle.MarginalUpperBound(x))
                  << "seed " << seed << " model " << model << " k=" << k
                  << " |S|=" << size << " slot " << i << " x=" << x;
            }
            for (bool gate : {false, true}) {
              TrialPolicy policy;
              policy.gate = gate;
              policy.floor = incumbent;
              const TrialOutcome given = EvaluateTrials(
                  oracle, live, slot_base, k, policy,
                  TrialBounds{slot_counts[i], marginals});
              const TrialOutcome probed =
                  EvaluateTrials(oracle, live, slot_base, k, policy);
              const std::string what =
                  "seed " + std::to_string(seed) + " model " +
                  std::to_string(model) + " k=" + std::to_string(k) +
                  " |S|=" + std::to_string(size) + " slot " +
                  std::to_string(i) + (gate ? " gated" : " ungated");
              EXPECT_EQ(given.vertex, probed.vertex) << what;
              EXPECT_EQ(given.followers, probed.followers) << what;
              EXPECT_EQ(given.full_queries, probed.full_queries) << what;
              EXPECT_EQ(given.bound_probes, probed.bound_probes) << what;
              if (given.vertex != kNoVertex) ++resolved[gate];
            }
          }
        }
      }
    }
  }
  EXPECT_GT(resolved[false], 0u);
  EXPECT_GT(resolved[true], 0u);
  EXPECT_GT(clean, 0u);
  EXPECT_GT(dirty, 0u);
  EXPECT_GT(reference_candidates, 0u);
  EXPECT_GT(sets_with_core_member, 0u);
}

TEST(FollowerOracle, BaseSurvivesFullQueries) {
  // Full CountFollowers queries use disjoint scratch: marginal probes
  // issued after them must still see the resident base.
  Rng rng(7500);
  Graph g = ChungLuPowerLaw(300, 8.0, 2.2, 60, rng);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> pool = CollectAnchorCandidates(g, order, 3);
  if (pool.size() < 6) GTEST_SKIP() << "degenerate sample";
  std::vector<VertexId> anchors{pool[0], pool[2]};
  oracle.BuildBase(anchors, 3);
  uint32_t before = oracle.MarginalUpperBound(pool[4]);
  std::vector<VertexId> other{pool[1], pool[3], pool[5]};
  oracle.CountFollowers(other, 3);
  EXPECT_EQ(oracle.MarginalUpperBound(pool[4]), before);
}

TEST(FollowerOracle, CascadeBeyondInitialScratchCapacityMatchesPeel) {
  // The scratch tables start small and rehash as a cascade grows, moving
  // live records mid-cascade. A path anchored at both ends makes every
  // inner vertex a follower at k = 2 — one cascade thousands of records
  // long — and a power-law graph gives wide multi-anchor cascades; both
  // must equal the dense exact peel, and the marginal probes over that
  // base must equal the full bound.
  constexpr VertexId kPath = 3000;
  Graph path(kPath);
  for (VertexId v = 0; v + 1 < kPath; ++v) path.AddEdge(v, v + 1);
  KOrder path_order;
  path_order.Build(path);
  FollowerOracle path_oracle(&path, &path_order);
  const std::vector<VertexId> ends{0, kPath - 1};
  std::vector<VertexId> followers;
  EXPECT_EQ(path_oracle.CountFollowers(ends, 2, &followers), kPath - 2);
  EXPECT_EQ(Sorted(followers),
            Sorted(ComputeAnchoredKCore(path, 2, ends).followers));
  const std::vector<VertexId> one_end{0};
  path_oracle.BuildBase(one_end, 2);
  EXPECT_EQ(path_oracle.MarginalUpperBound(kPath - 1),
            path_oracle.UpperBound(one_end, kPath - 1, 2));

  Rng rng(8100);
  Graph g = ChungLuPowerLaw(4000, 6.0, 2.1, 400, rng);
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  const uint32_t k = 4;
  std::vector<VertexId> pool = CollectAnchorCandidates(g, order, k);
  ASSERT_GE(pool.size(), 40u);
  std::vector<VertexId> anchors(pool.begin(), pool.begin() + 30);
  EXPECT_EQ(oracle.CountFollowers(anchors, k, &followers),
            ComputeAnchoredKCore(g, k, anchors).followers.size());
  EXPECT_EQ(Sorted(followers),
            Sorted(ComputeAnchoredKCore(g, k, anchors).followers));
  EXPECT_GT(followers.size(), 16u);  // outgrew the initial table
  oracle.BuildBase(anchors, k);
  for (size_t i = 30; i < pool.size(); ++i) {
    ASSERT_EQ(oracle.MarginalUpperBound(pool[i]),
              oracle.UpperBound(anchors, pool[i], k))
        << pool[i];
  }
}

}  // namespace
}  // namespace avt

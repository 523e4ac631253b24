// Integration tests for AVT tracking: static trackers vs IncAVT over
// churn and temporal workloads; accounting, consistency, and the
// incremental candidate-restriction behavior the paper measures.

#include <gtest/gtest.h>

#include "anchor/anchored_core.h"
#include "core/avt.h"
#include "core/inc_avt.h"
#include "core/run_summary.h"
#include "corelib/invariants.h"
#include "gen/churn.h"
#include "gen/datasets.h"
#include "gen/models.h"
#include "gen/temporal.h"
#include "util/random.h"

namespace avt {
namespace {

SnapshotSequence SmallChurnWorkload(uint64_t seed, size_t T = 6) {
  Rng rng(seed);
  Graph initial = ChungLuPowerLaw(250, 6.0, 2.2, 50, rng);
  ChurnOptions options;
  options.num_snapshots = T;
  options.min_churn = 20;
  options.max_churn = 50;
  return MakeChurnSnapshots(initial, options, rng);
}

void ExpectRunIsValid(const AvtRunResult& run,
                      const SnapshotSequence& sequence) {
  ASSERT_EQ(run.snapshots.size(), sequence.NumSnapshots());
  for (size_t t = 0; t < run.snapshots.size(); ++t) {
    const AvtSnapshotResult& snap = run.snapshots[t];
    EXPECT_EQ(snap.t, t);
    EXPECT_LE(snap.anchors.size(), run.l);
    Graph g = sequence.Materialize(t);
    // Reported followers must be exact for the reported anchors.
    EXPECT_EQ(snap.num_followers,
              CountFollowersExact(g, run.k, snap.anchors))
        << AvtAlgorithmName(run.algorithm) << " t=" << t;
    // Anchored-core accounting: members of C_k(S) = kcore + outside
    // anchors + followers.
    AnchoredCoreResult exact =
        ComputeAnchoredKCore(g, run.k, snap.anchors);
    EXPECT_EQ(snap.anchored_core_size, exact.members.size())
        << AvtAlgorithmName(run.algorithm) << " t=" << t;
  }
}

TEST(AvtTracking, GreedyRunIsValid) {
  SnapshotSequence sequence = SmallChurnWorkload(1);
  AvtRunResult run = RunAvt(sequence, AvtAlgorithm::kGreedy, 3, 5);
  ExpectRunIsValid(run, sequence);
}

TEST(AvtTracking, OlakRunIsValid) {
  SnapshotSequence sequence = SmallChurnWorkload(2, 4);
  AvtRunResult run = RunAvt(sequence, AvtAlgorithm::kOlak, 3, 3);
  ExpectRunIsValid(run, sequence);
}

TEST(AvtTracking, RcmRunIsValid) {
  SnapshotSequence sequence = SmallChurnWorkload(3, 4);
  AvtRunResult run = RunAvt(sequence, AvtAlgorithm::kRcm, 3, 3);
  ExpectRunIsValid(run, sequence);
}

TEST(AvtTracking, IncAvtRunIsValid) {
  SnapshotSequence sequence = SmallChurnWorkload(4);
  AvtRunResult run = RunAvt(sequence, AvtAlgorithm::kIncAvt, 3, 5);
  ExpectRunIsValid(run, sequence);
}

TEST(AvtTracking, IncAvtMaintainedIndexStaysConsistent) {
  SnapshotSequence sequence = SmallChurnWorkload(5, 8);
  IncAvtTracker tracker(3, 4);
  sequence.ForEachSnapshot(
      [&](size_t t, const Graph& graph, const EdgeDelta& delta) {
        if (t == 0) {
          tracker.ProcessFirst(graph);
        } else {
          tracker.ProcessDelta(delta);
        }
        InvariantReport report = CheckKOrderInvariants(
            tracker.maintainer().graph(), tracker.maintainer().order());
        ASSERT_TRUE(report.ok) << "t=" << t << ": " << report.failure;
        EXPECT_TRUE(tracker.maintainer().graph() == graph) << "t=" << t;
      });
}

TEST(AvtTracking, IncAvtAtKOneSkipsThePoolWalk) {
  // At k = 1 no vertex passes Theorem 3 (a vertex outside the 1-core is
  // isolated), so no delta walks the impacted region for a pool.
  SnapshotSequence sequence = SmallChurnWorkload(9, 8);
  IncAvtOptions eager_options;
  eager_options.lazy = false;
  IncAvtTracker lazy(1, 3);
  IncAvtTracker eager(1, 3, IncAvtMode::kRestricted, eager_options);
  sequence.ForEachSnapshot(
      [&](size_t t, const Graph& graph, const EdgeDelta& delta) {
        const AvtSnapshotResult a =
            t == 0 ? lazy.ProcessFirst(graph) : lazy.ProcessDelta(delta);
        const AvtSnapshotResult b =
            t == 0 ? eager.ProcessFirst(graph) : eager.ProcessDelta(delta);
        EXPECT_EQ(a.anchors, b.anchors) << "t=" << t;
        EXPECT_EQ(a.num_followers, b.num_followers) << "t=" << t;
        if (t == 0) return;
        EXPECT_GT(delta.insertions.size() + delta.deletions.size(), 0u);
        EXPECT_EQ(a.pool_walked, 0u) << "t=" << t;
        EXPECT_EQ(a.pool_size, 0u) << "t=" << t;
        EXPECT_EQ(b.pool_walked, 0u) << "t=" << t;
        EXPECT_EQ(b.pool_size, 0u) << "t=" << t;
      });
}

TEST(AvtTracking, IncAvtVisitsFewerCandidatesThanGreedy) {
  SnapshotSequence sequence = SmallChurnWorkload(6, 8);
  AvtRunResult greedy = RunAvt(sequence, AvtAlgorithm::kGreedy, 3, 5);
  AvtRunResult inc = RunAvt(sequence, AvtAlgorithm::kIncAvt, 3, 5);
  // Skip t=0 (IncAVT runs Greedy there); from t>=1 the incremental
  // restriction must dominate (this is Figure 4/6/8's headline claim).
  uint64_t greedy_later = 0, inc_later = 0;
  for (size_t t = 1; t < sequence.NumSnapshots(); ++t) {
    greedy_later += greedy.snapshots[t].candidates_visited;
    inc_later += inc.snapshots[t].candidates_visited;
  }
  EXPECT_LT(inc_later, greedy_later);
}

TEST(AvtTracking, IncAvtQualityTracksGreedy) {
  // The paper's effectiveness plots (Figs 9-11) show all algorithms find
  // nearly the same number of followers; require IncAVT to stay within
  // half of Greedy's per-run total.
  SnapshotSequence sequence = SmallChurnWorkload(7, 8);
  AvtRunResult greedy = RunAvt(sequence, AvtAlgorithm::kGreedy, 3, 5);
  AvtRunResult inc = RunAvt(sequence, AvtAlgorithm::kIncAvt, 3, 5);
  EXPECT_GE(2 * SummarizeRun(inc).total_followers,
            SummarizeRun(greedy).total_followers);
}

TEST(AvtTracking, TemporalWorkloadAllAlgorithms) {
  Rng rng(8);
  TemporalGenOptions options;
  options.num_vertices = 200;
  options.num_events = 10000;
  options.num_days = 120;
  TemporalEventLog log = GenCommunityEmailEvents(options, 8, 0.85, rng);
  SnapshotSequence sequence = WindowSnapshots(log, 5, 30);
  for (AvtAlgorithm algorithm :
       {AvtAlgorithm::kGreedy, AvtAlgorithm::kIncAvt, AvtAlgorithm::kRcm}) {
    AvtRunResult run = RunAvt(sequence, algorithm, 3, 4);
    ExpectRunIsValid(run, sequence);
  }
}

TEST(AvtTracking, AggregatesAreSums) {
  SnapshotSequence sequence = SmallChurnWorkload(9, 4);
  AvtRunResult run = RunAvt(sequence, AvtAlgorithm::kGreedy, 3, 3);
  double millis = 0;
  uint64_t followers = 0, visited = 0;
  for (const auto& snap : run.snapshots) {
    millis += snap.millis;
    followers += snap.num_followers;
    visited += snap.candidates_visited;
  }
  const RunSummary summary = SummarizeRun(run);
  EXPECT_DOUBLE_EQ(summary.total_millis, millis);
  EXPECT_EQ(summary.total_followers, followers);
  EXPECT_EQ(summary.total_candidates, visited);
}

TEST(AvtTracking, AlgorithmNamesStable) {
  EXPECT_STREQ(AvtAlgorithmName(AvtAlgorithm::kGreedy), "Greedy");
  EXPECT_STREQ(AvtAlgorithmName(AvtAlgorithm::kOlak), "OLAK");
  EXPECT_STREQ(AvtAlgorithmName(AvtAlgorithm::kRcm), "RCM");
  EXPECT_STREQ(AvtAlgorithmName(AvtAlgorithm::kIncAvt), "IncAVT");
  EXPECT_STREQ(AvtAlgorithmName(AvtAlgorithm::kBruteForce), "Brute-force");
}

TEST(AvtTracking, MakeTrackerCoversAllAlgorithms) {
  for (AvtAlgorithm algorithm :
       {AvtAlgorithm::kGreedy, AvtAlgorithm::kOlak, AvtAlgorithm::kRcm,
        AvtAlgorithm::kIncAvt, AvtAlgorithm::kBruteForce}) {
    auto tracker = MakeTracker(algorithm, 3, 2);
    ASSERT_NE(tracker, nullptr);
    EXPECT_FALSE(tracker->name().empty());
  }
}

TEST(AvtTracking, DatasetReplicaEndToEnd) {
  // Tiny eu-core replica end to end through IncAVT: the full paper
  // pipeline (generator -> windows -> tracker).
  const DatasetInfo& eu = DatasetByName("eu-core");
  SnapshotSequence sequence = MakeDatasetSnapshots(eu, 0.3, 5, 13);
  AvtRunResult run = RunAvt(sequence, AvtAlgorithm::kIncAvt, 3, 3);
  ExpectRunIsValid(run, sequence);
}

}  // namespace
}  // namespace avt

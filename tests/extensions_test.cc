// Tests for the extension features: coreness history, extended graph
// metrics, ASCII charts, greedy execution strategies, and IncAVT
// ablation modes.

#include <gtest/gtest.h>

#include "anchor/greedy.h"
#include "core/inc_avt.h"
#include "core/run_summary.h"
#include "corelib/coreness_history.h"
#include "corelib/graph_stats.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "util/ascii_chart.h"
#include "util/random.h"

namespace avt {
namespace {

SnapshotSequence SmallWorkload(uint64_t seed, size_t T = 6) {
  Rng rng(seed);
  Graph initial = ChungLuPowerLaw(250, 6.0, 2.2, 50, rng);
  ChurnOptions options;
  options.num_snapshots = T;
  options.min_churn = 20;
  options.max_churn = 40;
  return MakeChurnSnapshots(initial, options, rng);
}

// --- CorenessHistory -------------------------------------------------

TEST(CorenessHistory, MatchesPerSnapshotDecomposition) {
  SnapshotSequence sequence = SmallWorkload(1, 4);
  CorenessHistory history = CorenessHistory::Compute(sequence);
  ASSERT_EQ(history.NumSnapshots(), 4u);
  for (size_t t = 0; t < 4; ++t) {
    CoreDecomposition cores = DecomposeCores(sequence.Materialize(t));
    for (VertexId v = 0; v < history.NumVertices(); ++v) {
      ASSERT_EQ(history.CoreAt(v, t), cores.core[v])
          << "t=" << t << " v=" << v;
    }
  }
}

TEST(CorenessHistory, TransitionAccounting) {
  SnapshotSequence sequence = SmallWorkload(2, 5);
  CorenessHistory history = CorenessHistory::Compute(sequence);
  for (size_t t = 1; t < history.NumSnapshots(); ++t) {
    TransitionStats stats = history.Transition(t);
    EXPECT_EQ(stats.unchanged + stats.raised + stats.lowered,
              history.NumVertices());
    EXPECT_LE(stats.ChangedFraction(), 1.0);
  }
}

TEST(CorenessHistory, ChurnWorkloadsAreSmooth) {
  // The paper's premise: snapshot evolution is smooth. Random churn of
  // ~30 edges per step on a 750-edge graph (an aggressive 4% per step)
  // still keeps the large majority of core numbers unchanged.
  SnapshotSequence sequence = SmallWorkload(3, 8);
  CorenessHistory history = CorenessHistory::Compute(sequence);
  EXPECT_GT(history.Smoothness(), 0.7);
}

TEST(CorenessHistory, EverOnShellCoversShellMembers) {
  SnapshotSequence sequence = SmallWorkload(4, 4);
  CorenessHistory history = CorenessHistory::Compute(sequence);
  std::vector<VertexId> shell = history.EverOnShell(3);
  // Every vertex with core exactly 2 at t=0 must be included.
  CoreDecomposition cores = DecomposeCores(sequence.initial());
  for (VertexId v = 0; v < history.NumVertices(); ++v) {
    if (cores.core[v] == 2) {
      EXPECT_TRUE(std::find(shell.begin(), shell.end(), v) != shell.end())
          << "vertex " << v;
    }
  }
}

// --- Extended metrics ------------------------------------------------

TEST(ExtendedStats, ClusteringOfTriangleIsOne) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
}

TEST(ExtendedStats, ClusteringOfStarIsZero) {
  Graph g(5);
  for (VertexId v = 1; v < 5; ++v) g.AddEdge(0, v);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

TEST(ExtendedStats, ClusteringBounded) {
  Rng rng(5);
  Graph g = WattsStrogatz(200, 6, 0.1, rng);
  double c = GlobalClusteringCoefficient(g);
  EXPECT_GT(c, 0.2);  // small-world graphs cluster strongly
  EXPECT_LE(c, 1.0);
}

TEST(ExtendedStats, AssortativityOfRegularGraphIsZero) {
  Rng rng(7);
  Graph ring = WattsStrogatz(100, 4, 0.0, rng);  // 4-regular ring
  EXPECT_DOUBLE_EQ(DegreeAssortativity(ring), 0.0);
}

TEST(ExtendedStats, StarIsDisassortative) {
  Graph g(8);
  for (VertexId v = 1; v < 8; ++v) g.AddEdge(0, v);
  EXPECT_LT(DegreeAssortativity(g), -0.99);
}

// --- ASCII charts ----------------------------------------------------

TEST(AsciiChart, RendersSeriesAndLegend) {
  std::vector<std::string> x{"1", "2", "3", "4"};
  std::vector<ChartSeries> series{{"up", {1, 10, 100, 1000}},
                                  {"down", {1000, 100, 10, 1}}};
  ChartOptions options;
  options.x_label = "step";
  std::string chart = RenderAsciiChart(x, series, options);
  EXPECT_NE(chart.find("* = up"), std::string::npos);
  EXPECT_NE(chart.find("o = down"), std::string::npos);
  EXPECT_NE(chart.find("(step)"), std::string::npos);
  EXPECT_NE(chart.find('|'), std::string::npos);
}

TEST(AsciiChart, HandlesZerosOnLogScale) {
  std::vector<std::string> x{"1", "2", "3"};
  std::vector<ChartSeries> series{{"s", {0, 5, 50}}};
  ChartOptions options;
  std::string chart = RenderAsciiChart(x, series, options);
  EXPECT_FALSE(chart.empty());
  EXPECT_NE(chart.find("* = s"), std::string::npos);
}

TEST(AsciiChart, EmptyInputsAreSafe) {
  ChartOptions options;
  EXPECT_EQ(RenderAsciiChart({}, {}, options), "(empty chart)\n");
  std::vector<ChartSeries> no_values{{"s", {}}};
  EXPECT_EQ(RenderAsciiChart({"1"}, no_values, options),
            "(empty chart)\n");
}

TEST(AsciiChart, ConstantSeriesDoesNotDivideByZero) {
  std::vector<std::string> x{"1", "2"};
  std::vector<ChartSeries> series{{"flat", {7, 7}}};
  ChartOptions options;
  options.log_scale = false;
  std::string chart = RenderAsciiChart(x, series, options);
  EXPECT_FALSE(chart.empty());
}

// --- Greedy execution strategies --------------------------------------

TEST(GreedyVariants, LazyIsExactAndCheaper) {
  // The certified-bound lazy loop (the default) must reproduce the
  // exhaustive scan exactly — anchors, followers, everything — while
  // issuing far fewer full oracle queries. (The exhaustive sweep lives
  // in tests/lazy_greedy_test.cc; this is the smoke check.)
  Rng rng(17);
  Graph g = ChungLuPowerLaw(200, 6.0, 2.2, 40, rng);
  GreedyOptions scan_options;
  scan_options.lazy = false;
  GreedySolver scan(scan_options);
  GreedySolver lazy;
  SolverResult a = scan.Solve(g, 3, 5);
  SolverResult b = lazy.Solve(g, 3, 5);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.followers, b.followers);
  EXPECT_LE(b.candidates_visited, a.candidates_visited);
  // The scan never issues bound probes; the lazy loop pays for its
  // savings with them.
  EXPECT_EQ(a.bound_probes, 0u);
  EXPECT_GT(b.bound_probes, 0u);
}

TEST(GreedyVariants, NamesDistinguishVariants) {
  GreedyOptions scan;
  scan.lazy = false;
  EXPECT_EQ(GreedySolver().name(), "Greedy");
  EXPECT_EQ(GreedySolver(false).name(), "Greedy-nopruning");
  EXPECT_EQ(GreedySolver(scan).name(), "Greedy-scan");
}

// --- IncAVT ablation modes --------------------------------------------

AvtRunResult RunMode(const SnapshotSequence& sequence, IncAvtMode mode) {
  AvtRunResult run;
  run.algorithm = AvtAlgorithm::kIncAvt;
  run.k = 3;
  run.l = 5;
  IncAvtTracker tracker(3, 5, mode);
  sequence.ForEachSnapshot(
      [&](size_t t, const Graph& graph, const EdgeDelta& delta) {
        run.snapshots.push_back(t == 0
                                    ? tracker.ProcessFirst(graph)
                                    : tracker.ProcessDelta(delta));
      });
  return run;
}

TEST(IncAvtModes, CarryForwardVisitsNothingAfterT0) {
  SnapshotSequence sequence = SmallWorkload(19, 6);
  AvtRunResult run = RunMode(sequence, IncAvtMode::kCarryForward);
  for (size_t t = 1; t < run.snapshots.size(); ++t) {
    EXPECT_EQ(run.snapshots[t].candidates_visited, 0u) << "t=" << t;
  }
}

TEST(IncAvtModes, RestrictionOnlyShrinksThePool) {
  SnapshotSequence sequence = SmallWorkload(23, 6);
  AvtRunResult restricted = RunMode(sequence, IncAvtMode::kRestricted);
  AvtRunResult full = RunMode(sequence, IncAvtMode::kMaintainedFull);
  uint64_t restricted_later = 0, full_later = 0;
  for (size_t t = 1; t < sequence.NumSnapshots(); ++t) {
    restricted_later += restricted.snapshots[t].candidates_visited;
    full_later += full.snapshots[t].candidates_visited;
  }
  EXPECT_LT(restricted_later, full_later);
}

TEST(IncAvtModes, QualityOrderIsSane) {
  // Full pool >= restricted >= carry-forward in total followers
  // (allowing small noise: local search is not monotone per-snapshot).
  SnapshotSequence sequence = SmallWorkload(29, 8);
  uint64_t full = SummarizeRun(RunMode(sequence, IncAvtMode::kMaintainedFull))
                      .total_followers;
  uint64_t restricted =
      SummarizeRun(RunMode(sequence, IncAvtMode::kRestricted))
          .total_followers;
  uint64_t carry = SummarizeRun(RunMode(sequence, IncAvtMode::kCarryForward))
                       .total_followers;
  EXPECT_GE(full + 5, restricted);
  EXPECT_GE(restricted + 5, carry);
}

}  // namespace
}  // namespace avt

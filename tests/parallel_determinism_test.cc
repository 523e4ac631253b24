// Determinism battery for the parallel trial engine.
//
// The engine's contract (anchor/trial_engine.h) is that GreedySolver and
// IncAvtTracker produce bit-identical anchors and follower sets at EVERY
// thread count, in both the lazy (certified-bound) and eager execution
// modes. These tests enforce it the hard way: random Chung-Lu graphs and
// seeded churn schedules, comparing full anchor *vectors* (order
// included) and follower sets — not just counts — for threads ∈
// {1, 2, 3, 8}. Thread counts above the live-candidate count exercise
// empty shards; 3 exercises uneven block splits. CI additionally injects
// a matrix thread count via AVT_TEST_THREADS.
//
// Since PR 6 the contract also covers the WORK COUNTERS: full queries
// and bound probes are pure functions of the candidate pool, never of
// the thread count (the old per-shard engine resolved one winner per
// shard, so oracle_queries scaled with threads — BENCH_PR3's recorded
// regression). These tests pin counter invariance too.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "anchor/greedy.h"
#include "core/inc_avt.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "graph/snapshots.h"
#include "util/random.h"

namespace avt {
namespace {

std::vector<uint32_t> TestThreadCounts() {
  std::vector<uint32_t> counts{1, 2, 3, 8};
  if (const char* env = std::getenv("AVT_TEST_THREADS")) {
    int extra = std::atoi(env);
    if (extra > 0) {
      uint32_t value = static_cast<uint32_t>(extra);
      bool present = false;
      for (uint32_t c : counts) present |= (c == value);
      if (!present) counts.push_back(value);
    }
  }
  return counts;
}

GreedyOptions MakeGreedyOptions(bool lazy, uint32_t threads) {
  GreedyOptions options;
  options.lazy = lazy;
  options.num_threads = threads;
  return options;
}

TEST(ParallelGreedy, BitIdenticalAcrossThreadCounts) {
  const std::vector<uint32_t> counts = TestThreadCounts();
  struct Config {
    uint32_t k;
    uint32_t l;
  };
  const Config configs[2] = {{3, 4}, {4, 7}};
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (const Config& config : configs) {
      Rng rng(2000 + seed);
      Graph g = ChungLuPowerLaw(150, 6.0, 2.2, 40, rng);
      for (bool lazy : {true, false}) {
        SolverResult serial =
            GreedySolver(MakeGreedyOptions(lazy, 1)).Solve(g, config.k,
                                                           config.l);
        for (uint32_t threads : counts) {
          if (threads == 1) continue;
          SolverResult parallel =
              GreedySolver(MakeGreedyOptions(lazy, threads))
                  .Solve(g, config.k, config.l);
          EXPECT_EQ(parallel.anchors, serial.anchors)
              << "seed " << seed << " k=" << config.k << " l=" << config.l
              << " lazy=" << lazy << " threads=" << threads;
          EXPECT_EQ(parallel.followers, serial.followers)
              << "seed " << seed << " k=" << config.k << " l=" << config.l
              << " lazy=" << lazy << " threads=" << threads;
          // Work counters are thread-count-INVARIANT (the PR-3 engine
          // resolved one winner per shard, multiplying full queries by
          // the thread count — the exact BENCH_PR3 regression).
          EXPECT_EQ(parallel.candidates_visited, serial.candidates_visited)
              << "seed " << seed << " k=" << config.k << " l=" << config.l
              << " lazy=" << lazy << " threads=" << threads;
          EXPECT_EQ(parallel.bound_probes, serial.bound_probes)
              << "seed " << seed << " k=" << config.k << " l=" << config.l
              << " lazy=" << lazy << " threads=" << threads;
        }
      }
      // Cross-strategy: lazy and eager must agree at any thread count
      // (the bound-soundness half of the determinism argument).
      SolverResult lazy_serial =
          GreedySolver(MakeGreedyOptions(true, 1)).Solve(g, config.k,
                                                         config.l);
      SolverResult eager_serial =
          GreedySolver(MakeGreedyOptions(false, 1)).Solve(g, config.k,
                                                          config.l);
      EXPECT_EQ(lazy_serial.anchors, eager_serial.anchors)
          << "seed " << seed;
    }
  }
}

TEST(ParallelGreedy, ThreadCountExceedingPoolIsExact) {
  // More workers than candidates: most shards are empty, the reduction
  // must still find the unique argmax.
  Rng rng(31);
  Graph g = ErdosRenyi(60, 150, rng);
  for (bool lazy : {true, false}) {
    SolverResult serial =
        GreedySolver(MakeGreedyOptions(lazy, 1)).Solve(g, 3, 5);
    SolverResult wide =
        GreedySolver(MakeGreedyOptions(lazy, 64)).Solve(g, 3, 5);
    EXPECT_EQ(wide.anchors, serial.anchors) << "lazy=" << lazy;
    EXPECT_EQ(wide.followers, serial.followers) << "lazy=" << lazy;
  }
}

struct TrackTrace {
  std::vector<std::vector<VertexId>> anchors;
  std::vector<uint32_t> followers;
  std::vector<uint64_t> candidates;
  std::vector<uint64_t> probes;
  std::vector<uint64_t> references;  // serial oracle's swap references
};

TrackTrace RunIncAvt(const SnapshotSequence& sequence, uint32_t k,
                     uint32_t l, bool lazy, uint32_t threads) {
  IncAvtOptions options;
  options.lazy = lazy;
  options.num_threads = threads;
  IncAvtTracker tracker(k, l, IncAvtMode::kRestricted, options);
  TrackTrace trace;
  uint64_t references = 0;
  sequence.ForEachSnapshot([&](size_t t, const Graph& graph,
                               const EdgeDelta& delta) {
    AvtSnapshotResult snap = t == 0 ? tracker.ProcessFirst(graph)
                                    : tracker.ProcessDelta(delta);
    trace.anchors.push_back(snap.anchors);
    trace.followers.push_back(snap.num_followers);
    trace.candidates.push_back(snap.candidates_visited);
    trace.probes.push_back(snap.bound_probes);
    const uint64_t total =
        tracker.trial_engine()->serial_oracle().stats().swap_references;
    trace.references.push_back(total - references);
    references = total;
  });
  return trace;
}

TEST(ParallelIncAvt, BitIdenticalAcrossThreadCountsAndChurn) {
  const std::vector<uint32_t> counts = TestThreadCounts();
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(4000 + seed);
    Graph g0 = ChungLuPowerLaw(140, 6.0, 2.2, 40, rng);
    ChurnOptions churn;
    churn.num_snapshots = 6;
    churn.min_churn = 15;
    churn.max_churn = 30;
    SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
    for (bool lazy : {true, false}) {
      TrackTrace serial = RunIncAvt(sequence, 3, 4, lazy, 1);
      for (uint32_t threads : counts) {
        if (threads == 1) continue;
        TrackTrace parallel = RunIncAvt(sequence, 3, 4, lazy, threads);
        ASSERT_EQ(parallel.anchors.size(), serial.anchors.size());
        for (size_t t = 0; t < serial.anchors.size(); ++t) {
          EXPECT_EQ(parallel.anchors[t], serial.anchors[t])
              << "seed " << seed << " lazy=" << lazy << " threads="
              << threads << " t=" << t;
          EXPECT_EQ(parallel.followers[t], serial.followers[t])
              << "seed " << seed << " lazy=" << lazy << " threads="
              << threads << " t=" << t;
          // Both dispatches run the same gated bound/resolve sequence:
          // the counters match the serial loop exactly at every thread
          // count.
          EXPECT_EQ(parallel.candidates[t], serial.candidates[t])
              << "seed " << seed << " lazy=" << lazy << " threads="
              << threads << " t=" << t;
          EXPECT_EQ(parallel.probes[t], serial.probes[t])
              << "seed " << seed << " lazy=" << lazy << " threads="
              << threads << " t=" << t;
        }
      }
    }
    // Cross-strategy at a parallel thread count: the gated lazy shards
    // must settle exactly where the eager scan settles.
    TrackTrace lazy_parallel = RunIncAvt(sequence, 3, 4, true, 3);
    TrackTrace eager_parallel = RunIncAvt(sequence, 3, 4, false, 3);
    for (size_t t = 0; t < lazy_parallel.anchors.size(); ++t) {
      EXPECT_EQ(lazy_parallel.anchors[t], eager_parallel.anchors[t])
          << "seed " << seed << " t=" << t;
    }
  }
}

TEST(ParallelIncAvt, MidSwapCommitRebuildsTheSwapReference) {
  // The serial lazy search bounds every slot from one swap reference of
  // the anchor set; a commit at slot 0 of three changes that set with
  // two slots left, so the reference is rebuilt for slot 1. Streams
  // that commit there must stay identical lazy vs eager and serial vs
  // parallel (counters included), and the rebuild must really run:
  // exactly two references on such a delta, at most one otherwise.
  constexpr uint32_t kK = 3;
  constexpr uint32_t kL = 3;
  size_t rebuilds = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(4600 + seed);
    Graph g0 = ChungLuPowerLaw(300, 6.0, 2.2, 40, rng);
    ChurnOptions churn;
    churn.num_snapshots = 10;
    churn.min_churn = 25;
    churn.max_churn = 50;
    SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
    TrackTrace lazy = RunIncAvt(sequence, kK, kL, true, 1);
    TrackTrace eager = RunIncAvt(sequence, kK, kL, false, 1);
    TrackTrace parallel = RunIncAvt(sequence, kK, kL, true, 2);
    ASSERT_EQ(lazy.anchors[0].size(), kL) << "seed " << seed;
    for (size_t t = 1; t < lazy.anchors.size(); ++t) {
      const std::string what =
          "seed " + std::to_string(seed) + " t=" + std::to_string(t);
      EXPECT_EQ(eager.anchors[t], lazy.anchors[t]) << what;
      EXPECT_EQ(eager.followers[t], lazy.followers[t]) << what;
      EXPECT_EQ(parallel.anchors[t], lazy.anchors[t]) << what;
      EXPECT_EQ(parallel.followers[t], lazy.followers[t]) << what;
      EXPECT_EQ(parallel.candidates[t], lazy.candidates[t]) << what;
      EXPECT_EQ(parallel.probes[t], lazy.probes[t]) << what;
      if (lazy.anchors[t][0] != lazy.anchors[t - 1][0]) {
        EXPECT_EQ(lazy.references[t], 2u) << what;
        ++rebuilds;
      } else {
        EXPECT_LE(lazy.references[t], 1u) << what;
      }
    }
  }
  EXPECT_GT(rebuilds, 0u) << "no slot-0 commit; the rebuild never ran";
}

TEST(ParallelIncAvt, WiderPoolModeStaysDeterministic) {
  // kMaintainedFull keeps the global candidate pool — bigger live sets
  // per slot, so the sharded reduction sees real multi-shard contention.
  // The second stream's churn is gentle, so most of the pool is
  // untouched from one snapshot to the next: the regime where state
  // carried across snapshots would show up as serial-only savings.
  struct Stream {
    VertexId n;
    uint32_t min_churn;
    uint32_t max_churn;
  };
  for (const Stream& stream : {Stream{120, 10, 20}, Stream{400, 2, 4}}) {
    Rng rng(77);
    Graph g0 = ChungLuPowerLaw(stream.n, 6.0, 2.2, 40, rng);
    ChurnOptions churn;
    churn.num_snapshots = 5;
    churn.min_churn = stream.min_churn;
    churn.max_churn = stream.max_churn;
    SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
    auto run = [&](uint32_t threads) {
      IncAvtOptions options;
      options.num_threads = threads;
      IncAvtTracker tracker(3, 4, IncAvtMode::kMaintainedFull, options);
      TrackTrace trace;
      sequence.ForEachSnapshot([&](size_t t, const Graph& graph,
                                   const EdgeDelta& delta) {
        AvtSnapshotResult snap = t == 0 ? tracker.ProcessFirst(graph)
                                        : tracker.ProcessDelta(delta);
        trace.anchors.push_back(snap.anchors);
        trace.followers.push_back(snap.num_followers);
        trace.candidates.push_back(snap.candidates_visited);
        trace.probes.push_back(snap.bound_probes);
      });
      return trace;
    };
    TrackTrace serial = run(1);
    for (uint32_t threads : {2u, 8u}) {
      TrackTrace parallel = run(threads);
      for (size_t t = 0; t < serial.anchors.size(); ++t) {
        const std::string what = "n=" + std::to_string(stream.n) +
                                 " threads=" + std::to_string(threads) +
                                 " t=" + std::to_string(t);
        EXPECT_EQ(parallel.anchors[t], serial.anchors[t]) << what;
        EXPECT_EQ(parallel.followers[t], serial.followers[t]) << what;
        // No tracker keeps state between snapshots beyond the K-order
        // and the anchors, so the wider pool runs the same gated
        // bound/resolve sequence serial and parallel: counters match.
        EXPECT_EQ(parallel.candidates[t], serial.candidates[t]) << what;
        EXPECT_EQ(parallel.probes[t], serial.probes[t]) << what;
      }
    }
  }
}

}  // namespace
}  // namespace avt

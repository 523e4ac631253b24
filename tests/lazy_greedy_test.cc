// Metamorphic equivalence suite for the lazy pick loops.
//
// The lazy greedy (certified-bound CELF, greedy.h) and the lazy IncAVT
// swap loop (inc_avt.h) both claim bit-identical output to their eager
// counterparts. These tests enforce the claim the hard way: random
// Chung-Lu graphs across k, l and churn, asserting identical anchor
// *vectors* (order included) and identical follower sets — not just
// equal counts. A tie-break regression or an unsound bound shows up here
// immediately. One IncAVT case also pins both modes' work counters to
// recorded digests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anchor/greedy.h"
#include "core/inc_avt.h"
#include "util/serde.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "graph/snapshots.h"
#include "util/random.h"

namespace avt {
namespace {

GreedyOptions ScanOptions() {
  GreedyOptions options;
  options.lazy = false;
  return options;
}

TEST(LazyGreedy, MatchesScanOnRandomGraphs) {
  // ~50 random graphs: 25 seeds x {k, l} pairs chosen to exercise empty
  // pools, zero-gain picks, and budget exhaustion.
  struct Config {
    uint32_t k;
    uint32_t l;
  };
  const Config configs[2] = {{3, 4}, {4, 7}};
  for (uint64_t seed = 0; seed < 25; ++seed) {
    for (const Config& config : configs) {
      Rng rng(1000 + seed);
      Graph g = ChungLuPowerLaw(120, 6.0, 2.2, 40, rng);
      GreedySolver lazy;
      GreedySolver scan(ScanOptions());
      SolverResult a = lazy.Solve(g, config.k, config.l);
      SolverResult b = scan.Solve(g, config.k, config.l);
      EXPECT_EQ(a.anchors, b.anchors)
          << "seed " << seed << " k=" << config.k << " l=" << config.l;
      EXPECT_EQ(a.followers, b.followers)
          << "seed " << seed << " k=" << config.k << " l=" << config.l;
      // The whole point of lazy: strictly fewer full oracle queries
      // whenever the pool is non-trivial, never more.
      EXPECT_LE(a.candidates_visited, b.candidates_visited)
          << "seed " << seed;
    }
  }
}

TEST(LazyGreedy, MatchesScanAcrossSparsityExtremes) {
  // Near-empty and dense ends, where pools degenerate (all-zero gains,
  // pool smaller than budget).
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(7000 + seed);
    Graph sparse = ErdosRenyi(80, 60, rng);
    Graph dense = ErdosRenyi(60, 600, rng);
    for (const Graph* g : {&sparse, &dense}) {
      for (uint32_t k : {2u, 3u, 5u}) {
        GreedySolver lazy;
        GreedySolver scan(ScanOptions());
        SolverResult a = lazy.Solve(*g, k, 6);
        SolverResult b = scan.Solve(*g, k, 6);
        EXPECT_EQ(a.anchors, b.anchors) << "seed " << seed << " k=" << k;
        EXPECT_EQ(a.followers, b.followers)
            << "seed " << seed << " k=" << k;
      }
    }
  }
}

TEST(LazyGreedy, UnprunedPoolStillMatches) {
  // The unpruned pool adds followerless candidates whose bounds may be
  // nonzero; the lazy loop must still resolve the same argmax.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(8000 + seed);
    Graph g = ChungLuPowerLaw(100, 5.0, 2.2, 30, rng);
    GreedyOptions lazy_unpruned;
    lazy_unpruned.prune_candidates = false;
    GreedyOptions scan_unpruned = ScanOptions();
    scan_unpruned.prune_candidates = false;
    SolverResult a = GreedySolver(lazy_unpruned).Solve(g, 3, 4);
    SolverResult b = GreedySolver(scan_unpruned).Solve(g, 3, 4);
    EXPECT_EQ(a.anchors, b.anchors) << "seed " << seed;
    EXPECT_EQ(a.followers, b.followers) << "seed " << seed;
  }
}

TEST(LazyIncAvt, MatchesEagerWithFullPool) {
  // kMaintainedFull keeps the global candidate pool, so the swap
  // reference's shared bounds and the per-slot probes of its dirty
  // vertices cover many more candidates than the churn-restricted pool
  // does: a wrong dirty mark or slot count would change a commit here
  // first.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(9500 + seed);
    Graph g0 = ChungLuPowerLaw(120, 6.0, 2.2, 40, rng);
    ChurnOptions churn;
    churn.num_snapshots = 7;
    churn.min_churn = 5;
    churn.max_churn = 12;
    SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
    IncAvtOptions eager;
    eager.lazy = false;
    IncAvtTracker lazy_tracker(3, 4, IncAvtMode::kMaintainedFull);
    IncAvtTracker eager_tracker(3, 4, IncAvtMode::kMaintainedFull, eager);
    sequence.ForEachSnapshot([&](size_t t, const Graph& graph,
                                 const EdgeDelta& delta) {
      AvtSnapshotResult a = t == 0 ? lazy_tracker.ProcessFirst(graph)
                                   : lazy_tracker.ProcessDelta(delta);
      AvtSnapshotResult b = t == 0
                                ? eager_tracker.ProcessFirst(graph)
                                : eager_tracker.ProcessDelta(delta);
      EXPECT_EQ(a.anchors, b.anchors) << "seed " << seed << " t=" << t;
      EXPECT_EQ(a.num_followers, b.num_followers)
          << "seed " << seed << " t=" << t;
    });
    // The swap reference really ran, so the case is not vacuous.
    EXPECT_GT(lazy_tracker.oracle()->stats().swap_references, 0u)
        << "seed " << seed;
  }
}

TEST(LazyIncAvt, MatchesEagerAcrossChurn) {
  // Evolving sequences: the lazy swap loop (bound-gated, one shared
  // swap reference) must track the eager local search anchor-for-anchor
  // on every snapshot.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(9000 + seed);
    Graph g0 = ChungLuPowerLaw(140, 6.0, 2.2, 40, rng);
    ChurnOptions churn;
    churn.num_snapshots = 8;
    churn.min_churn = 15;
    churn.max_churn = 30;
    SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
    IncAvtOptions lazy;
    lazy.lazy = true;
    IncAvtOptions eager;
    eager.lazy = false;
    IncAvtTracker lazy_tracker(3, 4, IncAvtMode::kRestricted, lazy);
    IncAvtTracker eager_tracker(3, 4, IncAvtMode::kRestricted, eager);
    sequence.ForEachSnapshot([&](size_t t, const Graph& graph,
                                 const EdgeDelta& delta) {
      AvtSnapshotResult a = t == 0 ? lazy_tracker.ProcessFirst(graph)
                                   : lazy_tracker.ProcessDelta(delta);
      AvtSnapshotResult b = t == 0
                                ? eager_tracker.ProcessFirst(graph)
                                : eager_tracker.ProcessDelta(delta);
      EXPECT_EQ(a.anchors, b.anchors) << "seed " << seed << " t=" << t;
      EXPECT_EQ(a.num_followers, b.num_followers)
          << "seed " << seed << " t=" << t;
      EXPECT_LE(a.candidates_visited, b.candidates_visited)
          << "seed " << seed << " t=" << t;
    });
  }
}

TEST(LazyIncAvt, MidSwapCommitRebuildsTheSwapReference) {
  // The lazy search bounds every slot from one swap reference of the
  // anchor set; a commit at slot 0 of three changes that set with two
  // slots left, so the reference is rebuilt for slot 1. Streams that
  // commit there must stay identical lazy vs eager, and the rebuild
  // must really run: exactly two references on such a delta, at most
  // one otherwise.
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
    IncAvtOptions eager;
    eager.lazy = false;
    IncAvtTracker lazy_tracker(kK, kL);
    IncAvtTracker eager_tracker(kK, kL, IncAvtMode::kRestricted, eager);
    std::vector<VertexId> previous;
    uint64_t references = 0;
    sequence.ForEachSnapshot([&](size_t t, const Graph& graph,
                                 const EdgeDelta& delta) {
      const AvtSnapshotResult a = t == 0 ? lazy_tracker.ProcessFirst(graph)
                                         : lazy_tracker.ProcessDelta(delta);
      const AvtSnapshotResult b = t == 0
                                      ? eager_tracker.ProcessFirst(graph)
                                      : eager_tracker.ProcessDelta(delta);
      const std::string what =
          "seed " + std::to_string(seed) + " t=" + std::to_string(t);
      const uint64_t total = lazy_tracker.oracle()->stats().swap_references;
      const uint64_t built = total - references;
      references = total;
      if (t > 0) {
        ASSERT_EQ(previous.size(), kL) << what;
        EXPECT_EQ(b.anchors, a.anchors) << what;
        EXPECT_EQ(b.num_followers, a.num_followers) << what;
        if (a.anchors[0] != previous[0]) {
          EXPECT_EQ(built, 2u) << what;
          ++rebuilds;
        } else {
          EXPECT_LE(built, 1u) << what;
        }
      }
      previous = a.anchors;
    });
  }
  EXPECT_GT(rebuilds, 0u) << "no slot-0 commit; the rebuild never ran";
}

// FNV-1a of one tracker's per-snapshot trace over a seeded churn
// stream: anchors (in slot order), followers, bound probes, full
// queries, pool size, and the oracle's cumulative counters. Also
// tallies which branches of the local search the stream reached.
struct CounterTrace {
  uint64_t digest = 0;
  uint64_t commits = 0;          // deltas whose anchor vector changed
  uint64_t extends = 0;          // deltas that grew the anchor set
  uint64_t swap_references = 0;  // over the whole stream
};

CounterTrace TraceCounters(const Graph& g0, uint32_t k, uint32_t l,
                           bool lazy, Rng& rng) {
  ChurnOptions churn;
  churn.num_snapshots = 16;
  churn.min_churn = 25;
  churn.max_churn = 50;
  const SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
  IncAvtOptions options;
  options.lazy = lazy;
  IncAvtTracker tracker(k, l, IncAvtMode::kRestricted, options);
  CounterTrace out;
  std::string trace;
  std::vector<VertexId> previous;
  sequence.ForEachSnapshot([&](size_t t, const Graph& graph,
                               const EdgeDelta& delta) {
    const AvtSnapshotResult snap =
        t == 0 ? tracker.ProcessFirst(graph) : tracker.ProcessDelta(delta);
    const OracleStats& stats = tracker.oracle()->stats();
    trace += std::to_string(t) + ':';
    for (VertexId a : snap.anchors) trace += ' ' + std::to_string(a);
    trace += " |";
    for (uint64_t value :
         {uint64_t{snap.num_followers}, snap.bound_probes,
          snap.candidates_visited, snap.pool_size, stats.queries,
          stats.bound_queries, stats.swap_references, stats.visited,
          stats.eliminated}) {
      trace += ' ' + std::to_string(value);
    }
    trace += '\n';
    if (t > 0 && snap.anchors != previous) ++out.commits;
    if (t > 0 && snap.anchors.size() > previous.size()) ++out.extends;
    previous = snap.anchors;
  });
  out.digest = serde::Fnv1a64(trace);
  out.swap_references = tracker.oracle()->stats().swap_references;
  return out;
}

TEST(LazyIncAvt, CountersMatchRecordedDigest) {
  // Lazy ≡ eager pins the anchors; this pins the work. Two seeded churn
  // streams, each run lazy and eager, hash every snapshot's anchors,
  // followers, bound probes, full queries, pool size and the oracle's
  // counters (full and bound queries, swap references, cascade visits,
  // eliminations) against values recorded before the lazy swap loop
  // and the extend phase became one EvaluateTrials call per slot. A
  // change to what a delta costs moves the digest even when the
  // anchors stay put. The Chung-Lu stream commits swaps and rebuilds
  // the swap reference; the Erdős–Rényi one has no 4-core candidates
  // until a later delta, which fills the empty anchor set by extension
  // and then commits swaps on it.
  struct Stream {
    uint64_t seed;
    bool chung_lu;
    uint32_t k;
    uint32_t l;
    uint64_t lazy_digest;
    uint64_t eager_digest;
  };
  const Stream streams[2] = {
      {4700, true, 3, 4, 0x6479a270fc7b15a4ULL, 0x1f383be94dd55846ULL},
      {4701, false, 4, 6, 0xb935efa36c194387ULL, 0xac78216ca96ba00fULL},
  };
  for (const Stream& stream : streams) {
    for (bool lazy : {true, false}) {
      Rng rng(stream.seed);
      const Graph g0 = stream.chung_lu
                           ? ChungLuPowerLaw(300, 6.0, 2.2, 40, rng)
                           : ErdosRenyi(200, 300, rng);
      const CounterTrace trace =
          TraceCounters(g0, stream.k, stream.l, lazy, rng);
      const std::string what = "seed " + std::to_string(stream.seed) +
                               (lazy ? " lazy" : " eager");
      EXPECT_EQ(trace.digest, lazy ? stream.lazy_digest : stream.eager_digest)
          << what;
      EXPECT_GT(trace.commits, 0u) << what;
      if (!stream.chung_lu) {
        EXPECT_GT(trace.extends, 0u) << what;
      }
      if (lazy) {
        EXPECT_GT(trace.swap_references, 1u) << what;
      }
    }
  }
}

}  // namespace
}  // namespace avt

// Per-delta work must follow the churn, not the size of the vertex
// universe. The same churn stream is replayed on a graph and on that
// graph padded with 8x isolated vertices that no delta ever touches.
// Every per-delta output and work counter — anchors, followers, full
// queries, bound probes, pool entries walked and pooled, and the
// maintainer's cascade counters — must be identical: a per-delta step
// whose decisions read universe-sized state (a full scan, a stale
// whole-array reset, a pool that grows with n) would show up here as
// diverging counters, without any timing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anchor/candidates.h"
#include "core/inc_avt.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "util/random.h"

namespace avt {
namespace {

struct DeltaWork {
  std::vector<VertexId> anchors;
  uint32_t followers = 0;
  uint64_t full_queries = 0;
  uint64_t bound_probes = 0;
  uint64_t pool_size = 0;
  uint64_t pool_walked = 0;
  MaintenanceStats maintenance;
};

std::vector<DeltaWork> Replay(const Graph& g0,
                              const std::vector<EdgeDelta>& deltas,
                              uint32_t threads) {
  IncAvtOptions options;
  options.num_threads = threads;
  IncAvtTracker tracker(4, 4, IncAvtMode::kRestricted, options);
  std::vector<DeltaWork> work;
  auto record = [&](const AvtSnapshotResult& snap) {
    work.push_back({snap.anchors, snap.num_followers, snap.candidates_visited,
                    snap.bound_probes, snap.pool_size, snap.pool_walked,
                    tracker.maintainer().stats()});
  };
  record(tracker.ProcessFirst(g0));
  for (const EdgeDelta& delta : deltas) record(tracker.ProcessDelta(delta));
  return work;
}

TEST(WorkProportionality, PaddedUniverseDoesIdenticalWorkPerDelta) {
  for (uint64_t seed = 0; seed < 2; ++seed) {
    Rng rng(7100 + seed);
    const Graph g0 = ChungLuPowerLaw(1500, 8.0, 2.2, 100, rng);
    ChurnOptions churn;
    churn.num_snapshots = 8;
    churn.min_churn = 20;
    churn.max_churn = 40;
    const SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
    Graph padded = g0;
    for (VertexId i = 0; i < 8 * g0.NumVertices(); ++i) padded.AddVertex();

    std::vector<DeltaWork> serial;
    for (uint32_t threads : {1u, 2u}) {
      const std::vector<DeltaWork> plain =
          Replay(g0, sequence.deltas(), threads);
      const std::vector<DeltaWork> wide =
          Replay(padded, sequence.deltas(), threads);
      ASSERT_EQ(plain.size(), wide.size());
      if (threads == 1) serial = plain;
      ASSERT_EQ(plain.size(), serial.size());
      uint64_t followers = 0;
      uint64_t walked = 0;
      uint64_t pooled = 0;
      for (size_t t = 0; t < plain.size(); ++t) {
        const std::string what = "seed " + std::to_string(seed) +
                                 " threads=" + std::to_string(threads) +
                                 " t=" + std::to_string(t);
        EXPECT_EQ(plain[t].anchors, wide[t].anchors) << what;
        EXPECT_EQ(plain[t].followers, wide[t].followers) << what;
        EXPECT_EQ(plain[t].full_queries, wide[t].full_queries) << what;
        EXPECT_EQ(plain[t].bound_probes, wide[t].bound_probes) << what;
        // The pool walk visits impacted ∪ N(impacted) and pools the same
        // vertices whatever the number of untouched isolated ids.
        EXPECT_EQ(plain[t].pool_size, wide[t].pool_size) << what;
        EXPECT_EQ(plain[t].pool_walked, wide[t].pool_walked) << what;
        EXPECT_LE(plain[t].pool_size, plain[t].pool_walked) << what;
        // A second worker changes no decision and no counter.
        EXPECT_EQ(plain[t].anchors, serial[t].anchors) << what;
        EXPECT_EQ(plain[t].full_queries, serial[t].full_queries) << what;
        EXPECT_EQ(plain[t].bound_probes, serial[t].bound_probes) << what;
        const MaintenanceStats& a = plain[t].maintenance;
        const MaintenanceStats& b = wide[t].maintenance;
        EXPECT_EQ(a.edges_inserted, b.edges_inserted) << what;
        EXPECT_EQ(a.edges_removed, b.edges_removed) << what;
        EXPECT_EQ(a.promotions, b.promotions) << what;
        EXPECT_EQ(a.demotions, b.demotions) << what;
        EXPECT_EQ(a.visited, b.visited) << what;
        EXPECT_EQ(a.cascades, b.cascades) << what;
        followers += plain[t].followers;
        walked += plain[t].pool_walked;
        pooled += plain[t].pool_size;
      }
      EXPECT_GT(followers, 0u) << "degenerate workload, seed " << seed;
      EXPECT_GT(pooled, 0u) << "no pool, seed " << seed;
      EXPECT_GT(walked, pooled) << "seed " << seed;
    }
  }
}

TEST(WorkProportionality, PoolIsRebuiltFromScratchEveryDelta) {
  // The per-delta pool scratch is reset from a touched list, not by an
  // O(n) clear, so a missed reset would silently shrink later pools.
  // Pin the pool against an independent rebuild: a shadow maintainer
  // replays the churn, the Theorem-3 pool over impacted ∪ N(impacted)
  // minus the anchors is recomputed from it, and on every delta that
  // commits nothing the lazy search must have probed each pool vertex
  // once per anchor slot. The search gets those bounds from one
  // swap-reference probe per pool vertex plus per-slot probes for the
  // few dirty ones, so its oracles run strictly fewer bound queries than
  // that — exactly as many on the 8x padded universe, and as many at
  // two threads as at one.
  Rng rng(7200);
  const Graph g0 = ChungLuPowerLaw(1500, 8.0, 2.2, 100, rng);
  ChurnOptions churn;
  churn.num_snapshots = 12;
  churn.min_churn = 20;
  churn.max_churn = 40;
  const SnapshotSequence sequence = MakeChurnSnapshots(g0, churn, rng);
  constexpr uint32_t kK = 4;
  constexpr uint32_t kL = 4;
  Graph padded = g0;
  for (VertexId i = 0; i < 8 * g0.NumVertices(); ++i) padded.AddVertex();
  std::vector<uint64_t> serial_queries;  // per delta, at one thread
  for (uint32_t threads : {1u, 2u}) {
    IncAvtOptions options;
    options.num_threads = threads;
    IncAvtTracker tracker(kK, kL, IncAvtMode::kRestricted, options);
    IncAvtTracker wide(kK, kL, IncAvtMode::kRestricted, options);
    CoreMaintainer shadow;
    shadow.Reset(g0);
    std::vector<VertexId> anchors = tracker.ProcessFirst(g0).anchors;
    ASSERT_EQ(wide.ProcessFirst(padded).anchors, anchors);
    ASSERT_EQ(anchors.size(), kL);
    auto bound_queries = [](const IncAvtTracker& t) {
      const TrialEngine& engine = *t.trial_engine();
      uint64_t total = 0;
      for (uint32_t w = 0; w < engine.num_threads(); ++w) {
        total += engine.oracle(w).stats().bound_queries;
      }
      return total;
    };
    size_t checked = 0;
    size_t shared = 0;
    for (const EdgeDelta& delta : sequence.deltas()) {
      const std::vector<VertexId> impacted = shadow.ApplyDelta(delta);
      std::vector<uint8_t> seen(shadow.graph().NumVertices(), 0);
      for (VertexId a : anchors) seen[a] = 1;
      uint64_t pool = 0;
      auto consider = [&](VertexId v) {
        if (seen[v]) return;
        seen[v] = 1;
        if (IsAnchorCandidate(shadow.graph(), shadow.order(), v, kK)) ++pool;
      };
      for (VertexId v : impacted) {
        consider(v);
        for (VertexId w : shadow.graph().Neighbors(v)) consider(w);
      }
      const uint64_t queries_before = bound_queries(tracker);
      const uint64_t wide_queries_before = bound_queries(wide);
      const AvtSnapshotResult snap = tracker.ProcessDelta(delta);
      ASSERT_EQ(wide.ProcessDelta(delta).anchors, snap.anchors);
      const uint64_t queries = bound_queries(tracker) - queries_before;
      const std::string what =
          "threads=" + std::to_string(threads) + " t=" + std::to_string(snap.t);
      if (threads == 1) serial_queries.push_back(queries);
      ASSERT_LT(snap.t - 1, serial_queries.size()) << what;
      EXPECT_EQ(queries, serial_queries[snap.t - 1]) << what;
      if (snap.anchors == anchors) {
        EXPECT_EQ(snap.bound_probes, kL * pool) << what;
        ++checked;
        if (pool > 0) {
          EXPECT_LT(queries, kL * pool) << what;
          EXPECT_EQ(bound_queries(wide) - wide_queries_before, queries)
              << what;
          ++shared;
        }
      }
      anchors = snap.anchors;
    }
    EXPECT_GT(checked, 0u) << "every delta committed; nothing pinned";
    EXPECT_GT(shared, 0u) << "no shared-bound delta";
  }
}

}  // namespace
}  // namespace avt

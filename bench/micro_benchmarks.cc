// Google-benchmark microbenches for the library's primitives:
// core decomposition, K-order construction, single-edge maintenance vs
// rebuild, follower-oracle queries, a static greedy solve, and exact
// anchored peels.
//
//   ./micro_benchmarks [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/follower_oracle.h"
#include "anchor/greedy.h"
#include "corelib/decomposition.h"
#include "corelib/korder.h"
#include "gen/models.h"
#include "maint/maintainer.h"
#include "util/random.h"

namespace avt {
namespace {

Graph BenchGraph(int64_t n) {
  Rng rng(1234);
  return ChungLuPowerLaw(static_cast<VertexId>(n), 8.0, 2.1,
                         static_cast<uint32_t>(n / 20 + 10), rng);
}

void BM_CoreDecomposition(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    CoreDecomposition cores = DecomposeCores(g);
    benchmark::DoNotOptimize(cores.max_core);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_CoreDecomposition)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_KOrderBuild(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    KOrder order;
    order.Build(g);
    benchmark::DoNotOptimize(order.MaxLevel());
  }
}
BENCHMARK(BM_KOrderBuild)->Arg(1000)->Arg(10000)->Arg(50000);

// Maintain one edge churn step (insert + remove) on a warm index.
void BM_MaintainSingleEdge(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  CoreMaintainer m;
  m.Reset(g);
  Rng rng(77);
  const VertexId n = g.NumVertices();
  for (auto _ : state) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    if (m.InsertEdge(u, v)) {
      m.RemoveEdge(u, v);
    }
  }
}
BENCHMARK(BM_MaintainSingleEdge)->Arg(1000)->Arg(10000)->Arg(50000);

// The alternative the maintenance replaces: full rebuild per edge.
void BM_RebuildPerEdge(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  Rng rng(78);
  const VertexId n = g.NumVertices();
  for (auto _ : state) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    if (g.AddEdge(u, v)) {
      KOrder order;
      order.Build(g);
      benchmark::DoNotOptimize(order.MaxLevel());
      g.RemoveEdge(u, v);
    }
  }
}
BENCHMARK(BM_RebuildPerEdge)->Arg(1000)->Arg(10000);

void BM_FollowerOracleQuery(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> pool = CollectAnchorCandidates(g, order, 3);
  if (pool.empty()) {
    state.SkipWithError("no candidates");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    std::vector<VertexId> anchors{pool[i % pool.size()]};
    benchmark::DoNotOptimize(oracle.CountFollowers(anchors, 3));
    ++i;
  }
}
BENCHMARK(BM_FollowerOracleQuery)->Arg(1000)->Arg(10000)->Arg(50000);

// A whole static solve: K-order build, Theorem-3 pool, five lazy picks
// and the final follower count, all scanning the graph.
void BM_GreedySolve(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  GreedySolver solver;
  for (auto _ : state) {
    SolverResult result = solver.Solve(g, 5, 5);
    benchmark::DoNotOptimize(result.followers.data());
  }
}
BENCHMARK(BM_GreedySolve)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_ExactAnchoredPeel(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  KOrder order;
  order.Build(g);
  std::vector<VertexId> pool = CollectAnchorCandidates(g, order, 3);
  if (pool.empty()) {
    state.SkipWithError("no candidates");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CountFollowersExact(g, 3, {pool[i % pool.size()]}));
    ++i;
  }
}
BENCHMARK(BM_ExactAnchoredPeel)->Arg(1000)->Arg(10000);

void BM_BatchDelta(benchmark::State& state) {
  Graph g = BenchGraph(10000);
  CoreMaintainer m;
  m.Reset(g);
  Rng rng(79);
  for (auto _ : state) {
    state.PauseTiming();
    EdgeDelta delta;
    std::vector<Edge> edges = m.graph().CollectEdges();
    std::vector<uint64_t> picks = rng.SampleDistinct(
        edges.size(), static_cast<uint64_t>(state.range(0)));
    for (uint64_t p : picks) delta.deletions.push_back(edges[p]);
    int added = 0;
    while (added < state.range(0)) {
      VertexId u = static_cast<VertexId>(rng.Uniform(10000));
      VertexId v = static_cast<VertexId>(rng.Uniform(10000));
      if (u == v || m.graph().HasEdge(u, v)) continue;
      Edge e(u, v);
      bool dup = false;
      for (const Edge& d : delta.deletions) {
        if (d == e) dup = true;
      }
      if (dup) continue;
      delta.insertions.push_back(e);
      ++added;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(m.ApplyDelta(delta).size());
  }
}
BENCHMARK(BM_BatchDelta)->Arg(100)->Arg(250);

}  // namespace
}  // namespace avt

BENCHMARK_MAIN();

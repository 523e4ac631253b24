// Perf gate: the repeatable before/after measurements behind
// BENCH_PR2.json and BENCH_PR3.json (run via scripts/bench.sh).
//
// PR-2 gates — two workloads, each measured in its eager ("before", the
// seed repo's execution strategy) and lazy ("after", certified-bound
// CELF) form:
//
//   * greedy_solve — one GreedySolver::Solve on a Chung-Lu power-law
//     graph (paper-style social topology) at --n vertices;
//   * incavt_per_delta — an IncAvtTracker over a --t-snapshot churn
//     sequence, timing only the ProcessDelta steps.
//
// PR-3 gate — thread scaling of the parallel trial engine: the same two
// workloads (lazy strategy) at every --threads-list count, reporting
// wall time and speedup vs 1 thread into --threads-out. host_cpus is
// recorded alongside because wall-clock scaling is bounded by the
// machine; the work counters and outputs are deterministic everywhere.
//
// PR-5 gate — streaming ingestion: the same IncAVT workload driven
// three ways, emitted to --stream-out:
//
//   * materialized — the retired snapshot-pull pattern: a full Graph is
//     built per transition (SnapshotSequence::Materialize, O(T * m))
//     before the tracker sees the delta;
//   * streamed — AvtEngine + SequenceSource: deltas pushed straight to
//     the tracker, no snapshot ever built (O(churn) per transition);
//   * coalesced — CoalescingSource merges --coalesce-window transitions
//     into one net-effect delta before tracking.
//
//   Each arm reports per-delta wall time and a peak-RSS proxy (bytes of
//   adjacency state the driver must keep live; an analytic proxy so the
//   arms are comparable inside one process). The streamed arm must
//   reproduce the per-delta anchors bit for bit; the coalesced arm's
//   maintained graph must equal the materialized snapshot at every
//   window boundary. A second check streams a generated temporal
//   edge-list FILE (StreamingEdgeFileSource, the zero-materialization
//   path) against the WindowSnapshots sequence across
//   {lazy, eager} x threads {1, 8} and asserts
//   bit-identical anchors and follower counts — the acceptance matrix.
//
// PR-6 gate — parallel scaling after the batching/partition bugfix:
// asserts the trial-engine work counters are thread-count-invariant
// (BENCH_PR3's defect was oracle_queries scaling linearly with the
// thread count), asserts engine-batched IncAVT replay is bit-identical
// to a net-delta mirror at every batch boundary for batch {1, --batch,
// 16} x threads {1, 8}, measures batched IncAVT across --threads-list,
// and — below 2 CPUs skips with a notice, at >= 4 CPUs ENFORCES —
// speedup_max_threads_vs_1 > 1.0 on both workloads. Emitted to
// --scaling-out.
//
// PR-7 gate — crash-safe streaming: the streamed IncAVT workload
// measured end-to-end (wall time around Drain, because the WAL append
// is exactly what the arms differ in) with durability off / WAL
// fsync=never / WAL fsync=every-record / WAL + cadenced checkpoints,
// all four tracks asserted bit-identical; then a --recovery-deltas-long
// churn log is written durably and AvtEngine::Recover is timed replaying
// the whole WAL, with the recovered final anchors and work counters
// asserted identical to the uninterrupted writer's. Emitted to
// --durability-out.
//
// PR-9 gate — self-healing audit overhead: the streamed IncAVT
// workload (--audit-transitions churn transitions) with the sentinel
// auditor off / every 16 transactions / every transaction, timed
// end-to-end around Drain (the audit runs in the engine's pre-commit
// hook) and emitted to --selfheal-out. The audit is a read-only
// cross-check, so all three anchor tracks and follower counts are
// asserted bit-identical, zero audits may fail on the clean stream,
// and the production cadence (every 16) must stay within 1.15x of the
// unaudited wall time.
//
// Outputs are asserted identical between all strategies and thread
// counts before any number is written: the gate measures a
// speedup, never a quality trade. The JSON is intentionally flat so
// future PRs can diff it and append their own gates alongside.
//
//   ./bench_perf_gate [--n=50000] [--k=3] [--l=10] [--t=12]
//                     [--churn=150] [--repeats=3] [--out=BENCH_PR2.json]
//                     [--threads-list=1,2,4,8] [--threads-out=BENCH_PR3.json]
//                     [--stream-out=BENCH_PR5.json] [--coalesce-window=3]
//                     [--scaling-out=BENCH_PR6.json] [--batch=3]
//                     [--durability-out=BENCH_PR7.json]
//                     [--recovery-deltas=50000]
//                     [--selfheal-out=BENCH_PR9.json]
//                     [--audit-transitions=96]
//
// --repeats re-runs each timed section and keeps the fastest wall time
// (work counters are deterministic and identical across repeats).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anchor/greedy.h"
#include "core/engine.h"
#include "core/inc_avt.h"
#include "core/run_summary.h"
#include "durability/wal.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "gen/temporal.h"
#include "graph/delta_source.h"
#include "graph/io.h"
#include "graph/snapshots.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace avt {
namespace {

struct GateMetrics {
  double millis = 0;
  uint64_t oracle_queries = 0;  // full follower queries
  uint64_t bound_probes = 0;    // phase-1-only probes
  uint64_t followers = 0;
};

GateMetrics MeasureGreedy(const Graph& g, uint32_t k, uint32_t l,
                          bool lazy, int repeats,
                          std::vector<VertexId>* anchors_out,
                          uint32_t num_threads = 1) {
  GateMetrics metrics;
  metrics.millis = 1e300;
  GreedyOptions options;
  options.lazy = lazy;
  options.num_threads = num_threads;
  for (int r = 0; r < repeats; ++r) {
    GreedySolver solver(options);
    Timer timer;
    SolverResult result = solver.Solve(g, k, l);
    metrics.millis = std::min(metrics.millis, timer.ElapsedMillis());
    metrics.oracle_queries = result.candidates_visited;
    metrics.bound_probes = result.bound_probes;
    metrics.followers = result.num_followers();
    *anchors_out = result.anchors;
  }
  return metrics;
}

GateMetrics MeasureIncAvt(const SnapshotSequence& sequence, uint32_t k,
                          uint32_t l, bool lazy, int repeats,
                          std::vector<std::vector<VertexId>>* anchors_out,
                          uint32_t num_threads = 1,
                          size_t batch_size = 1) {
  GateMetrics metrics;
  metrics.millis = 1e300;
  for (int r = 0; r < repeats; ++r) {
    IncAvtOptions options;
    options.lazy = lazy;
    options.num_threads = num_threads;
    options.batch_size = batch_size;
    // All tracking rides the streaming engine; snap.millis is the
    // tracker's own per-transition timer, so the sum matches the old
    // externally-timed ProcessDelta loop.
    AvtEngine engine(std::make_unique<IncAvtTracker>(
                         k, l, IncAvtMode::kRestricted, options),
                     std::make_unique<SequenceSource>(&sequence));
    anchors_out->clear();
    double delta_millis = 0;
    uint64_t queries = 0;
    uint64_t probes = 0;
    uint64_t followers = 0;
    engine.SetObserver([&](const AvtSnapshotResult& snap) {
      anchors_out->push_back(snap.anchors);
      if (snap.t == 0) return;
      delta_millis += snap.millis;
      queries += snap.candidates_visited;
      probes += snap.bound_probes;
      followers += snap.num_followers;
    });
    Status status = engine.Drain();
    AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
    metrics.millis = std::min(metrics.millis, delta_millis);
    metrics.oracle_queries = queries;
    metrics.bound_probes = probes;
    metrics.followers = followers;
  }
  return metrics;
}

void PrintMetrics(FILE* f, const char* key, const GateMetrics& m,
                  const char* trailing) {
  std::fprintf(f,
               "    \"%s\": {\"millis\": %.3f, \"oracle_queries\": %" PRIu64
               ", \"bound_probes\": %" PRIu64 ", \"followers\": %" PRIu64
               "}%s\n",
               key, m.millis, m.oracle_queries, m.bound_probes, m.followers,
               trailing);
}

double Ratio(double before, double after) {
  return after > 0 ? before / after : 0.0;
}

// End-to-end wall time of one streamed engine run (Drain), optionally
// durable. Unlike MeasureIncAvt this times OUTSIDE the tracker: the WAL
// append + fsync + checkpoint cost is precisely what the PR-7 arms
// differ in, and it lives in the engine, not the tracker.
struct WallRun {
  double millis = 1e300;
  std::vector<std::vector<VertexId>> track;
};

WallRun MeasureDurableDrain(const SnapshotSequence& sequence, uint32_t k,
                            uint32_t l, int repeats,
                            const DurabilityOptions* durability) {
  WallRun run;
  for (int r = 0; r < repeats; ++r) {
    AvtEngine engine(std::make_unique<IncAvtTracker>(k, l),
                     std::make_unique<SequenceSource>(&sequence));
    if (durability != nullptr) {
      std::filesystem::remove_all(durability->dir);
      Status armed = engine.EnableDurability(*durability);
      AVT_CHECK_MSG(armed.ok(), armed.ToString().c_str());
    }
    std::vector<std::vector<VertexId>> track;
    engine.SetObserver([&](const AvtSnapshotResult& snap) {
      track.push_back(snap.anchors);
    });
    Timer timer;
    Status status = engine.Drain();
    const double millis = timer.ElapsedMillis();
    AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
    run.millis = std::min(run.millis, millis);
    run.track = std::move(track);
  }
  return run;
}

// One audited engine run for the PR-9 gate: wall time around Drain
// (the sentinel audit runs inside the engine's pre-commit hook, so —
// like the WAL cost in gate 7 — it is invisible to the tracker's own
// per-snapshot timer), plus the per-snapshot anchors AND follower
// counts so the audit arms can be asserted output-identical.
struct AuditRun {
  double millis = 1e300;
  std::vector<std::vector<VertexId>> track;
  std::vector<uint64_t> followers;
  uint64_t audits_run = 0;
  uint64_t audits_failed = 0;
};

AuditRun MeasureAuditedDrain(const SnapshotSequence& sequence, uint32_t k,
                             uint32_t l, int repeats, size_t audit_every) {
  AuditRun run;
  for (int r = 0; r < repeats; ++r) {
    EngineOptions options;
    options.audit.every = audit_every;
    AvtEngine engine(std::make_unique<IncAvtTracker>(k, l),
                     std::make_unique<SequenceSource>(&sequence), options);
    std::vector<std::vector<VertexId>> track;
    std::vector<uint64_t> followers;
    engine.SetObserver([&](const AvtSnapshotResult& snap) {
      track.push_back(snap.anchors);
      followers.push_back(snap.num_followers);
    });
    Timer timer;
    Status status = engine.Drain();
    const double millis = timer.ElapsedMillis();
    AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
    AVT_CHECK_MSG(engine.health().healthy(),
                  "perf gate violated: an audited run on a clean stream "
                  "left the healthy state");
    run.millis = std::min(run.millis, millis);
    run.track = std::move(track);
    run.followers = std::move(followers);
    run.audits_run = engine.auditor().audits_run();
    run.audits_failed = engine.auditor().audits_failed();
  }
  return run;
}

std::vector<uint32_t> ParseThreadList(const std::string& spec) {
  std::vector<uint32_t> counts;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int value = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (value > 0) counts.push_back(static_cast<uint32_t>(value));
    pos = comma + 1;
  }
  // Speedups are measured relative to 1 thread and reported against the
  // largest count; sorting + deduping makes any input order valid and
  // keeps the per-count JSON keys unique.
  counts.push_back(1);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

}  // namespace
}  // namespace avt

int main(int argc, char** argv) {
  using namespace avt;
  Flags flags = Flags::Parse(argc, argv);
  const uint32_t n = static_cast<uint32_t>(flags.GetInt("n", 50000));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  const uint32_t l = static_cast<uint32_t>(flags.GetInt("l", 10));
  const size_t T = static_cast<size_t>(flags.GetInt("t", 12));
  const uint32_t churn = static_cast<uint32_t>(flags.GetInt("churn", 150));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const std::string out = flags.GetString("out", "BENCH_PR2.json");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));

  // Same topology family as bench/micro_benchmarks.cc's BenchGraph.
  Rng rng(seed);
  Graph g = ChungLuPowerLaw(n, 8.0, 2.1, n / 20 + 10, rng);
  std::printf("graph: n=%u m=%" PRIu64 " (Chung-Lu power law)\n",
              g.NumVertices(), g.NumEdges());

  // --- Gate 1: single-snapshot greedy solve -------------------------
  std::vector<VertexId> scan_anchors;
  std::vector<VertexId> lazy_anchors;
  GateMetrics greedy_scan =
      MeasureGreedy(g, k, l, /*lazy=*/false, repeats, &scan_anchors);
  GateMetrics greedy_lazy =
      MeasureGreedy(g, k, l, /*lazy=*/true, repeats, &lazy_anchors);
  AVT_CHECK_MSG(scan_anchors == lazy_anchors,
                "perf gate violated: lazy greedy diverged from scan");
  std::printf("greedy  scan: %8.1f ms  %8" PRIu64 " full queries\n",
              greedy_scan.millis, greedy_scan.oracle_queries);
  std::printf("greedy  lazy: %8.1f ms  %8" PRIu64 " full queries  %8" PRIu64
              " bound probes\n",
              greedy_lazy.millis, greedy_lazy.oracle_queries,
              greedy_lazy.bound_probes);

  // --- Gate 2: IncAVT per-delta steps -------------------------------
  Rng churn_rng(seed + 1);
  ChurnOptions churn_options;
  churn_options.num_snapshots = T;
  churn_options.min_churn = churn;
  churn_options.max_churn = churn + 100;
  SnapshotSequence sequence = MakeChurnSnapshots(g, churn_options, churn_rng);
  std::vector<std::vector<VertexId>> eager_track;
  std::vector<std::vector<VertexId>> lazy_track;
  GateMetrics inc_eager =
      MeasureIncAvt(sequence, k, l, /*lazy=*/false, repeats, &eager_track);
  GateMetrics inc_lazy =
      MeasureIncAvt(sequence, k, l, /*lazy=*/true, repeats, &lazy_track);
  AVT_CHECK_MSG(eager_track == lazy_track,
                "perf gate violated: lazy IncAVT diverged from eager");
  const double deltas = static_cast<double>(T > 1 ? T - 1 : 1);
  std::printf("incavt eager: %8.2f ms/delta  %8" PRIu64 " full queries\n",
              inc_eager.millis / deltas, inc_eager.oracle_queries);
  std::printf("incavt  lazy: %8.2f ms/delta  %8" PRIu64 " full queries  %8"
              PRIu64 " bound probes\n",
              inc_lazy.millis / deltas, inc_lazy.oracle_queries,
              inc_lazy.bound_probes);

  // --- Gate 3 (PR 3): thread scaling of the parallel trial engine ----
  // Same workloads, lazy strategy, across --threads-list worker counts.
  // Anchors are asserted bit-identical to the serial runs above at every
  // count; wall speedups are relative to the 1-thread engine run.
  const std::string threads_out =
      flags.GetString("threads-out", "BENCH_PR3.json");
  const std::vector<uint32_t> thread_counts =
      ParseThreadList(flags.GetString("threads-list", "1,2,4,8"));
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::vector<GateMetrics> greedy_by_threads;
  std::vector<GateMetrics> incavt_by_threads;
  for (uint32_t threads : thread_counts) {
    std::vector<VertexId> anchors;
    greedy_by_threads.push_back(MeasureGreedy(g, k, l, /*lazy=*/true,
                                              repeats, &anchors, threads));
    AVT_CHECK_MSG(anchors == lazy_anchors,
                  "perf gate violated: parallel greedy diverged");
    std::vector<std::vector<VertexId>> track;
    incavt_by_threads.push_back(MeasureIncAvt(sequence, k, l, /*lazy=*/true,
                                              repeats, &track, threads));
    AVT_CHECK_MSG(track == lazy_track,
                  "perf gate violated: parallel IncAVT diverged");
    std::printf("threads %2u: greedy %8.1f ms (%.2fx)   incavt %8.2f "
                "ms/delta (%.2fx)\n",
                threads, greedy_by_threads.back().millis,
                Ratio(greedy_by_threads.front().millis,
                      greedy_by_threads.back().millis),
                incavt_by_threads.back().millis / deltas,
                Ratio(incavt_by_threads.front().millis,
                      incavt_by_threads.back().millis));
  }

  // --- Gate 5 (PR 5): streaming ingestion ----------------------------
  // Same churn workload, three drivers. Wall time is measured OUTSIDE
  // the tracker (ingestion + tracking), because ingestion is exactly
  // what the arms differ in. The proxy counts driver-side adjacency
  // bytes — the state a driver must keep live beyond the tracker's own
  // — which the streamed arm reduces from O(m) per transition to the
  // delta batches themselves.
  const std::string stream_out =
      flags.GetString("stream-out", "BENCH_PR5.json");
  const size_t coalesce_window =
      static_cast<size_t>(flags.GetInt("coalesce-window", 3));
  AVT_CHECK_MSG(coalesce_window >= 1, "--coalesce-window must be >= 1");
  auto graph_bytes = [](const Graph& graph) {
    return static_cast<uint64_t>(graph.NumVertices()) *
               sizeof(std::vector<VertexId>) +
           2 * graph.NumEdges() * sizeof(VertexId);
  };
  auto delta_bytes = [](const EdgeDelta& d) {
    return static_cast<uint64_t>(d.Size()) * sizeof(Edge);
  };

  // (a) materialized — the retired snapshot-pull pattern: one working
  // graph mutated per delta plus a full Graph copy handed around per
  // transition (O(T * m) ingestion).
  double mat_millis = 1e300;
  uint64_t mat_bytes = 0;
  std::vector<std::vector<VertexId>> stream_baseline;
  for (int r = 0; r < repeats; ++r) {
    IncAvtTracker tracker(k, l);
    stream_baseline.clear();
    stream_baseline.push_back(tracker.ProcessFirst(sequence.initial())
                                  .anchors);
    Graph working = sequence.initial();
    double millis = 0;
    uint64_t bytes = 0;
    for (const EdgeDelta& delta : sequence.deltas()) {
      Timer timer;
      delta.Apply(working);
      Graph snapshot = working;  // the per-transition materialization
      AvtSnapshotResult snap = tracker.ProcessDelta(delta);
      millis += timer.ElapsedMillis();
      bytes = std::max(bytes, graph_bytes(working) + graph_bytes(snapshot));
      stream_baseline.push_back(snap.anchors);
    }
    mat_millis = std::min(mat_millis, millis);
    mat_bytes = bytes;
  }
  AVT_CHECK_MSG(stream_baseline == lazy_track,
                "perf gate violated: materialized-arm replay diverged");

  // (b) streamed — AvtEngine + SequenceSource, no snapshot ever built.
  double str_millis = 1e300;
  uint64_t str_bytes = 0;
  for (int r = 0; r < repeats; ++r) {
    AvtEngine engine(std::make_unique<IncAvtTracker>(k, l),
                     std::make_unique<SequenceSource>(&sequence));
    std::vector<std::vector<VertexId>> track;
    uint64_t bytes = 0;
    engine.SetObserver([&](const AvtSnapshotResult& snap) {
      track.push_back(snap.anchors);
    });
    AVT_CHECK(engine.Step().value());  // G_0 outside the timed section
    for (const EdgeDelta& delta : sequence.deltas()) {
      bytes = std::max(bytes, delta_bytes(delta));
    }
    Timer timer;
    Status status = engine.Drain();
    const double millis = timer.ElapsedMillis();
    AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
    AVT_CHECK_MSG(track == stream_baseline,
                  "perf gate violated: streamed replay diverged from "
                  "materialized");
    str_millis = std::min(str_millis, millis);
    str_bytes = bytes;
  }

  // Coalesce-window 1 is the identity: bit-identical to streamed.
  {
    AvtEngine engine(std::make_unique<IncAvtTracker>(k, l),
                     std::make_unique<CoalescingSource>(
                         std::make_unique<SequenceSource>(&sequence), 1));
    std::vector<std::vector<VertexId>> track;
    engine.SetObserver([&](const AvtSnapshotResult& snap) {
      track.push_back(snap.anchors);
    });
    Status status = engine.Drain();
    AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
    AVT_CHECK_MSG(track == stream_baseline,
                  "perf gate violated: coalesce-window 1 is not the "
                  "identity");
  }

  // (c) coalesced — net-effect batches of --coalesce-window
  // transitions. Fewer, coarser snapshots by design, so the assertion
  // is state equivalence: after coalesced transition j the maintained
  // graph must equal the materialized snapshot at boundary
  // min(j * W, T - 1) (precomputed by one working replay).
  std::vector<Graph> boundary_graphs;
  {
    Graph working = sequence.initial();
    size_t t = 0;
    for (const EdgeDelta& delta : sequence.deltas()) {
      delta.Apply(working);
      ++t;
      if (t % coalesce_window == 0 || t == sequence.deltas().size()) {
        boundary_graphs.push_back(working);
      }
    }
  }
  double coal_millis = 1e300;
  uint64_t coal_bytes = 0;
  size_t coal_transitions = 0;
  for (int r = 0; r < repeats; ++r) {
    auto tracker = std::make_unique<IncAvtTracker>(k, l);
    IncAvtTracker* inc = tracker.get();
    AvtEngine engine(std::move(tracker),
                     std::make_unique<CoalescingSource>(
                         std::make_unique<SequenceSource>(&sequence),
                         coalesce_window));
    AVT_CHECK(engine.Step().value());  // G_0
    double millis = 0;
    size_t boundary = 0;
    for (;;) {
      Timer timer;
      StatusOr<bool> stepped = engine.Step();
      AVT_CHECK_MSG(stepped.ok(), stepped.status().ToString().c_str());
      if (!stepped.value()) break;
      millis += timer.ElapsedMillis();
      AVT_CHECK_MSG(boundary < boundary_graphs.size() &&
                        inc->maintainer().graph() ==
                            boundary_graphs[boundary],
                    "perf gate violated: coalesced replay diverged from "
                    "the materialized boundary snapshot");
      ++boundary;
    }
    AVT_CHECK(boundary == boundary_graphs.size());
    coal_transitions = boundary;
    coal_millis = std::min(coal_millis, millis);
    coal_bytes = static_cast<uint64_t>(coalesce_window) * str_bytes;
  }
  const double coal_deltas =
      static_cast<double>(coal_transitions > 0 ? coal_transitions : 1);
  std::printf("ingest materialized: %8.2f ms/delta  (%7.1f KiB driver "
              "state)\n",
              mat_millis / deltas,
              static_cast<double>(mat_bytes) / 1024.0);
  std::printf("ingest streamed:     %8.2f ms/delta  (%7.1f KiB driver "
              "state)  %.2fx vs materialized\n",
              str_millis / deltas,
              static_cast<double>(str_bytes) / 1024.0,
              Ratio(mat_millis, str_millis));
  std::printf("ingest coalesced(%zu): %6.2f ms/delta over %zu net "
              "transitions\n",
              coalesce_window, coal_millis / coal_deltas,
              coal_transitions);

  // (d) acceptance matrix — a generated temporal edge-list FILE
  // streamed with zero materialization vs the WindowSnapshots sequence
  // of the SAME file (load-order id compaction matches), across
  // {lazy, eager} x threads {1, 8}.
  const size_t file_T = 8;
  const uint32_t file_window = 45;
  std::filesystem::path tmp_path =
      std::filesystem::temp_directory_path() /
      "avt_perf_gate_pr5_temporal.txt";
  {
    Rng temporal_rng(seed + 7);
    TemporalGenOptions temporal_options;
    temporal_options.num_vertices = 2000;
    temporal_options.num_events = 60'000;
    temporal_options.num_days = 180;
    TemporalEventLog log =
        GenPowerLawActivityEvents(temporal_options, 2.1, temporal_rng);
    Status saved = SaveTemporalEdgeList(log, tmp_path.string());
    AVT_CHECK_MSG(saved.ok(), saved.ToString().c_str());
  }
  auto reloaded = LoadTemporalEdgeList(tmp_path.string());
  AVT_CHECK(reloaded.ok());
  SnapshotSequence file_sequence =
      WindowSnapshots(reloaded.value(), file_T, file_window);
  for (bool strategy_lazy : {true, false}) {
    for (uint32_t threads : {1u, 8u}) {
      IncAvtOptions options;
      options.lazy = strategy_lazy;
      options.num_threads = threads;
      auto run_config = [&](std::unique_ptr<DeltaSource> src) {
        AvtEngine engine(
            std::make_unique<IncAvtTracker>(
                k, l, IncAvtMode::kRestricted, options),
            std::move(src));
        std::vector<std::vector<VertexId>> anchors;
        std::vector<uint32_t> followers;
        engine.SetObserver([&](const AvtSnapshotResult& snap) {
          anchors.push_back(snap.anchors);
          followers.push_back(snap.num_followers);
        });
        Status status = engine.Drain();
        AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
        return std::make_pair(std::move(anchors), std::move(followers));
      };
      auto materialized =
          run_config(std::make_unique<SequenceSource>(&file_sequence));
      auto opened = StreamingEdgeFileSource::Open(tmp_path.string(),
                                                  file_T, file_window);
      AVT_CHECK_MSG(opened.ok(), opened.status().ToString().c_str());
      auto streamed = run_config(std::move(opened).value());
      AVT_CHECK_MSG(materialized == streamed,
                    "perf gate violated: streamed temporal file "
                    "diverged from materialized WindowSnapshots in the "
                    "{strategy x threads} matrix");
    }
  }
  std::filesystem::remove(tmp_path);
  std::printf("stream acceptance matrix: file-streamed == materialized "
              "for {lazy, eager} x threads {1, 8}\n");

  // --- Gate 6 (PR 6): parallel scaling after the batching fix --------
  // BENCH_PR3 recorded the defect this PR fixes: the per-shard trial
  // engine resolved one winner PER SHARD, so oracle_queries scaled
  // linearly with the thread count and threads=8 lost to threads=1 on
  // both workloads. The fixed engine's counters are thread-count
  // invariant (asserted below), the live candidates are partitioned by
  // K-order region, and the incremental tracker amortizes its
  // invalidation walk over --batch merged deltas. This gate asserts
  // the counters, asserts batched replay == the net-delta mirror at
  // every batch boundary for batch {1, --batch, 16} x threads {1, 8},
  // and — on hosts with enough CPUs to measure wall scaling — enforces
  // speedup_max_threads_vs_1 > 1.0 for both workloads.
  const std::string scaling_out =
      flags.GetString("scaling-out", "BENCH_PR6.json");
  const size_t gate6_batch = static_cast<size_t>(flags.GetInt("batch", 3));
  AVT_CHECK_MSG(gate6_batch >= 1, "--batch must be >= 1");

  // (a) Work counters must be pure functions of the workload.
  for (size_t i = 1; i < thread_counts.size(); ++i) {
    AVT_CHECK_MSG(greedy_by_threads[i].oracle_queries ==
                          greedy_by_threads[0].oracle_queries &&
                      greedy_by_threads[i].bound_probes ==
                          greedy_by_threads[0].bound_probes,
                  "perf gate violated: greedy work counters scale with "
                  "the thread count (the BENCH_PR3 defect)");
    AVT_CHECK_MSG(incavt_by_threads[i].oracle_queries ==
                          incavt_by_threads[0].oracle_queries &&
                      incavt_by_threads[i].bound_probes ==
                          incavt_by_threads[0].bound_probes,
                  "perf gate violated: IncAVT work counters scale with "
                  "the thread count (the BENCH_PR3 defect)");
  }
  std::printf("work counters: thread-count-invariant on both workloads "
              "across all measured counts\n");

  // (b) Batched replay == net-delta mirror (one DiffGraphs transaction
  // per boundary) — the Theorem-3-safe batching contract, at gate scale.
  auto mirror_track = [&](size_t batch) {
    std::vector<std::vector<VertexId>> track;
    IncAvtTracker mirror(k, l);
    track.push_back(mirror.ProcessFirst(sequence.initial()).anchors);
    Graph prev = sequence.initial();
    Graph working = sequence.initial();
    size_t t = 0;
    for (const EdgeDelta& delta : sequence.deltas()) {
      delta.Apply(working);
      ++t;
      if (t % batch == 0 || t == sequence.deltas().size()) {
        track.push_back(
            mirror.ProcessDelta(DiffGraphs(prev, working)).anchors);
        prev = working;
      }
    }
    return track;
  };
  for (size_t b : {size_t{1}, gate6_batch, size_t{16}}) {
    // batch 1 must be VERBATIM per-delta delivery; larger batches must
    // match the mirror at every emitted boundary.
    const std::vector<std::vector<VertexId>> expected =
        b == 1 ? lazy_track : mirror_track(b);
    for (uint32_t threads : {1u, 8u}) {
      std::vector<std::vector<VertexId>> track;
      MeasureIncAvt(sequence, k, l, /*lazy=*/true, /*repeats=*/1, &track,
                    threads, b);
      AVT_CHECK_MSG(track == expected,
                    "perf gate violated: batched IncAVT diverged from "
                    "the net-delta mirror replay");
    }
  }
  std::printf("batch identity: engine batch {1, %zu, 16} == net-delta "
              "mirror at every boundary, threads {1, 8}\n",
              gate6_batch);

  // (c) Batched IncAVT thread scaling (the measured arm: batching gives
  // the parallel phase pools big enough to amortize the fan-out).
  const std::vector<std::vector<VertexId>> batched_expected =
      mirror_track(gate6_batch);
  std::vector<GateMetrics> incavt_batched_by_threads;
  for (uint32_t threads : thread_counts) {
    std::vector<std::vector<VertexId>> track;
    incavt_batched_by_threads.push_back(
        MeasureIncAvt(sequence, k, l, /*lazy=*/true, repeats, &track,
                      threads, gate6_batch));
    AVT_CHECK_MSG(track == batched_expected,
                  "perf gate violated: batched IncAVT diverged across "
                  "thread counts");
    std::printf("threads %2u (batch %zu): incavt %8.2f ms/batch (%.2fx)\n",
                threads, gate6_batch,
                incavt_batched_by_threads.back().millis /
                    static_cast<double>(batched_expected.size() - 1),
                Ratio(incavt_batched_by_threads.front().millis,
                      incavt_batched_by_threads.back().millis));
  }
  for (size_t i = 1; i < thread_counts.size(); ++i) {
    AVT_CHECK_MSG(incavt_batched_by_threads[i].oracle_queries ==
                          incavt_batched_by_threads[0].oracle_queries &&
                      incavt_batched_by_threads[i].bound_probes ==
                          incavt_batched_by_threads[0].bound_probes,
                  "perf gate violated: batched IncAVT work counters "
                  "scale with the thread count");
  }

  // (d) Wall-clock scaling assertion, gated on the host: below 2 CPUs
  // wall scaling is unmeasurable (the PR-3 gate silently asserted
  // nothing there — this one says so); at >= 4 CPUs threads=max must
  // beat threads=1 on BOTH workloads.
  const double greedy_speedup = Ratio(greedy_by_threads.front().millis,
                                      greedy_by_threads.back().millis);
  const double incavt_batched_speedup =
      Ratio(incavt_batched_by_threads.front().millis,
            incavt_batched_by_threads.back().millis);
  const char* wall_assert = "recorded";
  if (host_cpus < 2) {
    wall_assert = "skipped";
    std::printf("scaling gate: SKIPPED — host has %u CPU(s); wall-clock "
                "scaling is unmeasurable here (outputs, counters, and "
                "batch identity asserted above)\n",
                host_cpus);
  } else if (host_cpus >= 4) {
    wall_assert = "enforced";
    AVT_CHECK_MSG(greedy_speedup > 1.0,
                  "perf gate violated: greedy threads=max is no faster "
                  "than threads=1 on a >=4-CPU host");
    AVT_CHECK_MSG(incavt_batched_speedup > 1.0,
                  "perf gate violated: batched IncAVT threads=max is no "
                  "faster than threads=1 on a >=4-CPU host");
    std::printf("scaling gate: ENFORCED — greedy %.2fx, batched incavt "
                "%.2fx at max threads vs 1 (%u CPUs)\n",
                greedy_speedup, incavt_batched_speedup, host_cpus);
  } else {
    std::printf("scaling gate: recorded only — %u CPUs is too few to "
                "enforce a speedup, too many to skip the record\n",
                host_cpus);
  }

  // --- Gate 7 (PR 7): crash-safe streaming ---------------------------
  // (a) WAL overhead on the streamed workload: the same engine run with
  // durability off, WAL fsync=never, WAL fsync=every-record, and WAL +
  // cadenced checkpoints. All four anchor tracks must be bit-identical
  // (the WAL is a pure observer of committed transactions); only the
  // wall clock may move.
  const std::string durability_out =
      flags.GetString("durability-out", "BENCH_PR7.json");
  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() / "avt_perf_gate_pr7_wal";
  const size_t gate7_checkpoint_every = 4;

  WallRun wal_off =
      MeasureDurableDrain(sequence, k, l, repeats, nullptr);
  AVT_CHECK_MSG(wal_off.track == lazy_track,
                "perf gate violated: durability-off streamed replay "
                "diverged");
  DurabilityOptions wal_never;
  wal_never.dir = wal_dir.string();
  wal_never.fsync = FsyncPolicy::kNever;
  WallRun wal_fsync_never =
      MeasureDurableDrain(sequence, k, l, repeats, &wal_never);
  DurabilityOptions wal_record = wal_never;
  wal_record.fsync = FsyncPolicy::kEveryRecord;
  WallRun wal_fsync_record =
      MeasureDurableDrain(sequence, k, l, repeats, &wal_record);
  DurabilityOptions wal_ckpt = wal_never;
  wal_ckpt.checkpoint_every = gate7_checkpoint_every;
  WallRun wal_checkpointed =
      MeasureDurableDrain(sequence, k, l, repeats, &wal_ckpt);
  AVT_CHECK_MSG(wal_fsync_never.track == wal_off.track &&
                    wal_fsync_record.track == wal_off.track &&
                    wal_checkpointed.track == wal_off.track,
                "perf gate violated: a durable arm's anchors diverged "
                "from the durability-off run (the WAL must be a pure "
                "observer)");
  std::printf("durability off:          %8.2f ms/delta\n",
              wal_off.millis / deltas);
  std::printf("wal fsync=never:         %8.2f ms/delta  (%.2fx overhead)\n",
              wal_fsync_never.millis / deltas,
              wal_off.millis > 0 ? wal_fsync_never.millis / wal_off.millis
                                 : 0.0);
  std::printf("wal fsync=every-record:  %8.2f ms/delta  (%.2fx overhead)\n",
              wal_fsync_record.millis / deltas,
              wal_off.millis > 0 ? wal_fsync_record.millis / wal_off.millis
                                 : 0.0);
  std::printf("wal + checkpoint/%zu:     %8.2f ms/delta\n",
              gate7_checkpoint_every, wal_checkpointed.millis / deltas);
  std::filesystem::remove_all(wal_dir);

  // (b) Recovery wall time: write a --recovery-deltas-long churn log
  // durably (fsync=never, initial checkpoint only — the worst case for
  // recovery: the whole WAL replays), then time AvtEngine::Recover and
  // assert the recovered run is bit-identical to the writer.
  const size_t recovery_deltas =
      static_cast<size_t>(flags.GetInt("recovery-deltas", 50000));
  AVT_CHECK_MSG(recovery_deltas >= 1, "--recovery-deltas must be >= 1");
  Rng recovery_rng(seed + 11);
  Graph recovery_g =
      ChungLuPowerLaw(4000, 6.0, 2.1, 200, recovery_rng);
  ChurnOptions recovery_churn;
  recovery_churn.num_snapshots = recovery_deltas + 1;
  recovery_churn.min_churn = 3;
  recovery_churn.max_churn = 8;
  SnapshotSequence recovery_sequence =
      MakeChurnSnapshots(recovery_g, recovery_churn, recovery_rng);
  const std::filesystem::path recovery_dir =
      std::filesystem::temp_directory_path() / "avt_perf_gate_pr7_recovery";
  std::filesystem::remove_all(recovery_dir);
  DurabilityOptions recovery_durability;
  recovery_durability.dir = recovery_dir.string();
  recovery_durability.fsync = FsyncPolicy::kNever;
  EngineOptions recovery_engine_options;
  recovery_engine_options.keep_snapshots = false;

  double recovery_write_millis = 0;
  std::vector<VertexId> recovery_expected_anchors;
  RunSummary recovery_expected_summary;
  {
    AvtEngine writer(
        std::make_unique<IncAvtTracker>(k, l),
        std::make_unique<SequenceSource>(&recovery_sequence),
        recovery_engine_options);
    Status armed = writer.EnableDurability(recovery_durability);
    AVT_CHECK_MSG(armed.ok(), armed.ToString().c_str());
    Timer timer;
    Status status = writer.Drain();
    recovery_write_millis = timer.ElapsedMillis();
    AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
    AVT_CHECK(writer.SnapshotsProcessed() == recovery_deltas + 1);
    recovery_expected_anchors = writer.last().anchors;
    recovery_expected_summary = writer.Summary();
  }
  const uint64_t recovery_wal_bytes = static_cast<uint64_t>(
      std::filesystem::file_size(recovery_dir /
                                 DeltaWal::kFileName));
  double recovery_millis = 0;
  {
    Timer timer;
    auto recovered = AvtEngine::Recover(
        std::make_unique<IncAvtTracker>(k, l),
        std::make_unique<SequenceSource>(&recovery_sequence),
        recovery_engine_options, recovery_durability);
    recovery_millis = timer.ElapsedMillis();
    AVT_CHECK_MSG(recovered.ok(), recovered.status().ToString().c_str());
    AVT_CHECK_MSG(
        recovered.value()->SnapshotsProcessed() == recovery_deltas + 1 &&
            recovered.value()->last().anchors == recovery_expected_anchors,
        "perf gate violated: recovered run's anchors diverged from the "
        "uninterrupted writer");
    RunSummary recovered_summary = recovered.value()->Summary();
    AVT_CHECK_MSG(
        recovered_summary.total_candidates ==
                recovery_expected_summary.total_candidates &&
            recovered_summary.total_followers ==
                recovery_expected_summary.total_followers &&
            recovered_summary.anchor_changes ==
                recovery_expected_summary.anchor_changes,
        "perf gate violated: recovered run's work counters diverged "
        "from the uninterrupted writer");
  }
  std::filesystem::remove_all(recovery_dir);
  const double recovery_per_delta =
      recovery_millis / static_cast<double>(recovery_deltas);
  std::printf("recovery: %zu-delta WAL (%.1f MiB) replayed in %.1f ms "
              "(%.3f ms/delta; durable write took %.1f ms)\n",
              recovery_deltas,
              static_cast<double>(recovery_wal_bytes) / (1024.0 * 1024.0),
              recovery_millis, recovery_per_delta, recovery_write_millis);

  // --- Gate 9 (PR 9): online integrity audit overhead ----------------
  // The streamed IncAVT workload with the sentinel auditor off / every
  // 16 transactions / every transaction. The audit (sampled coreness
  // probe + full K-order invariant sweep over one shared DecomposeCores)
  // runs pre-commit inside the engine, so the arms are timed around
  // Drain like gate 7. An audit is a read-only cross-check: all three
  // anchor tracks AND follower counts must be bit-identical, no audit
  // may fail on a clean stream, and the production cadence (every 16)
  // must cost at most 15% wall overhead.
  const std::string selfheal_out =
      flags.GetString("selfheal-out", "BENCH_PR9.json");
  const size_t audit_transitions =
      static_cast<size_t>(flags.GetInt("audit-transitions", 96));
  AVT_CHECK_MSG(audit_transitions >= 16,
                "--audit-transitions must be >= 16 so the every-16 arm "
                "audits at least once");
  const uint32_t audit_k = 3, audit_l = 4, audit_n = 2500;
  const uint32_t audit_churn_min = 260, audit_churn_max = 300;
  Rng audit_rng(seed + 17);
  Graph audit_g = ChungLuPowerLaw(audit_n, 7.0, 2.1, 120, audit_rng);
  ChurnOptions audit_churn;
  audit_churn.num_snapshots = audit_transitions + 1;
  audit_churn.min_churn = audit_churn_min;
  audit_churn.max_churn = audit_churn_max;
  SnapshotSequence audit_sequence =
      MakeChurnSnapshots(audit_g, audit_churn, audit_rng);
  const double audit_deltas = static_cast<double>(audit_transitions);

  AuditRun audit_off =
      MeasureAuditedDrain(audit_sequence, audit_k, audit_l, repeats, 0);
  AuditRun audit_16 =
      MeasureAuditedDrain(audit_sequence, audit_k, audit_l, repeats, 16);
  AuditRun audit_1 =
      MeasureAuditedDrain(audit_sequence, audit_k, audit_l, repeats, 1);
  AVT_CHECK_MSG(audit_16.track == audit_off.track &&
                    audit_1.track == audit_off.track,
                "perf gate violated: enabling audits changed the anchor "
                "track (audits must be read-only)");
  AVT_CHECK_MSG(audit_16.followers == audit_off.followers &&
                    audit_1.followers == audit_off.followers,
                "perf gate violated: enabling audits changed follower "
                "counts (audits must be read-only)");
  AVT_CHECK_MSG(audit_off.audits_run == 0,
                "perf gate violated: the audit-off arm ran audits");
  AVT_CHECK_MSG(audit_16.audits_run == audit_transitions / 16,
                "perf gate violated: the every-16 arm missed its audit "
                "cadence");
  AVT_CHECK_MSG(audit_1.audits_run == audit_transitions,
                "perf gate violated: the every-1 arm missed its audit "
                "cadence");
  AVT_CHECK_MSG(audit_16.audits_failed == 0 && audit_1.audits_failed == 0,
                "perf gate violated: an audit failed on a clean stream");
  const double audit_16_overhead =
      audit_off.millis > 0 ? audit_16.millis / audit_off.millis : 0.0;
  const double audit_1_overhead =
      audit_off.millis > 0 ? audit_1.millis / audit_off.millis : 0.0;
  std::printf("audit    off: %8.3f ms/delta\n",
              audit_off.millis / audit_deltas);
  std::printf("audit  ev-16: %8.3f ms/delta  %.3fx (bound 1.15x)  %" PRIu64
              " audits\n",
              audit_16.millis / audit_deltas, audit_16_overhead,
              audit_16.audits_run);
  std::printf("audit   ev-1: %8.3f ms/delta  %.3fx               %" PRIu64
              " audits\n",
              audit_1.millis / audit_deltas, audit_1_overhead,
              audit_1.audits_run);
  AVT_CHECK_MSG(audit_16_overhead <= 1.15,
                "perf gate violated: the every-16 audit cadence cost more "
                "than 15% wall overhead");

  // --- Emit JSON -----------------------------------------------------
  FILE* f = std::fopen(out.c_str(), "w");
  AVT_CHECK_MSG(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_gate\",\n");
  std::fprintf(f, "  \"pr\": 2,\n");
  std::fprintf(
      f,
      "  \"config\": {\"n\": %u, \"avg_degree\": 8.0, \"alpha\": 2.1, "
      "\"k\": %u, \"l\": %u, \"snapshots\": %zu, \"churn_min\": %u, "
      "\"churn_max\": %u, \"seed\": %" PRIu64 ", \"repeats\": %d},\n",
      n, k, l, T, churn, churn + 100, seed, repeats);
  std::fprintf(f, "  \"greedy_solve\": {\n");
  PrintMetrics(f, "before_scan", greedy_scan, ",");
  PrintMetrics(f, "after_lazy", greedy_lazy, ",");
  std::fprintf(f, "    \"wall_speedup\": %.2f,\n",
               Ratio(greedy_scan.millis, greedy_lazy.millis));
  std::fprintf(f, "    \"oracle_query_reduction\": %.2f\n",
               Ratio(static_cast<double>(greedy_scan.oracle_queries),
                     static_cast<double>(greedy_lazy.oracle_queries)));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"incavt_per_delta\": {\n");
  PrintMetrics(f, "before_eager", inc_eager, ",");
  PrintMetrics(f, "after_lazy", inc_lazy, ",");
  std::fprintf(f, "    \"wall_speedup\": %.2f,\n",
               Ratio(inc_eager.millis, inc_lazy.millis));
  std::fprintf(f, "    \"oracle_query_reduction\": %.2f\n",
               Ratio(static_cast<double>(inc_eager.oracle_queries),
                     static_cast<double>(inc_lazy.oracle_queries)));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"identical_outputs\": true\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  // --- Emit BENCH_PR3.json (thread scaling) --------------------------
  FILE* tf = std::fopen(threads_out.c_str(), "w");
  AVT_CHECK_MSG(tf != nullptr, "cannot open thread-scaling output file");
  std::fprintf(tf, "{\n");
  std::fprintf(tf, "  \"bench\": \"perf_gate_thread_scaling\",\n");
  std::fprintf(tf, "  \"pr\": 3,\n");
  std::fprintf(
      tf,
      "  \"config\": {\"n\": %u, \"avg_degree\": 8.0, \"alpha\": 2.1, "
      "\"k\": %u, \"l\": %u, \"snapshots\": %zu, \"churn_min\": %u, "
      "\"churn_max\": %u, \"seed\": %" PRIu64 ", \"repeats\": %d, "
      "\"strategy\": \"lazy\"},\n",
      n, k, l, T, churn, churn + 100, seed, repeats);
  std::fprintf(tf, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(tf, "  \"greedy_solve\": {\n");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::string key = "threads_" + std::to_string(thread_counts[i]);
    PrintMetrics(tf, key.c_str(), greedy_by_threads[i], ",");
  }
  std::fprintf(tf, "    \"speedup_max_threads_vs_1\": %.2f\n",
               Ratio(greedy_by_threads.front().millis,
                     greedy_by_threads.back().millis));
  std::fprintf(tf, "  },\n");
  std::fprintf(tf, "  \"incavt_per_delta\": {\n");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::string key = "threads_" + std::to_string(thread_counts[i]);
    PrintMetrics(tf, key.c_str(), incavt_by_threads[i], ",");
  }
  std::fprintf(tf, "    \"speedup_max_threads_vs_1\": %.2f\n",
               Ratio(incavt_by_threads.front().millis,
                     incavt_by_threads.back().millis));
  std::fprintf(tf, "  },\n");
  std::fprintf(tf, "  \"identical_outputs\": true\n");
  std::fprintf(tf, "}\n");
  std::fclose(tf);
  std::printf("wrote %s\n", threads_out.c_str());

  // --- Emit BENCH_PR5.json (streaming ingestion) ---------------------
  FILE* sf = std::fopen(stream_out.c_str(), "w");
  AVT_CHECK_MSG(sf != nullptr, "cannot open stream-ingestion output file");
  std::fprintf(sf, "{\n");
  std::fprintf(sf, "  \"bench\": \"perf_gate_stream_ingestion\",\n");
  std::fprintf(sf, "  \"pr\": 5,\n");
  std::fprintf(
      sf,
      "  \"config\": {\"n\": %u, \"avg_degree\": 8.0, \"alpha\": 2.1, "
      "\"k\": %u, \"l\": %u, \"snapshots\": %zu, \"churn_min\": %u, "
      "\"churn_max\": %u, \"seed\": %" PRIu64 ", \"repeats\": %d, "
      "\"strategy\": \"lazy\", \"threads\": 1, "
      "\"coalesce_window\": %zu},\n",
      n, k, l, T, churn, churn + 100, seed, repeats, coalesce_window);
  std::fprintf(sf, "  \"incavt_ingestion\": {\n");
  std::fprintf(sf,
               "    \"materialized\": {\"millis_per_delta\": %.3f, "
               "\"driver_bytes_peak\": %" PRIu64 "},\n",
               mat_millis / deltas, mat_bytes);
  std::fprintf(sf,
               "    \"streamed\": {\"millis_per_delta\": %.3f, "
               "\"driver_bytes_peak\": %" PRIu64 "},\n",
               str_millis / deltas, str_bytes);
  std::fprintf(sf,
               "    \"coalesced\": {\"millis_per_net_delta\": %.3f, "
               "\"net_transitions\": %zu, \"driver_bytes_peak\": %" PRIu64
               "},\n",
               coal_millis / coal_deltas, coal_transitions, coal_bytes);
  std::fprintf(sf, "    \"streamed_vs_materialized_wall_speedup\": %.2f,\n",
               Ratio(mat_millis, str_millis));
  std::fprintf(sf,
               "    \"driver_bytes_reduction\": %.1f\n",
               str_bytes > 0 ? static_cast<double>(mat_bytes) /
                                   static_cast<double>(str_bytes)
                             : 0.0);
  std::fprintf(sf, "  },\n");
  std::fprintf(sf,
               "  \"acceptance_matrix\": {\"source\": "
               "\"StreamingEdgeFileSource\", \"strategies\": [\"lazy\", "
               "\"eager\"], \"threads\": [1, 8], "
               "\"coalesce_window_identity\": 1},\n");
  std::fprintf(sf, "  \"identical_outputs\": true\n");
  std::fprintf(sf, "}\n");
  std::fclose(sf);
  std::printf("wrote %s\n", stream_out.c_str());

  // --- Emit BENCH_PR6.json (parallel scaling after the fix) ----------
  FILE* gf = std::fopen(scaling_out.c_str(), "w");
  AVT_CHECK_MSG(gf != nullptr, "cannot open scaling output file");
  std::fprintf(gf, "{\n");
  std::fprintf(gf, "  \"bench\": \"perf_gate_parallel_scaling\",\n");
  std::fprintf(gf, "  \"pr\": 6,\n");
  std::fprintf(
      gf,
      "  \"config\": {\"n\": %u, \"avg_degree\": 8.0, \"alpha\": 2.1, "
      "\"k\": %u, \"l\": %u, \"snapshots\": %zu, \"churn_min\": %u, "
      "\"churn_max\": %u, \"seed\": %" PRIu64 ", \"repeats\": %d, "
      "\"strategy\": \"lazy\", \"batch\": %zu},\n",
      n, k, l, T, churn, churn + 100, seed, repeats, gate6_batch);
  std::fprintf(gf, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(gf, "  \"wall_assert\": \"%s\",\n", wall_assert);
  std::fprintf(gf, "  \"greedy_solve\": {\n");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::string key = "threads_" + std::to_string(thread_counts[i]);
    PrintMetrics(gf, key.c_str(), greedy_by_threads[i], ",");
  }
  std::fprintf(gf, "    \"speedup_max_threads_vs_1\": %.2f\n",
               greedy_speedup);
  std::fprintf(gf, "  },\n");
  std::fprintf(gf, "  \"incavt_per_delta_batched\": {\n");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::string key = "threads_" + std::to_string(thread_counts[i]);
    PrintMetrics(gf, key.c_str(), incavt_batched_by_threads[i], ",");
  }
  std::fprintf(gf, "    \"speedup_max_threads_vs_1\": %.2f\n",
               incavt_batched_speedup);
  std::fprintf(gf, "  },\n");
  std::fprintf(gf, "  \"incavt_per_delta_batch1_speedup\": %.2f,\n",
               Ratio(incavt_by_threads.front().millis,
                     incavt_by_threads.back().millis));
  std::fprintf(gf, "  \"counters_thread_invariant\": true,\n");
  std::fprintf(gf, "  \"batch_identity\": [1, %zu, 16],\n", gate6_batch);
  std::fprintf(gf, "  \"identical_outputs\": true\n");
  std::fprintf(gf, "}\n");
  std::fclose(gf);
  std::printf("wrote %s\n", scaling_out.c_str());

  // --- Emit BENCH_PR7.json (crash-safe streaming) --------------------
  FILE* df = std::fopen(durability_out.c_str(), "w");
  AVT_CHECK_MSG(df != nullptr, "cannot open durability output file");
  std::fprintf(df, "{\n");
  std::fprintf(df, "  \"bench\": \"perf_gate_durability\",\n");
  std::fprintf(df, "  \"pr\": 7,\n");
  std::fprintf(
      df,
      "  \"config\": {\"n\": %u, \"avg_degree\": 8.0, \"alpha\": 2.1, "
      "\"k\": %u, \"l\": %u, \"snapshots\": %zu, \"churn_min\": %u, "
      "\"churn_max\": %u, \"seed\": %" PRIu64 ", \"repeats\": %d, "
      "\"strategy\": \"lazy\", \"checkpoint_every\": %zu},\n",
      n, k, l, T, churn, churn + 100, seed, repeats,
      gate7_checkpoint_every);
  std::fprintf(df, "  \"incavt_streamed_wall\": {\n");
  std::fprintf(df, "    \"durability_off\": {\"millis_per_delta\": %.3f},\n",
               wal_off.millis / deltas);
  std::fprintf(df,
               "    \"wal_fsync_never\": {\"millis_per_delta\": %.3f},\n",
               wal_fsync_never.millis / deltas);
  std::fprintf(
      df, "    \"wal_fsync_every_record\": {\"millis_per_delta\": %.3f},\n",
      wal_fsync_record.millis / deltas);
  std::fprintf(df,
               "    \"wal_checkpointed\": {\"millis_per_delta\": %.3f},\n",
               wal_checkpointed.millis / deltas);
  std::fprintf(df, "    \"wal_fsync_never_overhead_ratio\": %.3f,\n",
               wal_off.millis > 0 ? wal_fsync_never.millis / wal_off.millis
                                  : 0.0);
  std::fprintf(df, "    \"wal_fsync_every_record_overhead_ratio\": %.3f\n",
               wal_off.millis > 0 ? wal_fsync_record.millis / wal_off.millis
                                  : 0.0);
  std::fprintf(df, "  },\n");
  std::fprintf(df,
               "  \"recovery\": {\"deltas\": %zu, \"wal_bytes\": %" PRIu64
               ", \"durable_write_wall_millis\": %.1f, "
               "\"recover_wall_millis\": %.1f, "
               "\"recover_millis_per_delta\": %.4f},\n",
               recovery_deltas, recovery_wal_bytes, recovery_write_millis,
               recovery_millis, recovery_per_delta);
  std::fprintf(df, "  \"identical_outputs\": true\n");
  std::fprintf(df, "}\n");
  std::fclose(df);
  std::printf("wrote %s\n", durability_out.c_str());

  // --- Emit BENCH_PR9.json (self-healing audit overhead) -------------
  FILE* hf = std::fopen(selfheal_out.c_str(), "w");
  AVT_CHECK_MSG(hf != nullptr, "cannot open self-heal output file");
  std::fprintf(hf, "{\n");
  std::fprintf(hf, "  \"bench\": \"perf_gate_audit_overhead\",\n");
  std::fprintf(hf, "  \"pr\": 9,\n");
  std::fprintf(
      hf,
      "  \"config\": {\"n\": %u, \"avg_degree\": 7.0, \"alpha\": 2.1, "
      "\"k\": %u, \"l\": %u, \"transitions\": %zu, \"churn_min\": %u, "
      "\"churn_max\": %u, \"audit_sample\": 16, \"seed\": %" PRIu64
      ", \"repeats\": %d},\n",
      audit_n, audit_k, audit_l, audit_transitions, audit_churn_min,
      audit_churn_max, seed + 17, repeats);
  std::fprintf(hf, "  \"audited_drain_wall\": {\n");
  std::fprintf(hf,
               "    \"audit_off\": {\"millis_per_delta\": %.3f, "
               "\"audits\": 0},\n",
               audit_off.millis / audit_deltas);
  std::fprintf(hf,
               "    \"audit_every_16\": {\"millis_per_delta\": %.3f, "
               "\"audits\": %" PRIu64 ", \"overhead_ratio\": %.3f},\n",
               audit_16.millis / audit_deltas, audit_16.audits_run,
               audit_16_overhead);
  std::fprintf(hf,
               "    \"audit_every_1\": {\"millis_per_delta\": %.3f, "
               "\"audits\": %" PRIu64 ", \"overhead_ratio\": %.3f},\n",
               audit_1.millis / audit_deltas, audit_1.audits_run,
               audit_1_overhead);
  std::fprintf(hf, "    \"every_16_overhead_bound\": 1.15\n");
  std::fprintf(hf, "  },\n");
  std::fprintf(hf, "  \"audits_failed\": 0,\n");
  std::fprintf(hf, "  \"identical_outputs\": true\n");
  std::fprintf(hf, "}\n");
  std::fclose(hf);
  std::printf("wrote %s\n", selfheal_out.c_str());
  return 0;
}

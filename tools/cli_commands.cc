#include "cli_commands.h"

#include <algorithm>
#include <memory>

#include "anchor/anchored_core.h"
#include "anchor/brute_force.h"
#include "anchor/greedy.h"
#include "anchor/olak.h"
#include "anchor/rcm.h"
#include "core/avt.h"
#include "core/engine.h"
#include "core/run_summary.h"
#include "corelib/coreness_history.h"
#include "corelib/decomposition.h"
#include "corelib/graph_stats.h"
#include "gen/churn.h"
#include "gen/datasets.h"
#include "gen/degree_sequence.h"
#include "gen/generator_source.h"
#include "gen/models.h"
#include "gen/temporal.h"
#include "graph/delta_source.h"
#include "graph/edge_log.h"
#include "graph/io.h"
#include "graph/resilient_source.h"
#include "util/table.h"

namespace avt {
namespace cli {
namespace {

// Maps a Status onto the CLI's exit-code contract (pinned by cli_test
// and consumed by the crash-recovery and poison-stream e2e scripts):
// usage and invalid input are 2, a missing file or dataset is 3,
// corrupt on-disk state (WAL/checkpoint damage, malformed frames) is
// 4, and IO failures are 5 — kUnavailable (a source that stayed down
// past the engine's patience) maps to 5 too, the transport bucket.
// Everything else collapses to the generic failure 1. A stream run
// that COMPLETES but ends degraded (quarantined deltas, an audit
// recovery) exits 6, distinct from every failure code above.
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 2;
    case StatusCode::kNotFound: return 3;
    case StatusCode::kCorruption: return 4;
    case StatusCode::kIoError: return 5;
    case StatusCode::kUnavailable: return 5;
    default: return 1;
  }
}

// Exit code for a stream run that drained successfully but may have
// degraded along the way (see above).
constexpr int kExitDegraded = 6;

// Loads the graph named by the first positional argument. Returns 0 on
// success, else the exit code the command should return.
int LoadPositionalGraph(const Flags& flags, FILE* err, Graph* graph) {
  if (flags.positional().empty()) {
    std::fprintf(err, "error: missing <edge-list> argument\n");
    return 2;
  }
  auto loaded = LoadEdgeList(flags.positional()[0]);
  if (!loaded.ok()) {
    std::fprintf(err, "error: %s\n", loaded.status().ToString().c_str());
    return ExitCodeFor(loaded.status());
  }
  *graph = std::move(loaded).value();
  return 0;
}

std::unique_ptr<AnchorSolver> MakeSolver(const std::string& name) {
  if (name == "greedy") return std::make_unique<GreedySolver>();
  if (name == "olak") return std::make_unique<OlakSolver>();
  if (name == "rcm") return std::make_unique<RcmSolver>();
  if (name == "brute") return std::make_unique<BruteForceSolver>();
  return nullptr;
}

bool ParseAlgorithm(const std::string& name, AvtAlgorithm* algorithm) {
  if (name == "greedy") {
    *algorithm = AvtAlgorithm::kGreedy;
  } else if (name == "olak") {
    *algorithm = AvtAlgorithm::kOlak;
  } else if (name == "rcm") {
    *algorithm = AvtAlgorithm::kRcm;
  } else if (name == "incavt") {
    *algorithm = AvtAlgorithm::kIncAvt;
  } else if (name == "brute") {
    *algorithm = AvtAlgorithm::kBruteForce;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int RunGenCommand(const Flags& flags, FILE* out, FILE* err) {
  const std::string model = flags.GetString("model", "chung-lu");
  const VertexId n = static_cast<VertexId>(flags.GetInt("n", 1000));
  const double avg_degree = flags.GetDouble("avg-degree", 6.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string path = flags.GetString("out", "");
  if (path.empty()) {
    std::fprintf(err, "error: --out=<path> is required\n");
    return 2;
  }

  Rng rng(seed);
  Graph g;
  if (model == "chung-lu") {
    g = ChungLuPowerLaw(n, avg_degree, flags.GetDouble("alpha", 2.2),
                        static_cast<uint32_t>(flags.GetInt(
                            "max-degree", std::max<int64_t>(n / 20, 16))),
                        rng);
  } else if (model == "er") {
    g = ErdosRenyi(
        n, static_cast<uint64_t>(avg_degree * static_cast<double>(n) / 2),
        rng);
  } else if (model == "ba") {
    g = BarabasiAlbert(
        n,
        static_cast<uint32_t>(std::max<int64_t>(
            1, static_cast<int64_t>(avg_degree / 2))),
        rng);
  } else if (model == "ws") {
    g = WattsStrogatz(n,
                      static_cast<uint32_t>(std::max<int64_t>(
                          2, static_cast<int64_t>(avg_degree))),
                      flags.GetDouble("beta", 0.2), rng);
  } else if (model == "config") {
    g = ConfigurationModel(n, avg_degree, flags.GetDouble("alpha", 2.2),
                           static_cast<uint32_t>(flags.GetInt(
                               "max-degree",
                               std::max<int64_t>(n / 20, 16))),
                           rng);
  } else if (model == "sbm") {
    g = PlantedPartition(
        n, static_cast<uint32_t>(flags.GetInt("communities", 8)),
        static_cast<uint64_t>(avg_degree * static_cast<double>(n) / 2),
        flags.GetDouble("p-intra", 0.8), rng);
  } else {
    std::fprintf(err,
                 "error: unknown --model '%s' (chung-lu, er, ba, ws, "
                 "config, sbm)\n",
                 model.c_str());
    return 2;
  }

  Status status = SaveEdgeList(g, path);
  if (!status.ok()) {
    std::fprintf(err, "error: %s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  std::fprintf(out, "wrote %s: %u vertices, %llu edges (model %s)\n",
               path.c_str(), g.NumVertices(),
               static_cast<unsigned long long>(g.NumEdges()),
               model.c_str());
  return 0;
}

int RunStatsCommand(const Flags& flags, FILE* out, FILE* err) {
  Graph g;
  if (int rc = LoadPositionalGraph(flags, err, &g)) return rc;
  GraphStats stats = ComputeGraphStats(g);
  std::fprintf(out, "vertices            %u\n", stats.num_vertices);
  std::fprintf(out, "edges               %llu\n",
               static_cast<unsigned long long>(stats.num_edges));
  std::fprintf(out, "average degree      %.3f\n", stats.average_degree);
  std::fprintf(out, "max degree          %u\n", stats.max_degree);
  std::fprintf(out, "degeneracy          %u\n", stats.degeneracy);
  std::fprintf(out, "isolated vertices   %llu\n",
               static_cast<unsigned long long>(stats.isolated_vertices));
  std::fprintf(out, "triangles           %llu\n",
               static_cast<unsigned long long>(stats.triangle_estimate));
  std::fprintf(out, "global clustering   %.4f\n",
               GlobalClusteringCoefficient(g));
  std::fprintf(out, "assortativity       %.4f\n", DegreeAssortativity(g));
  std::vector<uint64_t> components = ComponentSizes(g);
  std::fprintf(out, "components          %zu (largest %llu)\n",
               components.size(),
               components.empty()
                   ? 0ULL
                   : static_cast<unsigned long long>(components[0]));
  return 0;
}

int RunCoreCommand(const Flags& flags, FILE* out, FILE* err) {
  Graph g;
  if (int rc = LoadPositionalGraph(flags, err, &g)) return rc;
  CoreDecomposition cores = DecomposeCores(g);
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 0));
  std::fprintf(out, "degeneracy %u\n", cores.max_core);
  if (k > 0) {
    std::vector<VertexId> members = KCoreMembers(cores, k);
    std::fprintf(out, "|C_%u| = %zu\n", k, members.size());
    if (flags.GetBool("list", false)) {
      for (VertexId v : members) std::fprintf(out, "%u\n", v);
    }
  } else {
    // Core-size profile: one line per k up to the degeneracy.
    for (uint32_t level = 1; level <= cores.max_core; ++level) {
      std::fprintf(out, "k=%-3u |C_k|=%zu\n", level,
                   KCoreMembers(cores, level).size());
    }
  }
  return 0;
}

int RunAnchorsCommand(const Flags& flags, FILE* out, FILE* err) {
  Graph g;
  if (int rc = LoadPositionalGraph(flags, err, &g)) return rc;
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  const uint32_t l = static_cast<uint32_t>(flags.GetInt("l", 5));
  const std::string algo = flags.GetString("algo", "greedy");
  std::unique_ptr<AnchorSolver> solver = MakeSolver(algo);
  if (!solver) {
    std::fprintf(err,
                 "error: unknown --algo '%s' (greedy, olak, rcm, brute)\n",
                 algo.c_str());
    return 2;
  }
  SolverResult result = solver->Solve(g, k, l);
  std::fprintf(out, "algorithm  %s\n", solver->name().c_str());
  std::fprintf(out, "anchors   ");
  for (VertexId a : result.anchors) std::fprintf(out, " %u", a);
  std::fprintf(out, "\nfollowers ");
  for (VertexId f : result.followers) std::fprintf(out, " %u", f);
  std::fprintf(out, "\n|F| = %u, candidates visited = %llu\n",
               result.num_followers(),
               static_cast<unsigned long long>(result.candidates_visited));
  AnchoredCoreResult exact = ComputeAnchoredKCore(g, k, result.anchors);
  std::fprintf(out, "|C_%u(S)| = %zu\n", k, exact.members.size());
  return 0;
}

int RunTrackCommand(const Flags& flags, FILE* out, FILE* err) {
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  const uint32_t l = static_cast<uint32_t>(flags.GetInt("l", 5));
  const size_t T = static_cast<size_t>(flags.GetInt("t", 10));
  const std::string algo = flags.GetString("algo", "incavt");

  AvtAlgorithm algorithm;
  if (!ParseAlgorithm(algo, &algorithm)) {
    std::fprintf(err,
                 "error: unknown --algo '%s' (greedy, olak, rcm, incavt, "
                 "brute)\n",
                 algo.c_str());
    return 2;
  }

  SnapshotSequence sequence;
  const std::string dataset = flags.GetString("dataset", "");
  const std::string temporal = flags.GetString("temporal", "");
  if (!dataset.empty()) {
    const DatasetInfo& info = DatasetByName(dataset);
    sequence = MakeDatasetSnapshots(
        info, flags.GetDouble("scale", 0.25), T,
        static_cast<uint64_t>(flags.GetInt("seed", 42)));
  } else if (!temporal.empty()) {
    auto log = LoadTemporalEdgeList(temporal);
    if (!log.ok()) {
      std::fprintf(err, "error: %s\n", log.status().ToString().c_str());
      return ExitCodeFor(log.status());
    }
    sequence = WindowSnapshots(
        log.value(), T,
        static_cast<uint32_t>(flags.GetInt("window", 45)));
  } else {
    std::fprintf(err,
                 "error: one of --dataset=<name> or --temporal=<file> is "
                 "required\n");
    return 2;
  }

  AvtRunResult run = RunAvt(sequence, algorithm, k, l);
  TablePrinter table(
      {"t", "followers", "anchored_core", "candidates", "millis"});
  for (const AvtSnapshotResult& snap : run.snapshots) {
    table.Row()
        .UInt(snap.t)
        .UInt(snap.num_followers)
        .UInt(snap.anchored_core_size)
        .UInt(snap.candidates_visited)
        .Double(snap.millis, 2);
  }
  std::fprintf(out, "%s", table.ToText().c_str());

  CorenessHistory history = CorenessHistory::Compute(sequence);
  std::fprintf(out, "workload smoothness: %.4f of (vertex, transition) "
                    "pairs keep their core number\n",
               history.Smoothness());
  return 0;
}

int RunStreamCommand(const Flags& flags, FILE* out, FILE* err) {
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  const uint32_t l = static_cast<uint32_t>(flags.GetInt("l", 5));
  const size_t T = static_cast<size_t>(flags.GetInt("t", 10));
  const std::string algo = flags.GetString("algo", "incavt");
  AvtAlgorithm algorithm;
  if (!ParseAlgorithm(algo, &algorithm)) {
    std::fprintf(err,
                 "error: unknown --algo '%s' (greedy, olak, rcm, incavt, "
                 "brute)\n",
                 algo.c_str());
    return 2;
  }
  const int64_t coalesce = flags.Has("coalesce-window")
                               ? flags.GetInt("coalesce-window", -1)
                               : 1;
  if (coalesce < 1) {
    std::fprintf(err,
                 "error: --coalesce-window must be a positive integer "
                 "(got '%s')\n",
                 flags.GetString("coalesce-window", "").c_str());
    return 2;
  }
  const int64_t batch = flags.Has("batch") ? flags.GetInt("batch", -1) : 1;
  if (batch < 1) {
    std::fprintf(err,
                 "error: --batch must be a positive integer (got '%s')\n",
                 flags.GetString("batch", "").c_str());
    return 2;
  }

  // Crash-safety flags (docs/DURABILITY.md).
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  const int64_t checkpoint_every =
      flags.Has("checkpoint-every") ? flags.GetInt("checkpoint-every", -1)
                                    : 0;
  if (checkpoint_every < 0) {
    std::fprintf(err,
                 "error: --checkpoint-every must be a non-negative integer "
                 "(got '%s')\n",
                 flags.GetString("checkpoint-every", "").c_str());
    return 2;
  }
  const bool resume = flags.GetBool("resume", false);
  if (checkpoint_dir.empty() &&
      (resume || flags.Has("checkpoint-every") || flags.Has("fsync"))) {
    std::fprintf(err,
                 "error: --resume/--checkpoint-every/--fsync need "
                 "--checkpoint-dir=<dir>\n");
    return 2;
  }
  FsyncPolicy fsync = FsyncPolicy::kNever;
  const std::string fsync_name = flags.GetString("fsync", "never");
  if (fsync_name == "never") {
    fsync = FsyncPolicy::kNever;
  } else if (fsync_name == "record") {
    fsync = FsyncPolicy::kEveryRecord;
  } else {
    std::fprintf(err, "error: unknown --fsync '%s' (never, record)\n",
                 fsync_name.c_str());
    return 2;
  }

  // Fault-injection / retry flags (graph/resilient_source.h). A
  // nonzero --fault-rate (or an explicit --fault-corrupt-after) wraps
  // the source in FaultInjectingSource + RetryingSource: transient
  // faults are absorbed with bounded backoff, corruption surfaces as
  // exit 4.
  const double fault_rate = flags.GetDouble("fault-rate", 0.0);
  if (fault_rate < 0.0 || fault_rate >= 1.0) {
    std::fprintf(err, "error: --fault-rate must be in [0, 1) (got '%s')\n",
                 flags.GetString("fault-rate", "").c_str());
    return 2;
  }
  const int64_t max_retries = flags.GetInt("max-retries", 8);
  if (max_retries < 0) {
    std::fprintf(err,
                 "error: --max-retries must be a non-negative integer "
                 "(got '%s')\n",
                 flags.GetString("max-retries", "").c_str());
    return 2;
  }

  // Self-healing flags (core/health.h, docs/DURABILITY.md): cadenced
  // integrity audits, the poison-delta quarantine, the source circuit
  // breaker, and the corruption drill.
  const int64_t audit_every =
      flags.Has("audit-every") ? flags.GetInt("audit-every", -1) : 0;
  if (audit_every < 0) {
    std::fprintf(err,
                 "error: --audit-every must be a non-negative integer "
                 "(got '%s')\n",
                 flags.GetString("audit-every", "").c_str());
    return 2;
  }
  if ((flags.Has("audit-sample") || flags.Has("audit-seed")) &&
      audit_every == 0) {
    std::fprintf(err,
                 "error: --audit-sample/--audit-seed need "
                 "--audit-every=<N>\n");
    return 2;
  }
  const int64_t audit_sample =
      flags.Has("audit-sample") ? flags.GetInt("audit-sample", -1) : 16;
  if (audit_sample < 0) {
    std::fprintf(err,
                 "error: --audit-sample must be a non-negative integer "
                 "(got '%s')\n",
                 flags.GetString("audit-sample", "").c_str());
    return 2;
  }
  const std::string quarantine_dir = flags.GetString("quarantine-dir", "");
  const int64_t max_universe =
      flags.Has("max-universe") ? flags.GetInt("max-universe", -1) : 0;
  if (max_universe < 0) {
    std::fprintf(err,
                 "error: --max-universe must be a non-negative integer "
                 "(got '%s')\n",
                 flags.GetString("max-universe", "").c_str());
    return 2;
  }
  const double poison_rate = flags.GetDouble("poison-rate", 0.0);
  if (poison_rate < 0.0 || poison_rate >= 1.0) {
    std::fprintf(err, "error: --poison-rate must be in [0, 1) (got '%s')\n",
                 flags.GetString("poison-rate", "").c_str());
    return 2;
  }
  const bool breaker = flags.GetBool("breaker", false);
  if (!breaker && (flags.Has("breaker-window") ||
                   flags.Has("breaker-threshold") ||
                   flags.Has("breaker-cooldown"))) {
    std::fprintf(err,
                 "error: --breaker-window/--breaker-threshold/"
                 "--breaker-cooldown need --breaker\n");
    return 2;
  }
  const int64_t corrupt_state_after =
      flags.Has("corrupt-state-after")
          ? flags.GetInt("corrupt-state-after", -1)
          : -1;
  if (flags.Has("corrupt-state-after") &&
      (corrupt_state_after < 0 || checkpoint_dir.empty() ||
       audit_every == 0)) {
    std::fprintf(err,
                 "error: --corrupt-state-after needs a non-negative "
                 "transaction index, --checkpoint-dir, and --audit-every "
                 "(the drill exists to exercise audit-triggered rollback "
                 "recovery)\n");
    return 2;
  }

  // Build the source. A sequence source needs its backing sequence
  // alive for the whole run; it lives here.
  SnapshotSequence sequence;
  std::unique_ptr<DeltaSource> source;
  const std::string kind = flags.GetString("source", "file");
  if (kind == "file") {
    const std::string temporal = flags.GetString("temporal", "");
    if (temporal.empty()) {
      std::fprintf(err,
                   "error: --source=file needs --temporal=<edge list>\n");
      return 2;
    }
    StatusOr<std::unique_ptr<StreamingEdgeFileSource>> opened =
        Status::InvalidArgument("unopened");
    const bool has_meta = flags.Has("meta-tmin") || flags.Has("meta-tmax") ||
                          flags.Has("meta-vertices");
    if (has_meta) {
      // Caller-supplied stream metadata skips the O(file) pre-scan
      // (the two-pass fix) — all three values or none.
      if (!(flags.Has("meta-tmin") && flags.Has("meta-tmax") &&
            flags.Has("meta-vertices"))) {
        std::fprintf(err,
                     "error: --meta-tmin/--meta-tmax/--meta-vertices must "
                     "be supplied together\n");
        return 2;
      }
      TemporalFileMetadata meta;
      meta.t_min = flags.GetInt("meta-tmin", 0);
      meta.t_max = flags.GetInt("meta-tmax", 0);
      const int64_t vertices = flags.GetInt("meta-vertices", -1);
      if (vertices <= 0 || meta.t_max < meta.t_min) {
        std::fprintf(err,
                     "error: stream metadata needs --meta-vertices > 0 and "
                     "--meta-tmax >= --meta-tmin\n");
        return 2;
      }
      meta.num_vertices = static_cast<VertexId>(vertices);
      opened = StreamingEdgeFileSource::Open(
          temporal, T, static_cast<uint32_t>(flags.GetInt("window", 45)),
          meta);
    } else {
      opened = StreamingEdgeFileSource::Open(
          temporal, T, static_cast<uint32_t>(flags.GetInt("window", 45)));
    }
    if (!opened.ok()) {
      std::fprintf(err, "error: %s\n",
                   opened.status().ToString().c_str());
      return ExitCodeFor(opened.status());
    }
    source = std::move(opened).value();
  } else if (kind == "binlog") {
    const std::string binlog = flags.GetString("binlog", "");
    if (binlog.empty()) {
      std::fprintf(err,
                   "error: --source=binlog needs --binlog=<edge log>\n");
      return 2;
    }
    auto opened = MmapEdgeLogSource::Open(binlog);
    if (!opened.ok()) {
      std::fprintf(err, "error: %s\n",
                   opened.status().ToString().c_str());
      return ExitCodeFor(opened.status());
    }
    source = std::move(opened).value();
  } else if (kind == "gen") {
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
    Graph initial = ChungLuPowerLaw(
        static_cast<VertexId>(flags.GetInt("n", 1000)),
        flags.GetDouble("avg-degree", 6.0), flags.GetDouble("alpha", 2.2),
        static_cast<uint32_t>(
            flags.GetInt("max-degree",
                         std::max<int64_t>(flags.GetInt("n", 1000) / 20,
                                           16))),
        rng);
    ChurnOptions churn;
    churn.num_snapshots = T;
    churn.min_churn =
        static_cast<uint32_t>(flags.GetInt("churn-min", 100));
    churn.max_churn =
        static_cast<uint32_t>(flags.GetInt("churn-max", 250));
    source = std::make_unique<ChurnSource>(std::move(initial), churn, rng);
  } else if (kind == "sequence") {
    const std::string dataset = flags.GetString("dataset", "");
    if (dataset.empty()) {
      std::fprintf(err,
                   "error: --source=sequence needs --dataset=<name>\n");
      return 2;
    }
    const DatasetInfo& info = DatasetByName(dataset);
    sequence = MakeDatasetSnapshots(
        info, flags.GetDouble("scale", 0.25), T,
        static_cast<uint64_t>(flags.GetInt("seed", 42)));
    source = std::make_unique<SequenceSource>(&sequence);
  } else {
    std::fprintf(err,
                 "error: unknown --source '%s' (file, binlog, gen, "
                 "sequence)\n",
                 kind.c_str());
    return 2;
  }
  if (fault_rate > 0.0 || flags.Has("fault-corrupt-after")) {
    FaultInjectionOptions fault;
    fault.seed = static_cast<uint64_t>(flags.GetInt("fault-seed", 1));
    fault.transient_rate = fault_rate;
    fault.corrupt_after = flags.GetInt("fault-corrupt-after", -1);
    source = std::make_unique<FaultInjectingSource>(std::move(source), fault);
    RetryOptions retry;
    retry.max_retries = static_cast<int>(max_retries);
    source = std::make_unique<RetryingSource>(std::move(source), retry);
  }
  if (breaker) {
    CircuitBreakerOptions breaker_options;
    breaker_options.window = static_cast<size_t>(
        flags.GetInt("breaker-window", 8));
    breaker_options.failure_threshold =
        flags.GetDouble("breaker-threshold", 0.5);
    breaker_options.cooldown_pulls = static_cast<size_t>(
        flags.GetInt("breaker-cooldown", 16));
    if (breaker_options.window == 0 ||
        breaker_options.failure_threshold <= 0.0 ||
        breaker_options.failure_threshold > 1.0 ||
        breaker_options.cooldown_pulls == 0) {
      std::fprintf(err,
                   "error: --breaker-window/--breaker-cooldown must be "
                   "positive and --breaker-threshold in (0, 1]\n");
      return 2;
    }
    source = std::make_unique<CircuitBreakerSource>(std::move(source),
                                                    breaker_options);
  }
  if (coalesce > 1) {
    source = std::make_unique<CoalescingSource>(
        std::move(source), static_cast<size_t>(coalesce));
  }
  PoisonInjectingSource* poison_source = nullptr;
  if (poison_rate > 0.0) {
    // Outermost on purpose: CoalescingSource canonicalizes merged
    // deltas (dropping self-loops), which would silently launder the
    // poison before the engine ever saw it.
    PoisonInjectionOptions poison;
    poison.seed = static_cast<uint64_t>(flags.GetInt("poison-seed", 99));
    poison.poison_rate = poison_rate;
    auto poisoned = std::make_unique<PoisonInjectingSource>(
        std::move(source), poison);
    poison_source = poisoned.get();
    source = std::move(poisoned);
  }

  auto make_tracker = [&]() {
    return MakeTracker(algorithm, k, l, static_cast<size_t>(batch));
  };
  std::unique_ptr<AvtTracker> tracker = make_tracker();

  EngineOptions engine_options;
  engine_options.audit.every = static_cast<size_t>(audit_every);
  engine_options.audit.sample = static_cast<size_t>(audit_sample);
  engine_options.audit.seed =
      static_cast<uint64_t>(flags.GetInt("audit-seed", 0x5eed));
  engine_options.quarantine_dir = quarantine_dir;
  engine_options.max_universe = static_cast<VertexId>(max_universe);

  std::unique_ptr<AvtEngine> engine;
  if (checkpoint_dir.empty()) {
    engine = std::make_unique<AvtEngine>(std::move(tracker),
                                         std::move(source), engine_options);
  } else {
    // The fingerprint already covers the tracker/source names and the
    // batch width; fold in every flag that shapes the STREAM itself so
    // a resume under different parameters is rejected, not diverging.
    DurabilityOptions durability;
    durability.dir = checkpoint_dir;
    durability.checkpoint_every = static_cast<size_t>(checkpoint_every);
    durability.fsync = fsync;
    durability.config_extra =
        "k=" + std::to_string(k) + ";l=" + std::to_string(l) +
        ";algo=" + algo + ";coalesce=" + std::to_string(coalesce) +
        ";source=" + kind + ";t=" + std::to_string(T) +
        ";window=" + std::to_string(flags.GetInt("window", 45)) +
        ";seed=" + std::to_string(flags.GetInt("seed", 42)) +
        ";temporal=" + flags.GetString("temporal", "") +
        ";binlog=" + flags.GetString("binlog", "") +
        ";dataset=" + flags.GetString("dataset", "") +
        ";scale=" + std::to_string(flags.GetDouble("scale", 0.25)) +
        ";n=" + std::to_string(flags.GetInt("n", 1000)) +
        ";churn=" + std::to_string(flags.GetInt("churn-min", 100)) + "-" +
        std::to_string(flags.GetInt("churn-max", 250));
    if (resume) {
      auto recovered = AvtEngine::Recover(std::move(tracker),
                                          std::move(source), engine_options,
                                          durability);
      if (!recovered.ok()) {
        std::fprintf(err, "error: %s\n",
                     recovered.status().ToString().c_str());
        return ExitCodeFor(recovered.status());
      }
      engine = std::move(recovered).value();
    } else {
      engine = std::make_unique<AvtEngine>(std::move(tracker),
                                           std::move(source),
                                           engine_options);
      Status armed = engine->EnableDurability(durability);
      if (!armed.ok()) {
        std::fprintf(err, "error: %s\n", armed.ToString().c_str());
        return ExitCodeFor(armed);
      }
    }
  }
  // A factory lets an audit divergence self-heal by rollback rebuild
  // instead of halting (trackers are deterministic, so a pristine
  // replacement replays the WAL to the identical state).
  engine->SetTrackerFactory(make_tracker);

  TablePrinter table(
      {"t", "vertices", "followers", "anchored_core", "candidates",
       "millis"});
  engine->SetObserver([&](const AvtSnapshotResult& snap) {
    table.Row()
        .UInt(snap.t)
        .UInt(engine->NumVertices())
        .UInt(snap.num_followers)
        .UInt(snap.anchored_core_size)
        .UInt(snap.candidates_visited)
        .Double(snap.millis, 2);
    if (corrupt_state_after >= 0 &&
        snap.t == static_cast<size_t>(corrupt_state_after)) {
      // Corruption drill: arm an index desync that fires right before
      // the next due audit. The audit must catch it and the rollback
      // recovery must heal it — exercised end to end by
      // scripts/poison_stream_e2e.sh.
      engine->RequestAuditFaultDrill();
    }
  });
  Status status = engine->Drain();
  if (!status.ok()) {
    std::fprintf(err, "error: %s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  std::fprintf(out, "%s", table.ToText().c_str());
  std::fprintf(out, "source %s: %zu snapshots, %u vertices discovered\n",
               engine->source().name().c_str(),
               engine->SnapshotsProcessed(), engine->NumVertices());
  std::fprintf(out, "%s\n", FormatRunSummary(engine->Summary()).c_str());
  // Health line: the self-healing telemetry in one greppable place
  // (poison_stream_e2e.sh asserts on it). Printed before the final
  // line so `tail -1` still yields the machine-diffable state.
  const RunSummary summary = engine->Summary();
  std::fprintf(out,
               "health: %s audits=%llu failures=%llu quarantined=%llu "
               "recoveries=%llu breaker-opens=%llu\n",
               engine->health().Describe().c_str(),
               static_cast<unsigned long long>(summary.audits_run),
               static_cast<unsigned long long>(summary.audits_failed),
               static_cast<unsigned long long>(summary.deltas_quarantined),
               static_cast<unsigned long long>(summary.recoveries),
               static_cast<unsigned long long>(summary.breaker_opens));
  if (poison_source != nullptr) {
    std::fprintf(out, "poison injected: %llu\n",
                 static_cast<unsigned long long>(
                     poison_source->poisons_injected()));
  }
  // Machine-diffable final state for the crash-recovery e2e: identical
  // between an uninterrupted run and a killed+resumed one (the
  // durability layer's whole invariant).
  if (engine->SnapshotsProcessed() > 0) {
    std::fprintf(out, "final t=%zu vertices=%u anchors:",
                 engine->last().t, engine->NumVertices());
    for (VertexId a : engine->last().anchors) std::fprintf(out, " %u", a);
    std::fprintf(out, "\n");
  }
  // The run completed, but a degraded state (quarantined poison, an
  // audit recovery, breaker trips) is worth a distinct signal for
  // scripts that must notice without parsing: exit 6.
  return engine->health().state() == HealthState::kDegraded ? kExitDegraded
                                                            : 0;
}

int RunQuarantineCommand(const Flags& flags, FILE* out, FILE* err) {
  if (flags.positional().empty()) {
    std::fprintf(err,
                 "error: missing <quarantine-dir-or-file> argument\n");
    return 2;
  }
  std::string path = flags.positional()[0];
  const std::string suffix = ".avtq";
  if (path.size() < suffix.size() ||
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) !=
          0) {
    path += "/";
    path += QuarantineLog::kFileName;
  }
  auto read = QuarantineLog::ReadAll(path);
  if (!read.ok()) {
    std::fprintf(err, "error: %s\n", read.status().ToString().c_str());
    return ExitCodeFor(read.status());
  }
  const std::vector<QuarantineRecord>& records = read.value();
  std::fprintf(out, "%zu quarantined delta(s) in %s\n", records.size(),
               path.c_str());
  for (const QuarantineRecord& record : records) {
    std::fprintf(out, "#%llu reason=%s pull=%llu +%zu -%zu %s\n",
                 static_cast<unsigned long long>(record.seq),
                 QuarantineReasonName(record.reason),
                 static_cast<unsigned long long>(record.source_pull),
                 record.delta.insertions.size(),
                 record.delta.deletions.size(), record.detail.c_str());
  }
  return 0;
}

int RunConvertCommand(const Flags& flags, FILE* out, FILE* err) {
  if (flags.positional().empty()) {
    std::fprintf(err, "error: missing <temporal-edge-list> argument\n");
    return 2;
  }
  const size_t T = static_cast<size_t>(flags.GetInt("t", 10));
  const uint32_t window =
      static_cast<uint32_t>(flags.GetInt("window", 45));

  // Two output modes: a second positional transcodes the text log into
  // a binary edge log (`convert in.txt out.avtb`); without it, the
  // historical snapshot-file mode (--out-prefix) materializes every
  // window as its own edge list.
  if (flags.positional().size() >= 2) {
    const std::string& text = flags.positional()[0];
    const std::string& binlog = flags.positional()[1];
    const uint32_t index_every = static_cast<uint32_t>(
        flags.GetInt("index-every", 64));
    auto written =
        ConvertTemporalToEdgeLog(text, T, window, binlog, index_every);
    if (!written.ok()) {
      std::fprintf(err, "error: %s\n",
                   written.status().ToString().c_str());
      return ExitCodeFor(written.status());
    }
    const EdgeLogWriteStats& stats = written.value();
    std::fprintf(out,
                 "wrote %s: %llu deltas, %u vertices, %llu bytes "
                 "(T=%zu, window=%u days)\n",
                 binlog.c_str(),
                 static_cast<unsigned long long>(stats.deltas),
                 stats.num_vertices,
                 static_cast<unsigned long long>(stats.bytes), T, window);
    return 0;
  }

  auto log = LoadTemporalEdgeList(flags.positional()[0]);
  if (!log.ok()) {
    std::fprintf(err, "error: %s\n", log.status().ToString().c_str());
    return ExitCodeFor(log.status());
  }
  const std::string prefix = flags.GetString("out-prefix", "snapshot");

  SnapshotSequence sequence = WindowSnapshots(log.value(), T, window);
  for (size_t t = 0; t < sequence.NumSnapshots(); ++t) {
    std::string path = prefix + "_" + std::to_string(t) + ".txt";
    Status status = SaveEdgeList(sequence.Materialize(t), path);
    if (!status.ok()) {
      std::fprintf(err, "error: %s\n", status.ToString().c_str());
      return ExitCodeFor(status);
    }
    std::fprintf(out, "wrote %s\n", path.c_str());
  }
  return 0;
}

std::string UsageText() {
  return
      "usage: avt_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  gen      generate a random graph      (--model --n --avg-degree "
      "--out)\n"
      "  stats    structural statistics        (<edge-list>)\n"
      "  core     core decomposition           (<edge-list> [--k "
      "[--list]])\n"
      "  anchors  anchored k-core query        (<edge-list> --k --l "
      "[--algo])\n"
      "  track    AVT over an evolving graph   (--dataset|--temporal --t "
      "--k --l [--algo])\n"
      "  stream   AVT over a delta stream      "
      "(--source=file|binlog|gen|sequence "
      "--k --l [--algo] [--coalesce-window N] [--batch N]\n"
      "           file: --temporal --t --window "
      "[--meta-tmin --meta-tmax --meta-vertices]; binlog: --binlog;\n"
      "           gen: --n --churn-min/max --seed; sequence: --dataset\n"
      "           crash safety: [--checkpoint-dir D] [--checkpoint-every N] "
      "[--fsync=never|record] [--resume]\n"
      "           fault drill: [--fault-rate p] [--fault-seed S] "
      "[--fault-corrupt-after N] [--max-retries R]\n"
      "           self-healing: [--audit-every N] [--audit-sample K] "
      "[--audit-seed S] [--quarantine-dir D] [--max-universe N]\n"
      "           [--poison-rate p] [--poison-seed S] [--breaker] "
      "[--breaker-window N] [--breaker-threshold p] [--breaker-cooldown N]\n"
      "           [--corrupt-state-after N])\n"
      "  quarantine  inspect a dead-letter log (<dir-or-.avtq-file>)\n"
      "  convert  temporal log -> snapshots    (<temporal> --t --window "
      "--out-prefix)\n"
      "           temporal log -> binary edge log (<temporal> <out.avtb> "
      "--t --window [--index-every N])\n"
      "\n"
      "stream drives the tracker through the push-based AvtEngine: no\n"
      "snapshot is ever materialized past G_0, vertex universes grow on\n"
      "demand, and --coalesce-window N merges N transitions into one\n"
      "net-effect delta (N=1 streams verbatim; results then match track\n"
      "bit for bit).\n"
      "--source=binlog mmaps a binary edge log (written by `convert\n"
      "in.txt out.avtb` or gen_datasets): the header carries the vertex\n"
      "universe and delta count, so ingestion is zero-copy with no\n"
      "metadata pre-scan — anchors are bit-identical to streaming the\n"
      "text the log was converted from. --source=file accepts optional\n"
      "--meta-tmin/--meta-tmax/--meta-vertices to skip its O(file)\n"
      "metadata pre-scan when the stream's range and universe are\n"
      "already known (wrong values are rejected, not mis-windowed).\n"
      "--batch N (>= 1, default 1) sets incavt's delta-transaction width:\n"
      "the engine merges N consecutive deltas per tracker transaction, so\n"
      "the tracker pays one candidate-pool build per N deltas and reports\n"
      "every N-th snapshot — each bit-identical to the per-delta replay at\n"
      "that boundary. Other algorithms ignore it.\n"
      "--checkpoint-dir D arms crash safety: every committed transaction\n"
      "is appended to D/wal.log and checkpoints are written every\n"
      "--checkpoint-every N transactions (0 = initial checkpoint only).\n"
      "--fsync=never|record picks the WAL durability/speed trade;\n"
      "--resume recovers an interrupted run from D and continues it —\n"
      "final anchors and summary are bit-identical to the uninterrupted\n"
      "run at any kill point (docs/DURABILITY.md). --fault-rate p\n"
      "injects seeded transient read faults (absorbed by bounded\n"
      "retries with backoff; --max-retries R); --fault-corrupt-after N\n"
      "injects a sticky corrupt frame, surfacing as exit code 4.\n"
      "--audit-every N runs a cadenced integrity audit (K-order\n"
      "invariants + --audit-sample K sampled core numbers against a\n"
      "fresh decomposition) every N transactions, BEFORE the transaction\n"
      "commits to the WAL. With --checkpoint-dir, an audit divergence\n"
      "self-heals by checkpoint+WAL rollback; with --quarantine-dir D,\n"
      "deltas that fail validation or are isolated by bisection land in\n"
      "D/quarantine.avtq (inspect with `avt_cli quarantine D`) and the\n"
      "run continues degraded. --max-universe N rejects deltas naming\n"
      "vertices >= N. --poison-rate p injects seeded malformed deltas\n"
      "(drill for the quarantine path); --breaker wraps the source in a\n"
      "failure-rate circuit breaker (closed/open/half-open, pull-counted\n"
      "cooldown). --corrupt-state-after N desyncs the tracker index\n"
      "after snapshot N (drill for audit-triggered recovery).\n"
      "exit codes: 0 ok, 2 invalid argument, 3 not found, 4 corruption,\n"
      "5 io error (or source unavailable), 6 completed but degraded\n"
      "(quarantined deltas / audit recovery), 1 other failure.\n";
}

namespace {

// One subcommand and every flag it reads. RunCli rejects any other flag
// up front (exit 2), so a typo or a retired flag is never silently
// ignored.
struct CommandSpec {
  const char* name;
  int (*run)(const Flags& flags, FILE* out, FILE* err);
  std::vector<std::string> flags;
};

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> commands = {
      {"gen", RunGenCommand,
       {"alpha", "avg-degree", "beta", "communities", "max-degree", "model",
        "n", "out", "p-intra", "seed"}},
      {"stats", RunStatsCommand, {}},
      {"core", RunCoreCommand, {"k", "list"}},
      {"anchors", RunAnchorsCommand, {"algo", "k", "l"}},
      {"track", RunTrackCommand,
       {"algo", "dataset", "k", "l", "scale", "seed", "t", "temporal",
        "window"}},
      {"stream", RunStreamCommand,
       {"algo", "alpha", "audit-every", "audit-sample", "audit-seed",
        "avg-degree", "batch", "binlog", "breaker", "breaker-cooldown",
        "breaker-threshold", "breaker-window", "checkpoint-dir",
        "checkpoint-every", "churn-max", "churn-min", "coalesce-window",
        "corrupt-state-after", "dataset", "fault-corrupt-after",
        "fault-rate", "fault-seed", "fsync", "k", "l", "max-degree",
        "max-retries", "max-universe", "meta-tmax", "meta-tmin",
        "meta-vertices", "n", "poison-rate", "poison-seed",
        "quarantine-dir", "resume", "scale", "seed", "source", "t",
        "temporal", "window"}},
      {"quarantine", RunQuarantineCommand, {}},
      {"convert", RunConvertCommand,
       {"index-every", "out-prefix", "t", "window"}},
  };
  return commands;
}

}  // namespace

int RunCli(int argc, char** argv, FILE* out, FILE* err) {
  if (argc < 2) {
    std::fprintf(err, "%s", UsageText().c_str());
    return 2;
  }
  std::string command = argv[1];
  Flags flags = Flags::Parse(argc - 1, argv + 1);
  for (const CommandSpec& spec : Commands()) {
    if (command != spec.name) continue;
    for (const std::string& name : flags.Names()) {
      if (std::find(spec.flags.begin(), spec.flags.end(), name) ==
          spec.flags.end()) {
        std::fprintf(err, "error: unknown flag --%s for '%s'\n",
                     name.c_str(), spec.name);
        return 2;
      }
    }
    return spec.run(flags, out, err);
  }
  if (command == "help" || command == "--help") {
    std::fprintf(out, "%s", UsageText().c_str());
    return 0;
  }
  std::fprintf(err, "error: unknown command '%s'\n%s", command.c_str(),
               UsageText().c_str());
  return 2;
}

}  // namespace cli
}  // namespace avt

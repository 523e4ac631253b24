#include "cli_commands.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

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
#include "flag_readers.h"
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
  VertexId n = 0;
  uint64_t seed = 0;
  uint32_t max_degree = 0, communities = 0;
  double avg_degree = 0, alpha = 0, beta = 0, p_intra = 0;
  if (!ReadIntFlag(flags, "n", VertexId{1000}, err, &n) ||
      !ReadIntFlag(flags, "seed", uint64_t{42}, err, &seed) ||
      !ReadIntFlag(flags, "max-degree",
                   static_cast<uint32_t>(std::max<VertexId>(n / 20, 16)),
                   err, &max_degree, 1) ||
      !ReadIntFlag(flags, "communities", uint32_t{8}, err, &communities, 1) ||
      !ReadDoubleFlag(flags, "avg-degree", 6.0, err, &avg_degree,
                      kNonNegative) ||
      !ReadDoubleFlag(flags, "alpha", 2.2, err, &alpha, kPowerLawExponent) ||
      !ReadDoubleFlag(flags, "beta", 0.2, err, &beta, kProbability) ||
      !ReadDoubleFlag(flags, "p-intra", 0.8, err, &p_intra, kProbability)) {
    return 2;
  }
  const std::string path = flags.GetString("out", "");
  if (path.empty()) {
    std::fprintf(err, "error: --out=<path> is required\n");
    return 2;
  }

  Rng rng(seed);
  Graph g;
  if (model == "chung-lu") {
    g = ChungLuPowerLaw(n, avg_degree, alpha, max_degree, rng);
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
                      beta, rng);
  } else if (model == "config") {
    g = ConfigurationModel(n, avg_degree, alpha, max_degree, rng);
  } else if (model == "sbm") {
    g = PlantedPartition(
        n, communities,
        static_cast<uint64_t>(avg_degree * static_cast<double>(n) / 2),
        p_intra, rng);
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
  uint32_t k = 0;
  if (!ReadIntFlag(flags, "k", uint32_t{0}, err, &k)) return 2;
  Graph g;
  if (int rc = LoadPositionalGraph(flags, err, &g)) return rc;
  CoreDecomposition cores = DecomposeCores(g);
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
  uint32_t k = 0, l = 0;
  if (!ReadIntFlag(flags, "k", uint32_t{3}, err, &k) ||
      !ReadIntFlag(flags, "l", uint32_t{5}, err, &l)) {
    return 2;
  }
  Graph g;
  if (int rc = LoadPositionalGraph(flags, err, &g)) return rc;
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
  uint32_t k = 0, l = 0, window = 0;
  size_t T = 0;
  uint64_t seed = 0;
  double scale = 0;
  if (!ReadIntFlag(flags, "k", uint32_t{3}, err, &k) ||
      !ReadIntFlag(flags, "l", uint32_t{5}, err, &l) ||
      !ReadIntFlag(flags, "t", size_t{10}, err, &T) ||
      !ReadIntFlag(flags, "window", uint32_t{45}, err, &window) ||
      !ReadIntFlag(flags, "seed", uint64_t{42}, err, &seed) ||
      !ReadDoubleFlag(flags, "scale", 0.25, err, &scale, kPositive)) {
    return 2;
  }
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
    sequence = MakeDatasetSnapshots(info, scale, T, seed);
  } else if (!temporal.empty()) {
    auto log = LoadTemporalEdgeList(temporal);
    if (!log.ok()) {
      std::fprintf(err, "error: %s\n", log.status().ToString().c_str());
      return ExitCodeFor(log.status());
    }
    sequence = WindowSnapshots(log.value(), T, window);
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
  uint32_t k = 0, l = 0, window = 0;
  size_t T = 0;
  if (!ReadIntFlag(flags, "k", uint32_t{3}, err, &k) ||
      !ReadIntFlag(flags, "l", uint32_t{5}, err, &l) ||
      !ReadIntFlag(flags, "t", size_t{10}, err, &T) ||
      !ReadIntFlag(flags, "window", uint32_t{45}, err, &window)) {
    return 2;
  }
  const std::string algo = flags.GetString("algo", "incavt");
  AvtAlgorithm algorithm;
  if (!ParseAlgorithm(algo, &algorithm)) {
    std::fprintf(err,
                 "error: unknown --algo '%s' (greedy, olak, rcm, incavt, "
                 "brute)\n",
                 algo.c_str());
    return 2;
  }
  // Stream shape, crash-safety (docs/DURABILITY.md), retry, and
  // self-healing (core/health.h) integer flags.
  VertexId n = 0, max_universe = 0;
  size_t coalesce = 0, batch = 0, checkpoint_every = 0, audit_every = 0,
         audit_sample = 0;
  int max_retries = 0;
  if (!ReadIntFlag(flags, "n", VertexId{1000}, err, &n) ||
      !ReadIntFlag(flags, "coalesce-window", size_t{1}, err, &coalesce, 1) ||
      !ReadIntFlag(flags, "batch", size_t{1}, err, &batch, 1) ||
      !ReadIntFlag(flags, "checkpoint-every", size_t{0}, err,
                   &checkpoint_every) ||
      !ReadIntFlag(flags, "max-retries", 8, err, &max_retries) ||
      !ReadIntFlag(flags, "audit-every", size_t{0}, err, &audit_every) ||
      !ReadIntFlag(flags, "audit-sample", size_t{16}, err, &audit_sample) ||
      !ReadIntFlag(flags, "max-universe", VertexId{0}, err, &max_universe)) {
    return 2;
  }
  // Generator and dataset shape (--source=gen, --source=sequence).
  uint64_t seed = 0;
  uint32_t max_degree = 0, churn_min = 0, churn_max = 0;
  double avg_degree = 0, alpha = 0, scale = 0;
  if (!ReadIntFlag(flags, "seed", uint64_t{42}, err, &seed) ||
      !ReadIntFlag(flags, "max-degree",
                   static_cast<uint32_t>(std::max<VertexId>(n / 20, 16)),
                   err, &max_degree, 1) ||
      !ReadIntFlag(flags, "churn-min", uint32_t{100}, err, &churn_min) ||
      !ReadIntFlag(flags, "churn-max", uint32_t{250}, err, &churn_max) ||
      !ReadDoubleFlag(flags, "avg-degree", 6.0, err, &avg_degree,
                      kNonNegative) ||
      !ReadDoubleFlag(flags, "alpha", 2.2, err, &alpha, kPowerLawExponent) ||
      !ReadDoubleFlag(flags, "scale", 0.25, err, &scale, kPositive)) {
    return 2;
  }
  if (churn_min > churn_max) {
    std::fprintf(err, "error: --churn-min (%u) exceeds --churn-max (%u)\n",
                 churn_min, churn_max);
    return 2;
  }
  // Fault-injection, breaker, poison, audit and drill knobs.
  uint64_t fault_seed = 0, poison_seed = 0, audit_seed = 0,
           breaker_cooldown = 0;
  uint32_t breaker_window = 0;
  int64_t fault_corrupt_after = 0, corrupt_state_after = 0;
  double fault_rate = 0, poison_rate = 0, breaker_threshold = 0;
  if (!ReadIntFlag(flags, "fault-seed", uint64_t{1}, err, &fault_seed) ||
      !ReadIntFlag(flags, "poison-seed", uint64_t{99}, err, &poison_seed) ||
      !ReadIntFlag(flags, "audit-seed", uint64_t{0x5eed}, err, &audit_seed) ||
      !ReadIntFlag(flags, "breaker-window", uint32_t{8}, err,
                   &breaker_window, 1) ||
      !ReadIntFlag(flags, "breaker-cooldown", uint64_t{16}, err,
                   &breaker_cooldown, 1) ||
      !ReadIntFlag(flags, "fault-corrupt-after", int64_t{-1}, err,
                   &fault_corrupt_after, -1) ||
      !ReadIntFlag(flags, "corrupt-state-after", int64_t{-1}, err,
                   &corrupt_state_after) ||
      !ReadDoubleFlag(flags, "fault-rate", 0.0, err, &fault_rate, kRate) ||
      !ReadDoubleFlag(flags, "poison-rate", 0.0, err, &poison_rate, kRate) ||
      !ReadDoubleFlag(flags, "breaker-threshold", 0.5, err,
                      &breaker_threshold, {0.0, 1.0, true})) {
    return 2;
  }

  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
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

  // Self-healing flags (core/health.h, docs/DURABILITY.md): cadenced
  // integrity audits, the poison-delta quarantine, the source circuit
  // breaker, and the corruption drill.
  if ((flags.Has("audit-sample") || flags.Has("audit-seed")) &&
      audit_every == 0) {
    std::fprintf(err,
                 "error: --audit-sample/--audit-seed need "
                 "--audit-every=<N>\n");
    return 2;
  }
  const std::string quarantine_dir = flags.GetString("quarantine-dir", "");
  const bool breaker = flags.GetBool("breaker", false);
  if (!breaker && (flags.Has("breaker-window") ||
                   flags.Has("breaker-threshold") ||
                   flags.Has("breaker-cooldown"))) {
    std::fprintf(err,
                 "error: --breaker-window/--breaker-threshold/"
                 "--breaker-cooldown need --breaker\n");
    return 2;
  }
  if (flags.Has("corrupt-state-after") &&
      (checkpoint_dir.empty() || audit_every == 0)) {
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
      constexpr int64_t kAnyTime = std::numeric_limits<int64_t>::min();
      if (!ReadIntFlag(flags, "meta-tmin", int64_t{0}, err, &meta.t_min,
                       kAnyTime) ||
          !ReadIntFlag(flags, "meta-tmax", int64_t{0}, err, &meta.t_max,
                       kAnyTime) ||
          !ReadIntFlag(flags, "meta-vertices", VertexId{0}, err,
                       &meta.num_vertices, 1)) {
        return 2;
      }
      if (meta.t_max < meta.t_min) {
        std::fprintf(err,
                     "error: stream metadata needs --meta-tmax >= "
                     "--meta-tmin\n");
        return 2;
      }
      opened = StreamingEdgeFileSource::Open(temporal, T, window, meta);
    } else {
      opened = StreamingEdgeFileSource::Open(temporal, T, window);
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
    Rng rng(seed);
    Graph initial = ChungLuPowerLaw(n, avg_degree, alpha, max_degree, rng);
    ChurnOptions churn;
    churn.num_snapshots = T;
    churn.min_churn = churn_min;
    churn.max_churn = churn_max;
    source = std::make_unique<ChurnSource>(std::move(initial), churn, rng);
  } else if (kind == "sequence") {
    const std::string dataset = flags.GetString("dataset", "");
    if (dataset.empty()) {
      std::fprintf(err,
                   "error: --source=sequence needs --dataset=<name>\n");
      return 2;
    }
    const DatasetInfo& info = DatasetByName(dataset);
    sequence = MakeDatasetSnapshots(info, scale, T, seed);
    source = std::make_unique<SequenceSource>(&sequence);
  } else {
    std::fprintf(err,
                 "error: unknown --source '%s' (file, binlog, gen, "
                 "sequence)\n",
                 kind.c_str());
    return 2;
  }
  // Fault-injection / retry flags (graph/resilient_source.h). A
  // nonzero --fault-rate (or an explicit --fault-corrupt-after) wraps
  // the source in FaultInjectingSource + RetryingSource: transient
  // faults are absorbed with bounded backoff, corruption surfaces as
  // exit 4.
  if (fault_rate > 0.0 || flags.Has("fault-corrupt-after")) {
    FaultInjectionOptions fault;
    fault.seed = fault_seed;
    fault.transient_rate = fault_rate;
    fault.corrupt_after = fault_corrupt_after;
    source = std::make_unique<FaultInjectingSource>(std::move(source), fault);
    RetryOptions retry;
    retry.max_retries = max_retries;
    source = std::make_unique<RetryingSource>(std::move(source), retry);
  }
  if (breaker) {
    CircuitBreakerOptions breaker_options;
    breaker_options.window = breaker_window;
    breaker_options.failure_threshold = breaker_threshold;
    breaker_options.cooldown_pulls = breaker_cooldown;
    source = std::make_unique<CircuitBreakerSource>(std::move(source),
                                                    breaker_options);
  }
  if (coalesce > 1) {
    source = std::make_unique<CoalescingSource>(std::move(source), coalesce);
  }
  PoisonInjectingSource* poison_source = nullptr;
  if (poison_rate > 0.0) {
    // Outermost on purpose: CoalescingSource canonicalizes merged
    // deltas (dropping self-loops), which would silently launder the
    // poison before the engine ever saw it.
    PoisonInjectionOptions poison;
    poison.seed = poison_seed;
    poison.poison_rate = poison_rate;
    auto poisoned = std::make_unique<PoisonInjectingSource>(
        std::move(source), poison);
    poison_source = poisoned.get();
    source = std::move(poisoned);
  }

  auto make_tracker = [&]() {
    return MakeTracker(algorithm, k, l, batch);
  };
  std::unique_ptr<AvtTracker> tracker = make_tracker();

  EngineOptions engine_options;
  engine_options.audit.every = audit_every;
  engine_options.audit.sample = audit_sample;
  engine_options.audit.seed = audit_seed;
  engine_options.quarantine_dir = quarantine_dir;
  engine_options.max_universe = max_universe;

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
    durability.checkpoint_every = checkpoint_every;
    durability.fsync = fsync;
    durability.config_extra =
        "k=" + std::to_string(k) + ";l=" + std::to_string(l) +
        ";algo=" + algo + ";coalesce=" + std::to_string(coalesce) +
        ";source=" + kind + ";t=" + std::to_string(T) +
        ";window=" + std::to_string(window) +
        ";seed=" + std::to_string(seed) +
        ";temporal=" + flags.GetString("temporal", "") +
        ";binlog=" + flags.GetString("binlog", "") +
        ";dataset=" + flags.GetString("dataset", "") +
        ";scale=" + std::to_string(scale) +
        ";n=" + std::to_string(n) +
        ";churn=" + std::to_string(churn_min) + "-" +
        std::to_string(churn_max);
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
  size_t T = 0;
  uint32_t window = 0;
  if (!ReadIntFlag(flags, "t", size_t{10}, err, &T) ||
      !ReadIntFlag(flags, "window", uint32_t{45}, err, &window)) {
    return 2;
  }

  // Two output modes: a second positional transcodes the text log into
  // a binary edge log (`convert in.txt out.avtb`); without it, the
  // historical snapshot-file mode (--out-prefix) materializes every
  // window as its own edge list.
  if (flags.positional().size() >= 2) {
    const std::string& text = flags.positional()[0];
    const std::string& binlog = flags.positional()[1];
    uint32_t index_every = 0;
    if (!ReadIntFlag(flags, "index-every", uint32_t{64}, err, &index_every)) {
      return 2;
    }
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

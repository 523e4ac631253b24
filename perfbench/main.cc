// avt_perfbench: seeded input generation and measured replay for the
// layer-by-layer AVT benchmark (driven by run.py; see README.md).
//
//   avt_perfbench gen --workload=W --seed=N --out=IN.avtb --meta=IN.meta
//   avt_perfbench run --workload=W --seed=N --input=IN.avtb --meta=IN.meta
//                     --seconds=S --workdir=DIR [--setups=R]
//                     [--trace=SPANS.jsonl]
//
// `run` replays the log through MmapEdgeLogSource -> AvtEngine ->
// IncAvtTracker as a closed loop: the engine pulls the next delta only
// after the previous transaction committed. It sets the pipeline up
// `setups` times (each set-up is timed from opening the source to the
// first anchor set), then drains deltas for `seconds` of wall time, never
// fewer than the workload's verified prefix. Outputs are verified on a
// seeded sample of snapshots. With --trace the source and tracker are
// wrapped in span-recording decorators (trace.h), and after the drain the
// standalone layer calls and the shadow maintenance replay add the
// per-layer split.
//
// Human-readable lines go to stdout first; the last stdout line is one
// JSON object with the raw measurements. Exit codes: 0 ok, 1 failed
// transactions or verification mismatches, 2 usage or I/O error,
// 3 degenerate input (empty k-core or zero followers).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "anchor/anchored_core.h"
#include "anchor/greedy.h"
#include "core/engine.h"
#include "core/inc_avt.h"
#include "corelib/decomposition.h"
#include "durability/wal.h"
#include "graph/edge_log.h"
#include "maint/maintainer.h"
#include "trace.h"
#include "util/flags.h"
#include "util/mem.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads.h"

namespace avt::perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Pipeline {
  std::unique_ptr<AvtEngine> engine;
  IncAvtTracker* tracker = nullptr;       // owned by engine
  TracedSource* traced_source = nullptr;  // traced runs only
};

StatusOr<Pipeline> OpenPipeline(const Workload& w, const std::string& input,
                                const std::string& durable_dir,
                                Tracer* tracer) {
  Pipeline p;
  std::unique_ptr<DeltaSource> source;
  {
    ScopedSpan span(tracer, "graph.open");
    StatusOr<std::unique_ptr<MmapEdgeLogSource>> opened =
        MmapEdgeLogSource::Open(input);
    if (!opened.ok()) return opened.status();
    source = std::move(opened).value();
  }
  IncAvtOptions options;
  options.num_threads = w.threads;
  auto inc = std::make_unique<IncAvtTracker>(w.k, w.l, IncAvtMode::kRestricted,
                                             options);
  p.tracker = inc.get();
  std::unique_ptr<AvtTracker> tracker;
  if (tracer != nullptr) {
    tracker = std::make_unique<TracedTracker>(std::move(inc), tracer);
    auto traced_source = std::make_unique<TracedSource>(std::move(source), tracer);
    p.traced_source = traced_source.get();
    source = std::move(traced_source);
  } else {
    tracker = std::move(inc);
  }
  EngineOptions engine_options;
  engine_options.keep_snapshots = false;
  engine_options.audit.every = w.audit_every;
  p.engine = std::make_unique<AvtEngine>(std::move(tracker), std::move(source),
                                         engine_options);
  if (w.checkpoint_every > 0) {
    DurabilityOptions durability;
    durability.dir = durable_dir;
    durability.checkpoint_every = w.checkpoint_every;
    durability.fsync = FsyncPolicy::kNever;
    AVT_RETURN_IF_ERROR(p.engine->EnableDurability(durability));
  }
  return p;
}

// Recomputes a snapshot's answer independently on the tracker's replayed
// graph, after proving that graph equals the generator's.
class Verifier {
 public:
  Verifier(std::vector<uint64_t> frame_hashes, uint32_t k)
      : hashes_(std::move(frame_hashes)), k_(k) {}

  void Check(const Graph& graph, const AvtSnapshotResult& snap) {
    ++checks_;
    const std::string at = "snapshot " + std::to_string(snap.t) + ": ";
    if (snap.t >= hashes_.size() || EdgeSetHash(graph) != hashes_[snap.t]) {
      mismatches_.push_back(at + "replayed graph differs from the generated one");
    }
    const CoreDecomposition cores = DecomposeCores(graph);
    uint32_t kcore = 0, kshell = 0;
    for (uint32_t c : cores.core) {
      if (c >= k_) ++kcore;
      if (c + 1 == k_) ++kshell;
    }
    last_kcore_ = kcore;
    last_kshell_ = kshell;
    if (kcore != snap.kcore_size) {
      mismatches_.push_back(at + "|C_k| " + std::to_string(snap.kcore_size) +
                            " != DecomposeCores " + std::to_string(kcore));
    }
    const uint32_t followers = CountFollowersExact(graph, k_, snap.anchors);
    if (followers != snap.num_followers) {
      mismatches_.push_back(at + "followers " +
                            std::to_string(snap.num_followers) +
                            " != CountFollowersExact " +
                            std::to_string(followers));
    }
  }

  void Fail(std::string what) { mismatches_.push_back(std::move(what)); }

  uint64_t checks() const { return checks_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  uint32_t last_kcore() const { return last_kcore_; }
  uint32_t last_kshell() const { return last_kshell_; }

 private:
  std::vector<uint64_t> hashes_;
  uint32_t k_;
  uint64_t checks_ = 0;
  std::vector<std::string> mismatches_;
  uint32_t last_kcore_ = 0;
  uint32_t last_kshell_ = 0;
};

// FNV-1a over the anchor track (t, anchors, followers, |C_k|).
class TrackDigest {
 public:
  void Fold(const AvtSnapshotResult& snap) {
    Mix(snap.t);
    for (VertexId a : snap.anchors) Mix(a);
    Mix(snap.num_followers);
    Mix(snap.kcore_size);
  }
  uint64_t value() const { return hash_; }

 private:
  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t hash_ = 14695981039346656037ull;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

bool SameWork(const MaintenanceStats& a, const MaintenanceStats& b) {
  return a.edges_inserted == b.edges_inserted &&
         a.edges_removed == b.edges_removed && a.promotions == b.promotions &&
         a.demotions == b.demotions && a.visited == b.visited &&
         a.cascades == b.cascades;
}

uint64_t CountCheckpoints(const std::string& dir) {
  uint64_t count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("checkpoint-", 0) == 0) ++count;
  }
  return count;
}

// Standalone layer calls of the traced run, made after the drain so they
// cannot disturb its caches: the K-order build, decomposition and greedy
// solve on G_0, then every drained transaction replayed through a shadow
// CoreMaintainer in "maint.apply" spans. The shadow must do exactly the
// tracker's maintenance work: its stats must equal the tracker's after
// every transaction, and the standalone greedy must pick the tracker's
// first anchors.
struct Standalone {
  double decompose_ms = 0;
  double greedy_ms = 0;
  SolverResult greedy;
  MaintenanceStats stats;
  uint64_t impacted = 0;
};

Status RunStandalone(const Workload& w, const std::string& input,
                     const std::vector<VertexId>& first_anchors,
                     const std::vector<MaintenanceStats>& tracker_stats,
                     Tracer& tracer, Verifier& verifier, Standalone* out) {
  StatusOr<std::unique_ptr<MmapEdgeLogSource>> opened =
      MmapEdgeLogSource::Open(input);
  if (!opened.ok()) return opened.status();
  MmapEdgeLogSource& source = *opened.value();
  const Graph& g0 = source.InitialGraph();
  tracer.set_txn(0);
  CoreMaintainer shadow;
  {
    ScopedSpan span(&tracer, "maint.reset");
    shadow.Reset(g0);
  }
  shadow.SetCsrMirror(true);  // the tracker's maintainer patches one too
  int32_t decompose_span = -1, greedy_span = -1;
  {
    ScopedSpan span(&tracer, "corelib.decompose");
    decompose_span = span.id();
    const CoreDecomposition cores = DecomposeCores(g0);
    if (cores.core.size() != g0.NumVertices()) {
      verifier.Fail("DecomposeCores(G_0) sized " +
                    std::to_string(cores.core.size()));
    }
  }
  {
    GreedyOptions options;
    options.num_threads = w.threads;
    GreedySolver solver(options);
    ScopedSpan span(&tracer, "anchor.greedy");
    greedy_span = span.id();
    out->greedy = solver.Solve(g0, w.k, w.l);
  }
  out->decompose_ms = tracer.Millis(decompose_span);
  out->greedy_ms = tracer.Millis(greedy_span);
  if (out->greedy.anchors != first_anchors) {
    verifier.Fail("standalone GreedySolver anchors differ from the "
                  "tracker's first anchors");
  }
  EdgeDelta delta;
  for (size_t t = 1; t <= tracker_stats.size(); ++t) {
    StatusOr<bool> more = source.NextDelta(&delta);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::Corruption("log shorter than the drain");
    tracer.set_txn(t);
    {
      ScopedSpan span(&tracer, "maint.apply");
      out->impacted += shadow.ApplyDelta(delta).size();
    }
    if (!SameWork(shadow.stats(), tracker_stats[t - 1])) {
      verifier.Fail("transaction " + std::to_string(t) +
                    ": shadow maintainer stats differ from the tracker's");
    }
  }
  out->stats = shadow.stats();
  return Status::Ok();
}

// Collects "key": value pairs of the result line in insertion order.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Usage(const char* message) {
  std::fprintf(stderr, "avt_perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: avt_perfbench gen --workload=W --seed=N --out=F "
               "--meta=F\n"
               "       avt_perfbench run --workload=W --seed=N --input=F "
               "--meta=F --seconds=S --workdir=D [--setups=R] [--trace=F]\n");
  return 2;
}

int Gen(const Workload& w, const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  const std::string meta = flags.GetString("meta", "");
  if (out.empty() || meta.empty()) return Usage("gen needs --out and --meta");
  Timer timer;
  Status status = GenerateInput(w, static_cast<uint64_t>(flags.GetInt("seed", 1)),
                                out, meta);
  if (!status.ok()) {
    std::fprintf(stderr, "gen failed: %s\n", status.ToString().c_str());
    return 2;
  }
  std::printf("generated %s in %.2f s\n", out.c_str(), timer.ElapsedSeconds());
  return 0;
}

int Run(const Workload& w, const Flags& flags) {
  const std::string input = flags.GetString("input", "");
  const std::string meta = flags.GetString("meta", "");
  const std::string workdir = flags.GetString("workdir", "");
  const std::string trace_path = flags.GetString("trace", "");
  const double seconds = flags.GetDouble("seconds", 10.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool traced = !trace_path.empty();
  const uint32_t setups =
      traced ? 1
             : static_cast<uint32_t>(
                   std::max<int64_t>(1, flags.GetInt("setups", w.setups)));
  if (input.empty() || meta.empty() || workdir.empty()) {
    return Usage("run needs --input, --meta and --workdir");
  }
  StatusOr<std::vector<uint64_t>> hashes = ReadFrameHashes(meta);
  if (!hashes.ok()) {
    std::fprintf(stderr, "%s\n", hashes.status().ToString().c_str());
    return 2;
  }
  Verifier verifier(std::move(hashes).value(), w.k);
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) return Usage("cannot create --workdir");

  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  // --- Set-up, `setups` times; the last pipeline is drained. ---------
  std::vector<double> setup_s;
  Pipeline p;
  std::string durable_dir;
  std::vector<VertexId> first_anchors;
  double rss_after_open = 0;
  double rss_after_first = 0;
  for (uint32_t r = 0; r < setups; ++r) {
    p = Pipeline{};  // the previous repeat's engine closes its files first
    if (!durable_dir.empty()) std::filesystem::remove_all(durable_dir, ec);
    durable_dir = workdir + "/durable-" + std::to_string(r);
    ++attempted;
    Timer timer;
    StatusOr<Pipeline> opened = OpenPipeline(w, input, durable_dir, tr);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open pipeline: %s\n",
                   opened.status().ToString().c_str());
      return 2;
    }
    p = std::move(opened).value();
    rss_after_open = static_cast<double>(CurrentRssBytes()) / kMiB;
    StatusOr<bool> first = false;
    {
      ScopedSpan span(tr, "engine.step");
      first = p.engine->Step();
    }
    setup_s.push_back(timer.ElapsedSeconds());
    rss_after_first = static_cast<double>(CurrentRssBytes()) / kMiB;
    if (!first.ok() || !first.value()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   first.ok() ? "empty log" : first.status().ToString().c_str());
      return 1;
    }
    if (r == 0) {
      first_anchors = p.engine->last().anchors;
    } else if (p.engine->last().anchors != first_anchors) {
      verifier.Fail("set-up " + std::to_string(r) +
                    " chose different first anchors");
    }
  }
  const AvtSnapshotResult snap0 = p.engine->last();
  verifier.Check(p.tracker->maintainer().graph(), snap0);
  const uint32_t kcore0 = verifier.last_kcore();
  const uint32_t kshell0 = verifier.last_kshell();

  // --- Drain: closed loop for `seconds`, never fewer than the prefix. -
  Rng sample_rng(seed ^ 0x5a17u);
  const uint64_t sample_a = 1 + sample_rng.Uniform(w.prefix);
  const uint64_t sample_b = 1 + sample_rng.Uniform(w.prefix);
  TrackDigest digest;
  digest.Fold(snap0);
  double followers_prefix = snap0.num_followers;
  uint32_t min_followers = snap0.num_followers;
  uint64_t prefix_snapshots = 1;
  std::vector<double> step_ms;
  std::vector<MaintenanceStats> tracker_stats;  // traced: after every step
  uint64_t bound_probes = 0, full_queries = 0, memo_hits = 0, memo_misses = 0;
  uint64_t memo_peak = snap0.memo_bytes;
  double verify_s = 0;
  uint64_t txn = 0;
  Timer drain;
  for (;;) {
    if (txn >= w.prefix && drain.ElapsedSeconds() - verify_s >= seconds) break;
    tracer.set_txn(txn + 1);
    Timer step;
    StatusOr<bool> more = false;
    {
      ScopedSpan span(tr, "engine.step");
      more = p.engine->Step();
    }
    const double ms = step.ElapsedMillis();
    if (more.ok() && !more.value()) break;  // log exhausted
    ++attempted;
    ++txn;
    if (!more.ok()) {
      ++failed;
      first_error = more.status().ToString();
      break;
    }
    step_ms.push_back(ms);
    const AvtSnapshotResult& snap = p.engine->last();
    bound_probes += snap.bound_probes;
    full_queries += snap.candidates_visited;
    memo_hits += snap.memo_hits;
    memo_misses += snap.memo_misses;
    memo_peak = std::max(memo_peak, snap.memo_bytes);
    if (traced) tracker_stats.push_back(p.tracker->maintainer().stats());
    if (txn <= w.prefix) {
      digest.Fold(snap);
      followers_prefix += snap.num_followers;
      min_followers = std::min(min_followers, snap.num_followers);
      ++prefix_snapshots;
    }
    if (txn == sample_a || txn == sample_b) {
      Timer verify;
      verifier.Check(p.tracker->maintainer().graph(), snap);
      verify_s += verify.ElapsedSeconds();
    }
  }
  const double drain_s = drain.ElapsedSeconds() - verify_s;
  if (txn > 0 && txn != sample_a && txn != sample_b) {
    verifier.Check(p.tracker->maintainer().graph(), p.engine->last());
  }
  if (!p.engine->health().healthy()) {
    ++failed;
    if (first_error.empty()) {
      first_error = "engine health: " + p.engine->health().Describe();
    }
  }
  failed += p.engine->QuarantinedDeltas();
  const uint64_t audits = p.engine->auditor().audits_run();
  const uint64_t edges_pulled = traced ? p.traced_source->edges_pulled() : 0;
  const double peak_rss_mib = static_cast<double>(PeakRssBytes()) / kMiB;
  p = Pipeline{};  // flushes and closes the WAL
  uint64_t wal_bytes = 0, checkpoints = 0;
  if (w.checkpoint_every > 0) {
    wal_bytes = std::filesystem::file_size(
        durable_dir + "/" + DeltaWal::kFileName, ec);
    if (ec) wal_bytes = 0;
    checkpoints = CountCheckpoints(durable_dir);
  }
  std::filesystem::remove_all(durable_dir, ec);

  Standalone standalone;
  if (traced) {
    Status status = RunStandalone(w, input, first_anchors, tracker_stats,
                                  tracer, verifier, &standalone);
    if (!status.ok()) {
      std::fprintf(stderr, "standalone replay: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }

  // --- Report. --------------------------------------------------------
  const double followers_mean = followers_prefix / prefix_snapshots;
  const bool degenerate = kcore0 == 0 || min_followers == 0;
  // Tail: the highest percentile of a fixed ladder that has at least 10
  // samples beyond it (a fixed ladder keeps the reported percentile
  // stable while the sample count moves a little between runs).
  std::vector<double> sorted = step_ms;
  std::sort(sorted.begin(), sorted.end());
  double tail_pct = 50, tail_ms = Median(step_ms);
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<size_t>(pct / 100.0 * sorted.size());
    if (rank + 10 < sorted.size()) {
      tail_pct = pct;
      tail_ms = sorted[rank];
      break;
    }
  }
  // Both runs of --trace 1 replay the prefix, so the medians of its step
  // times give the tracing overhead.
  const std::vector<double> prefix_ms(
      step_ms.begin(),
      step_ms.begin() + std::min<size_t>(w.prefix, step_ms.size()));
  failed += verifier.mismatches().size();
  attempted += verifier.checks();
  for (const std::string& m : verifier.mismatches()) {
    std::printf("MISMATCH %s\n", m.c_str());
  }
  if (!first_error.empty()) std::printf("FAILED %s\n", first_error.c_str());

  JsonLine out;
  out.Str("workload", w.name);
  out.Num("seed", static_cast<double>(seed));
  out.Num("kcore", kcore0);
  out.Num("kshell", kshell0);
  out.Num("setups", setups);
  out.Num("setup_s", Median(setup_s));
  out.Num("deltas", static_cast<double>(txn));
  out.Num("delta_p50_ms", Median(step_ms));
  out.Num("delta_tail_ms", tail_ms);
  out.Num("delta_tail_pct", tail_pct);
  out.Num("deltas_per_s", drain_s > 0 ? txn / drain_s : 0);
  out.Num("drain_s", drain_s);
  out.Num("peak_rss_mib", peak_rss_mib);
  out.Num("followers_mean", followers_mean);
  out.Num("followers_min", min_followers);
  out.Num("prefix_snapshots", static_cast<double>(prefix_snapshots));
  out.Num("prefix_p50_ms", Median(prefix_ms));
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("checks", static_cast<double>(verifier.checks()));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest.value());
  out.Str("digest", hex);
  out.Raw("degenerate", degenerate ? "true" : "false");
  if (traced) {
    const double d = std::max<double>(1.0, static_cast<double>(txn));
    const auto setup = tracer.Aggregate(0, 0);
    const auto drained = tracer.Aggregate(1, txn);
    auto total = [](const std::map<std::string, Tracer::Totals>& m,
                    const char* name) {
      auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second.total_ms;
    };
    const double delta_ms = total(drained, "inc_avt.delta") / d;
    const double apply_ms = total(drained, "maint.apply") / d;
    const MaintenanceStats& maint = standalone.stats;
    JsonLine layers;
    layers.Num("graph.open_ms", total(setup, "graph.open"));
    layers.Num("graph.pull_ms_per_delta", total(drained, "graph.pull") / d);
    layers.Num("graph.edges_per_delta", edges_pulled / d);
    auto step_it = drained.find("engine.step");
    layers.Num("engine.self_ms_per_delta",
               step_it == drained.end() ? 0.0 : step_it->second.self_ms / d);
    layers.Num("health.audits", static_cast<double>(audits));
    layers.Num("durability.wal_bytes", static_cast<double>(wal_bytes));
    layers.Num("durability.checkpoints", static_cast<double>(checkpoints));
    layers.Num("inc_avt.first_ms", total(setup, "inc_avt.first"));
    layers.Num("inc_avt.delta_ms", delta_ms);
    layers.Num("maint.apply_ms_per_delta", apply_ms);
    layers.Num("inc_avt.search_ms_per_delta", delta_ms - apply_ms);
    layers.Num("maint.visited", maint.visited / d);
    layers.Num("maint.promotions", maint.promotions / d);
    layers.Num("maint.demotions", maint.demotions / d);
    layers.Num("maint.impacted", standalone.impacted / d);
    layers.Num("anchor.bound_probes_per_delta", bound_probes / d);
    layers.Num("anchor.full_queries_per_delta", full_queries / d);
    layers.Num("anchor.resolve_ratio",
               bound_probes > 0 ? static_cast<double>(full_queries) /
                                      static_cast<double>(bound_probes)
                                : 0.0);
    layers.Num("memo.hits", memo_hits / d);
    layers.Num("memo.misses", memo_misses / d);
    layers.Num("memo.hit_ratio",
               memo_hits + memo_misses > 0
                   ? static_cast<double>(memo_hits) /
                         static_cast<double>(memo_hits + memo_misses)
                   : 0.0);
    layers.Num("memo.peak_bytes", static_cast<double>(memo_peak));
    layers.Num("corelib.decompose_ms", standalone.decompose_ms);
    layers.Num("maint.reset_ms", total(setup, "maint.reset"));
    layers.Num("anchor.greedy_ms", standalone.greedy_ms);
    layers.Num("anchor.greedy_full_queries",
               static_cast<double>(standalone.greedy.candidates_visited));
    layers.Num("anchor.greedy_bound_probes",
               static_cast<double>(standalone.greedy.bound_probes));
    layers.Num("anchor.greedy_cascade_visited",
               static_cast<double>(standalone.greedy.cascade_visited));
    layers.Num("mem.rss_after_open_mib", rss_after_open);
    layers.Num("mem.rss_after_first_mib", rss_after_first);
    out.Raw("layers", layers.str());
    Status written = tracer.WriteJsonl(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 2;
    }
  }
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  if (!w.adversarial && degenerate) return 3;
  return failed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace avt::perfbench

int main(int argc, char** argv) {
  using namespace avt::perfbench;
  avt::Flags flags = avt::Flags::Parse(argc, argv);
  if (!flags.errors().empty()) return Usage(flags.errors().front().c_str());
  if (flags.positional().size() != 1) return Usage("expected gen or run");
  const Workload* w = FindWorkload(flags.GetString("workload", ""));
  if (w == nullptr) return Usage("unknown --workload");
  const std::string command = flags.positional().front();
  if (command == "gen") return Gen(*w, flags);
  if (command == "run") return Run(*w, flags);
  return Usage("expected gen or run");
}

// Self-healing engine tests: audited runs stay bit-identical to
// unaudited ones across the tracker configuration matrix, structural
// poison is quarantined exactly (and only the poison — the surviving
// stream tracks the clean run), universe caps fence absurd ids, an
// injected index desync self-recovers via checkpoint+WAL rollback,
// audit divergence without rollback machinery halts honestly, the
// deterministic bisection isolates a semantically poisonous delta
// inside a merged batch, and the quarantine dead-letter log survives
// torn tails and resumes its sequence across reopen.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/inc_avt.h"
#include "durability/quarantine.h"
#include "gen/churn.h"
#include "gen/generator_source.h"
#include "gen/models.h"
#include "graph/delta.h"
#include "graph/delta_source.h"
#include "graph/resilient_source.h"
#include "util/random.h"

namespace avt {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             (tag + "-" + std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

EdgeDelta MakeDelta(std::vector<Edge> insertions,
                    std::vector<Edge> deletions = {}) {
  EdgeDelta delta;
  delta.insertions = std::move(insertions);
  delta.deletions = std::move(deletions);
  return delta;
}

class VectorSource : public DeltaSource {
 public:
  VectorSource(Graph initial, std::vector<EdgeDelta> deltas)
      : initial_(std::move(initial)), deltas_(std::move(deltas)) {}

  const Graph& InitialGraph() const override { return initial_; }

  StatusOr<bool> NextDelta(EdgeDelta* delta) override {
    if (next_ >= deltas_.size()) return false;
    *delta = deltas_[next_++];
    return true;
  }

  std::string name() const override { return "vector"; }

 private:
  Graph initial_;
  std::vector<EdgeDelta> deltas_;
  size_t next_ = 0;
};

Graph TestGraph(uint64_t seed = 21, VertexId n = 130) {
  Rng rng(seed);
  return ChungLuPowerLaw(n, 5.0, 2.2, 30, rng);
}

// Structural fingerprint of a finished run (timings excluded).
struct FinalState {
  size_t processed = 0;
  std::vector<std::vector<VertexId>> anchors;
  std::vector<uint32_t> followers;
  uint64_t candidates = 0;

  bool operator==(const FinalState& other) const {
    return processed == other.processed && anchors == other.anchors &&
           followers == other.followers && candidates == other.candidates;
  }
};

FinalState Capture(const AvtEngine& engine) {
  FinalState state;
  state.processed = engine.SnapshotsProcessed();
  for (const AvtSnapshotResult& snap : engine.result().snapshots) {
    state.anchors.push_back(snap.anchors);
    state.followers.push_back(snap.num_followers);
    state.candidates += snap.candidates_visited;
  }
  return state;
}

// --- Audits are pure observers: bit-identity across the matrix --------

struct TrackerConfig {
  std::string label;
  bool lazy;
};

TEST(AuditedRuns, BitIdenticalAcrossTrackerMatrix) {
  const std::vector<TrackerConfig> matrix = {
      {"lazy", true},
      {"eager", false},
  };
  Graph initial = TestGraph();
  ChurnOptions churn;
  churn.num_snapshots = 10;
  churn.min_churn = 8;
  churn.max_churn = 20;

  for (const TrackerConfig& config : matrix) {
    auto make_tracker = [&config]() {
      IncAvtOptions options;
      options.lazy = config.lazy;
      return std::make_unique<IncAvtTracker>(3, 3, IncAvtMode::kRestricted,
                                             options);
    };
    auto make_source = [&initial, &churn]() {
      return std::make_unique<ChurnSource>(initial, churn, Rng(77));
    };

    AvtEngine plain(make_tracker(), make_source());
    ASSERT_TRUE(plain.Drain().ok()) << config.label;

    EngineOptions audited_options;
    audited_options.audit.every = 2;
    AvtEngine audited(make_tracker(), make_source(), audited_options);
    ASSERT_TRUE(audited.Drain().ok()) << config.label;

    EXPECT_TRUE(Capture(plain) == Capture(audited))
        << config.label << ": audits changed the tracked result";
    // The cadence is exact: one audit per `every` committed transactions
    // (one transaction per delta here), none with audits off.
    const size_t transactions = churn.num_snapshots - 1;
    ASSERT_EQ(audited.SnapshotsProcessed(), transactions + 1) << config.label;
    EXPECT_EQ(audited.auditor().audits_run(),
              transactions / audited_options.audit.every)
        << config.label;
    EXPECT_EQ(plain.auditor().audits_run(), 0u) << config.label;
    EXPECT_EQ(audited.auditor().audits_failed(), 0u) << config.label;
    EXPECT_EQ(audited.health().state(), HealthState::kHealthy)
        << config.label;
  }
}

// --- Structural poison: quarantined exactly, survivors identical ------

TEST(Quarantine, SelfLoopsAreQuarantinedAndSurvivorsMatchCleanRun) {
  Graph initial = TestGraph();
  std::vector<EdgeDelta> clean;
  Rng rng(5);
  std::vector<Edge> used;
  while (clean.size() < 8) {
    VertexId u = rng.Uniform(initial.NumVertices());
    VertexId v = rng.Uniform(initial.NumVertices());
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (initial.HasEdge(u, v)) continue;
    if (std::find(used.begin(), used.end(), Edge{u, v}) != used.end()) {
      continue;
    }
    used.push_back({u, v});
    clean.push_back(MakeDelta({{u, v}}));
  }
  // Interleave two self-loop poison deltas at known pull positions
  // (1-based pulls 3 and 7).
  std::vector<EdgeDelta> poisoned = clean;
  poisoned.insert(poisoned.begin() + 2, MakeDelta({{9, 9}}));
  poisoned.insert(poisoned.begin() + 6, MakeDelta({{4, 4}}));

  auto make_tracker = []() {
    return std::make_unique<IncAvtTracker>(3, 3, IncAvtMode::kRestricted,
                                           IncAvtOptions{});
  };

  AvtEngine reference(make_tracker(),
                      std::make_unique<VectorSource>(initial, clean));
  ASSERT_TRUE(reference.Drain().ok());

  TempDir dir("avt-quarantine");
  EngineOptions options;
  options.quarantine_dir = dir.path();
  AvtEngine engine(make_tracker(),
                   std::make_unique<VectorSource>(initial, poisoned),
                   options);
  Status status = engine.Drain();
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(engine.QuarantinedDeltas(), 2u);
  EXPECT_EQ(engine.health().state(), HealthState::kDegraded);
  EXPECT_EQ(engine.health().reason(), HealthReason::kQuarantinedDelta);
  EXPECT_TRUE(Capture(engine) == Capture(reference))
      << "surviving stream diverged from the clean run";

  StatusOr<std::vector<QuarantineRecord>> records = QuarantineLog::ReadAll(
      dir.path() + "/" + QuarantineLog::kFileName);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[0].reason, QuarantineReason::kInvalidDelta);
  EXPECT_EQ(records.value()[0].source_pull, 3u);
  EXPECT_EQ(records.value()[0].delta.insertions, (std::vector<Edge>{{9, 9}}));
  EXPECT_NE(records.value()[0].detail.find("self-loop"), std::string::npos);
  EXPECT_EQ(records.value()[1].source_pull, 7u);
  EXPECT_EQ(records.value()[1].seq, 2u);

  RunSummary summary = engine.Summary();
  EXPECT_EQ(summary.deltas_quarantined, 2u);
  EXPECT_EQ(summary.health, HealthState::kDegraded);
}

TEST(Quarantine, SeededPoisonSourceRunTracksCleanRun) {
  // The full stack the CLI wires: PoisonInjectingSource outermost so
  // coalescing cannot canonicalize the poison away before the engine
  // sees it.
  Graph initial = TestGraph(31);
  ChurnOptions churn;
  churn.num_snapshots = 12;
  churn.min_churn = 8;
  churn.max_churn = 18;
  auto make_tracker = []() {
    return std::make_unique<IncAvtTracker>(3, 3, IncAvtMode::kRestricted,
                                           IncAvtOptions{});
  };

  AvtEngine reference(
      make_tracker(),
      std::make_unique<ChurnSource>(initial, churn, Rng(13)));
  ASSERT_TRUE(reference.Drain().ok());

  PoisonInjectionOptions poison;
  poison.seed = 99;
  poison.poison_rate = 0.3;
  auto source = std::make_unique<PoisonInjectingSource>(
      std::make_unique<ChurnSource>(initial, churn, Rng(13)), poison);
  PoisonInjectingSource* poison_view = source.get();

  TempDir dir("avt-poison-stack");
  EngineOptions options;
  options.quarantine_dir = dir.path();
  AvtEngine engine(make_tracker(), std::move(source), options);
  ASSERT_TRUE(engine.Drain().ok());

  EXPECT_GT(poison_view->poisons_injected(), 0u);
  EXPECT_EQ(engine.QuarantinedDeltas(), poison_view->poisons_injected());
  EXPECT_TRUE(Capture(engine) == Capture(reference))
      << "poison leaked into (or healthy deltas leaked out of) the run";
}

TEST(Quarantine, UniverseCapQuarantinesHugeIds) {
  Graph initial = TestGraph();
  const VertexId cap = initial.NumVertices() + 8;
  std::vector<EdgeDelta> deltas;
  deltas.push_back(MakeDelta({{0, 1}}));
  deltas.push_back(MakeDelta({{2, 1u << 30}}));  // beyond any sane universe
  deltas.push_back(MakeDelta({{1, 2}}));

  TempDir dir("avt-universe-cap");
  EngineOptions options;
  options.quarantine_dir = dir.path();
  options.max_universe = cap;
  AvtEngine engine(
      std::make_unique<IncAvtTracker>(3, 3, IncAvtMode::kRestricted,
                                      IncAvtOptions{}),
      std::make_unique<VectorSource>(initial, deltas), options);
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.SnapshotsProcessed(), 3u);  // G_0 + two survivors
  EXPECT_EQ(engine.QuarantinedDeltas(), 1u);
  EXPECT_LE(engine.NumVertices(), cap);

  StatusOr<std::vector<QuarantineRecord>> records = QuarantineLog::ReadAll(
      dir.path() + "/" + QuarantineLog::kFileName);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].reason, QuarantineReason::kUniverseExceeded);
  EXPECT_EQ(records.value()[0].source_pull, 2u);
}

TEST(Quarantine, FrozenUniverseQuarantinesInsteadOfErroring) {
  // grow_universe = false historically made an out-of-range id a hard
  // Step error; with quarantine armed it is dead-lettered instead and
  // the stream continues.
  Graph initial(6);
  std::vector<EdgeDelta> deltas;
  deltas.push_back(MakeDelta({{0, 1}}));
  deltas.push_back(MakeDelta({{2, 64}}));  // outside the frozen universe
  deltas.push_back(MakeDelta({{1, 2}}));

  TempDir dir("avt-frozen");
  EngineOptions options;
  options.grow_universe = false;
  options.quarantine_dir = dir.path();
  AvtEngine engine(
      std::make_unique<IncAvtTracker>(2, 2, IncAvtMode::kRestricted,
                                      IncAvtOptions{}),
      std::make_unique<VectorSource>(initial, deltas), options);
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.SnapshotsProcessed(), 3u);
  EXPECT_EQ(engine.QuarantinedDeltas(), 1u);
  EXPECT_EQ(engine.NumVertices(), 6u);
}

// --- Audit divergence: self-recovery and honest halts -----------------

TEST(AuditRecovery, DrilledDesyncSelfHealsBitIdentically) {
  Graph initial = TestGraph();
  ChurnOptions churn;
  churn.num_snapshots = 12;
  churn.min_churn = 8;
  churn.max_churn = 18;
  auto make_tracker = []() {
    return std::make_unique<IncAvtTracker>(3, 3, IncAvtMode::kRestricted,
                                           IncAvtOptions{});
  };

  AvtEngine reference(
      make_tracker(),
      std::make_unique<ChurnSource>(initial, churn, Rng(23)));
  ASSERT_TRUE(reference.Drain().ok());

  TempDir dir("avt-audit-recovery");
  EngineOptions options;
  options.audit.every = 2;
  AvtEngine engine(make_tracker(),
                   std::make_unique<ChurnSource>(initial, churn, Rng(23)),
                   options);
  engine.SetTrackerFactory(make_tracker);
  DurabilityOptions durability;
  durability.dir = dir.path();
  ASSERT_TRUE(engine.EnableDurability(durability).ok());

  // Drill: corrupt the maintained K-order right before the audit at
  // transaction 4. Rollback must rebuild from checkpoint+WAL, the
  // innocent in-flight delta re-applies cleanly, and the run finishes
  // bit-identical to the undrilled reference.
  engine.SetObserver([&engine](const AvtSnapshotResult& snap) {
    if (snap.t == 3) engine.RequestAuditFaultDrill();
  });
  Status status = engine.Drain();
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(engine.Recoveries(), 1u);
  EXPECT_EQ(engine.auditor().audits_failed(), 1u);
  EXPECT_EQ(engine.health().state(), HealthState::kDegraded);
  EXPECT_EQ(engine.health().reason(), HealthReason::kAuditRecovered);
  EXPECT_EQ(engine.QuarantinedDeltas(), 0u);
  EXPECT_TRUE(Capture(engine) == Capture(reference))
      << "self-recovery did not reproduce the clean run";
}

TEST(AuditRecovery, WithoutRollbackMachineryHaltsWithCorruption) {
  Graph initial = TestGraph();
  ChurnOptions churn;
  churn.num_snapshots = 10;
  churn.min_churn = 8;
  churn.max_churn = 18;
  EngineOptions options;
  options.audit.every = 2;
  AvtEngine engine(
      std::make_unique<IncAvtTracker>(3, 3, IncAvtMode::kRestricted,
                                      IncAvtOptions{}),
      std::make_unique<ChurnSource>(initial, churn, Rng(29)), options);
  // No durability, no factory: nothing to roll back to.
  engine.RequestAuditFaultDrill();

  Status status = engine.Drain();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("nothing to roll back"),
            std::string::npos)
      << status.message();
  EXPECT_EQ(engine.health().state(), HealthState::kHalted);
  EXPECT_EQ(engine.health().reason(), HealthReason::kCorruption);

  // The halt is sticky and idempotent.
  StatusOr<bool> again = engine.Step();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), status.message());
}

// --- Bisection: semantic poison inside a merged batch -----------------

// Wraps IncAvtTracker and desynchronizes the inner K-order whenever a
// processed transaction contains the marker edge — a deterministic
// model of "applying this particular upstream record corrupts the
// maintained state", which is exactly what bisection must isolate.
class BuggyTracker : public AvtTracker {
 public:
  BuggyTracker(Edge marker, uint32_t k, uint32_t l)
      : marker_(marker),
        inner_(k, l, IncAvtMode::kRestricted, IncAvtOptions{}) {}

  AvtSnapshotResult ProcessFirst(const Graph& g0) override {
    return inner_.ProcessFirst(g0);
  }

  AvtSnapshotResult ProcessDelta(const EdgeDelta& delta) override {
    AvtSnapshotResult snap = inner_.ProcessDelta(delta);
    for (const Edge& e : delta.insertions) {
      if (e.u == marker_.u && e.v == marker_.v) {
        inner_.InjectAuditFaultForDrill();
        break;
      }
    }
    return snap;
  }

  void EnsureVertices(VertexId count) override {
    inner_.EnsureVertices(count);
  }
  size_t PreferredBatchSize() const override { return 3; }
  TrackerAuditView AuditView() const override { return inner_.AuditView(); }
  std::string name() const override { return "buggy-" + inner_.name(); }

 private:
  Edge marker_;
  IncAvtTracker inner_;
};

TEST(AuditRecovery, BisectionIsolatesPoisonDeltaInsideMergedBatch) {
  Graph initial = TestGraph(47, 90);
  const Edge marker{0, 89};
  std::vector<EdgeDelta> deltas;
  Rng rng(3);
  std::vector<Edge> used = {marker};
  while (deltas.size() < 9) {
    VertexId u = rng.Uniform(initial.NumVertices());
    VertexId v = rng.Uniform(initial.NumVertices());
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (initial.HasEdge(u, v)) continue;
    if (std::find(used.begin(), used.end(), Edge{u, v}) != used.end()) {
      continue;
    }
    used.push_back({u, v});
    deltas.push_back(MakeDelta({{u, v}}));
  }
  deltas[4] = MakeDelta({marker});  // pull 5, inside transaction 2

  auto make_tracker = [&]() {
    return std::make_unique<BuggyTracker>(marker, 3, 3);
  };

  TempDir dir("avt-bisect");
  EngineOptions options;
  options.audit.every = 1;
  options.quarantine_dir = dir.path();
  AvtEngine engine(make_tracker(),
                   std::make_unique<VectorSource>(initial, deltas), options);
  engine.SetTrackerFactory(make_tracker);
  DurabilityOptions durability;
  durability.dir = dir.path();
  ASSERT_TRUE(engine.EnableDurability(durability).ok());

  Status status = engine.Drain();
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Exactly the marker delta was dead-lettered, with its true pull.
  EXPECT_EQ(engine.QuarantinedDeltas(), 1u);
  EXPECT_GE(engine.Recoveries(), 1u);
  EXPECT_EQ(engine.health().state(), HealthState::kDegraded);
  StatusOr<std::vector<QuarantineRecord>> records = QuarantineLog::ReadAll(
      dir.path() + "/" + QuarantineLog::kFileName);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].reason, QuarantineReason::kAuditDivergence);
  EXPECT_EQ(records.value()[0].source_pull, 5u);
  EXPECT_EQ(records.value()[0].delta.insertions,
            (std::vector<Edge>{marker}));

  // Reference: the same batched replay with the poison delta excised —
  // same transaction boundaries (groups of 3 source deltas), the
  // poison's group merged without it.
  IncAvtTracker reference(3, 3, IncAvtMode::kRestricted, IncAvtOptions{});
  std::vector<AvtSnapshotResult> expected;
  expected.push_back(reference.ProcessFirst(initial));
  for (size_t base = 0; base < deltas.size(); base += 3) {
    DeltaBatcher batcher;
    for (size_t i = base; i < std::min(base + 3, deltas.size()); ++i) {
      if (i == 4) continue;  // the quarantined marker delta
      batcher.Add(deltas[i]);
    }
    EdgeDelta merged;
    batcher.Flush(&merged);
    expected.push_back(reference.ProcessDelta(merged));
  }

  ASSERT_EQ(engine.SnapshotsProcessed(), expected.size());
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_EQ(engine.result().snapshots[t].anchors, expected[t].anchors)
        << "t=" << t;
    EXPECT_EQ(engine.result().snapshots[t].num_followers,
              expected[t].num_followers)
        << "t=" << t;
  }
}

// --- QuarantineLog file format ----------------------------------------

QuarantineRecord SampleRecord(uint64_t pull) {
  QuarantineRecord record;
  record.reason = QuarantineReason::kInvalidDelta;
  record.source_pull = pull;
  record.delta = MakeDelta({{7, 7}}, {{1, 2}});
  record.detail = "self-loop edge {7, 7}";
  return record;
}

TEST(QuarantineLog, RoundTripsRecordsAndResumesSequence) {
  TempDir dir("avt-qlog");
  {
    StatusOr<std::unique_ptr<QuarantineLog>> log =
        QuarantineLog::Open(dir.path());
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    QuarantineRecord a = SampleRecord(3);
    QuarantineRecord b = SampleRecord(9);
    ASSERT_TRUE(log.value()->Append(&a).ok());
    ASSERT_TRUE(log.value()->Append(&b).ok());
    EXPECT_EQ(a.seq, 1u);
    EXPECT_EQ(b.seq, 2u);
    EXPECT_EQ(log.value()->appended(), 2u);
  }
  // Reopen: sequence resumes after the existing prefix.
  {
    StatusOr<std::unique_ptr<QuarantineLog>> log =
        QuarantineLog::Open(dir.path());
    ASSERT_TRUE(log.ok());
    QuarantineRecord c = SampleRecord(12);
    ASSERT_TRUE(log.value()->Append(&c).ok());
    EXPECT_EQ(c.seq, 3u);
  }
  StatusOr<std::vector<QuarantineRecord>> records =
      QuarantineLog::ReadAll(dir.path() + "/" + QuarantineLog::kFileName);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[0].source_pull, 3u);
  EXPECT_EQ(records.value()[0].delta.deletions,
            (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(records.value()[0].detail, "self-loop edge {7, 7}");
  EXPECT_EQ(records.value()[2].seq, 3u);
}

TEST(QuarantineLog, ToleratesTornTailAndTruncatesOnReopen) {
  TempDir dir("avt-qlog-torn");
  const std::string path = dir.path() + "/" + QuarantineLog::kFileName;
  {
    StatusOr<std::unique_ptr<QuarantineLog>> log =
        QuarantineLog::Open(dir.path());
    ASSERT_TRUE(log.ok());
    QuarantineRecord a = SampleRecord(1);
    QuarantineRecord b = SampleRecord(2);
    ASSERT_TRUE(log.value()->Append(&a).ok());
    ASSERT_TRUE(log.value()->Append(&b).ok());
  }
  // Tear the tail mid-record (crash mid-append).
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 5);

  StatusOr<std::vector<QuarantineRecord>> torn = QuarantineLog::ReadAll(path);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  ASSERT_EQ(torn.value().size(), 1u);

  // Reopen truncates the tear and resumes after the valid prefix.
  {
    StatusOr<std::unique_ptr<QuarantineLog>> log =
        QuarantineLog::Open(dir.path());
    ASSERT_TRUE(log.ok());
    QuarantineRecord c = SampleRecord(3);
    ASSERT_TRUE(log.value()->Append(&c).ok());
    EXPECT_EQ(c.seq, 2u);
  }
  StatusOr<std::vector<QuarantineRecord>> records =
      QuarantineLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[1].source_pull, 3u);
}

TEST(QuarantineLog, CorruptPrefixIsNotSilentlyLossy) {
  TempDir dir("avt-qlog-crc");
  const std::string path = dir.path() + "/" + QuarantineLog::kFileName;
  {
    StatusOr<std::unique_ptr<QuarantineLog>> log =
        QuarantineLog::Open(dir.path());
    ASSERT_TRUE(log.ok());
    QuarantineRecord a = SampleRecord(1);
    QuarantineRecord b = SampleRecord(2);
    ASSERT_TRUE(log.value()->Append(&a).ok());
    ASSERT_TRUE(log.value()->Append(&b).ok());
  }
  // Flip a payload byte INSIDE the valid prefix (first record body).
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(20, std::ios::beg);  // past magic + first frame header
    char byte = 0;
    file.seekg(20, std::ios::beg);
    file.read(&byte, 1);
    byte ^= 0x40;
    file.seekp(20, std::ios::beg);
    file.write(&byte, 1);
  }
  StatusOr<std::vector<QuarantineRecord>> records =
      QuarantineLog::ReadAll(path);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace avt

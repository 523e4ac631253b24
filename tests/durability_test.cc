// Crash-safety tests: WAL/checkpoint framing survives truncation and
// bit flips with a clean Status (never a crash), and AvtEngine::Recover
// reproduces the uninterrupted run BIT-IDENTICALLY at every kill point,
// across tracker families, lazy/eager local search and batch widths — the durability layer's whole contract
// (docs/DURABILITY.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "anchor/greedy.h"
#include "core/avt.h"
#include "core/engine.h"
#include "core/inc_avt.h"
#include "core/run_summary.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "graph/delta_source.h"
#include "graph/resilient_source.h"
#include "util/random.h"

namespace avt {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per use, removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("avt_durability_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good()) << path;
}

SnapshotSequence SmallWorkload(uint64_t seed, size_t T = 6,
                               VertexId n = 120) {
  Rng rng(seed);
  Graph initial = ChungLuPowerLaw(n, 5.0, 2.2, 30, rng);
  ChurnOptions options;
  options.num_snapshots = T;
  options.min_churn = 8;
  options.max_churn = 20;
  return MakeChurnSnapshots(initial, options, rng);
}

EdgeDelta MakeDelta(std::vector<Edge> insertions,
                    std::vector<Edge> deletions = {}) {
  EdgeDelta delta;
  delta.insertions = std::move(insertions);
  delta.deletions = std::move(deletions);
  return delta;
}

// A source whose every pull fails transiently (retry-budget tests).
class AlwaysFailingSource : public DeltaSource {
 public:
  AlwaysFailingSource() : initial_(4) {}
  const Graph& InitialGraph() const override { return initial_; }
  StatusOr<bool> NextDelta(EdgeDelta*) override {
    return Status::IoError("backing store unavailable");
  }
  std::string name() const override { return "always-failing"; }

 private:
  Graph initial_;
};

// The fields the recovery invariant promises are bit-identical; wall
// clock and retry counters are transport, not result, and stay out.
struct FinalState {
  size_t processed = 0;
  VertexId vertices = 0;
  std::vector<VertexId> anchors;
  uint64_t candidates = 0;
  uint64_t followers = 0;
  double stability = 0;
  size_t changes = 0;

  bool operator==(const FinalState& other) const {
    return processed == other.processed && vertices == other.vertices &&
           anchors == other.anchors && candidates == other.candidates &&
           followers == other.followers && stability == other.stability &&
           changes == other.changes;
  }
};

std::ostream& operator<<(std::ostream& os, const FinalState& s) {
  os << "processed=" << s.processed << " vertices=" << s.vertices
     << " candidates=" << s.candidates << " followers=" << s.followers
     << " stability=" << s.stability << " changes=" << s.changes
     << " anchors=[";
  for (VertexId a : s.anchors) os << a << " ";
  return os << "]";
}

FinalState Capture(const AvtEngine& engine) {
  FinalState state;
  state.processed = engine.SnapshotsProcessed();
  state.vertices = engine.NumVertices();
  if (state.processed > 0) state.anchors = engine.last().anchors;
  RunSummary summary = engine.Summary();
  state.candidates = summary.total_candidates;
  state.followers = summary.total_followers;
  state.stability = summary.anchor_stability;
  state.changes = summary.anchor_changes;
  return state;
}

// One tracker configuration of the recovery matrix.
struct TrackerConfig {
  std::string label;
  bool is_static = false;  // StaticAvtTracker (blob-checkpoint path)
  bool lazy = true;
  size_t batch = 1;
};

std::unique_ptr<AvtTracker> BuildTracker(const TrackerConfig& config,
                                         uint32_t k, uint32_t l) {
  if (config.is_static) {
    return std::make_unique<StaticAvtTracker>(
        std::make_unique<GreedySolver>(GreedyOptions{}), k, l);
  }
  IncAvtOptions options;
  options.lazy = config.lazy;
  options.batch_size = config.batch;
  return std::make_unique<IncAvtTracker>(k, l, IncAvtMode::kRestricted,
                                         options);
}

std::vector<TrackerConfig> RecoveryMatrix() {
  // {lazy, eager} x batch {1, 3, 16}, plus the static
  // (blob-checkpointing) family.
  std::vector<TrackerConfig> matrix;
  for (bool lazy : {true, false}) {
    for (size_t batch : {size_t{1}, size_t{3}, size_t{16}}) {
      TrackerConfig config;
      config.label = std::string("incavt/") + (lazy ? "lazy" : "eager") +
                     "/batch" + std::to_string(batch);
      config.lazy = lazy;
      config.batch = batch;
      matrix.push_back(config);
    }
  }
  TrackerConfig greedy;
  greedy.label = "static-greedy";
  greedy.is_static = true;
  matrix.push_back(greedy);
  return matrix;
}

// --- DeltaWal ----------------------------------------------------------

TEST(DeltaWal, RoundTripsRecords) {
  TempDir dir("wal_roundtrip");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/" + DeltaWal::kFileName;

  std::vector<WalRecord> written;
  {
    auto wal = DeltaWal::Create(path, FsyncPolicy::kEveryRecord);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      WalRecord record;
      record.seq = seq;
      record.source_pulls = seq * 2;
      record.delta = MakeDelta({{0, 1}, {2, 3}}, {{1, 2}});
      ASSERT_TRUE(wal.value()->Append(record).ok());
      written.push_back(record);
    }
  }

  auto read = DeltaWal::ReadAll(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read.value().torn_tail);
  ASSERT_EQ(read.value().records.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(read.value().records[i].seq, written[i].seq);
    EXPECT_EQ(read.value().records[i].source_pulls,
              written[i].source_pulls);
    EXPECT_EQ(read.value().records[i].delta.insertions,
              written[i].delta.insertions);
    EXPECT_EQ(read.value().records[i].delta.deletions,
              written[i].delta.deletions);
  }
  EXPECT_EQ(read.value().valid_bytes, fs::file_size(path));
}

TEST(DeltaWal, CreateRefusesToClobber) {
  TempDir dir("wal_clobber");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/" + DeltaWal::kFileName;
  ASSERT_TRUE(DeltaWal::Create(path, FsyncPolicy::kNever).ok());
  auto second = DeltaWal::Create(path, FsyncPolicy::kNever);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaWal, ReadMissingFileIsNotFound) {
  auto read = DeltaWal::ReadAll("/nonexistent/dir/wal.log");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(DeltaWal, TruncationAtEveryByteIsTornTailNeverCrash) {
  // Truncation is the crash-normal failure: every prefix of a valid WAL
  // must read back as the longest intact record prefix, flagged
  // torn_tail when bytes were dropped mid-record.
  TempDir dir("wal_trunc");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/" + DeltaWal::kFileName;
  {
    auto wal = DeltaWal::Create(path, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      WalRecord record;
      record.seq = seq;
      record.source_pulls = 1;
      record.delta = MakeDelta({{static_cast<VertexId>(seq), 5}});
      ASSERT_TRUE(wal.value()->Append(record).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 8u);

  const std::string trunc_path = dir.path() + "/trunc.log";
  size_t full_prefixes = 0;
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(trunc_path, bytes.substr(0, len));
    auto read = DeltaWal::ReadAll(trunc_path);
    ASSERT_TRUE(read.ok()) << "len=" << len << ": "
                           << read.status().ToString();
    EXPECT_LE(read.value().valid_bytes, len) << "len=" << len;
    EXPECT_LT(read.value().records.size(), 3u) << "len=" << len;
    // Records that did survive are an exact prefix.
    for (size_t i = 0; i < read.value().records.size(); ++i) {
      EXPECT_EQ(read.value().records[i].seq, i + 1) << "len=" << len;
    }
    if (read.value().valid_bytes == len && len > 8) ++full_prefixes;
  }
  // Sanity: the loop saw real record boundaries, not just failures.
  EXPECT_GE(full_prefixes, 2u);
}

TEST(DeltaWal, BitFlipAtEveryByteIsCorruptionOrShorterPrefix) {
  // A flipped byte is NOT crash-normal: either the CRC/seq/magic checks
  // reject the file (kCorruption), or the flip landed in a length field
  // and the reader sees a shorter torn prefix. It must never produce
  // all records as if nothing happened, and never crash.
  TempDir dir("wal_flip");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/" + DeltaWal::kFileName;
  {
    auto wal = DeltaWal::Create(path, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      WalRecord record;
      record.seq = seq;
      record.source_pulls = 1;
      record.delta = MakeDelta({{static_cast<VertexId>(seq), 9}});
      ASSERT_TRUE(wal.value()->Append(record).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  const std::string bytes = ReadFileBytes(path);
  const std::string flip_path = dir.path() + "/flip.log";
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x01);
    WriteFileBytes(flip_path, damaged);
    auto read = DeltaWal::ReadAll(flip_path);
    if (read.ok()) {
      EXPECT_LT(read.value().records.size(), 3u) << "pos=" << pos;
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
          << "pos=" << pos << ": " << read.status().ToString();
    }
  }
}

// --- Checkpoint --------------------------------------------------------

CheckpointData SampleCheckpoint() {
  CheckpointData data;
  data.fingerprint = 0xFEEDFACE12345678ull;
  data.step = 4;
  data.wal_records = 3;
  data.source_pulls = 5;
  data.num_vertices = 99;
  data.total_millis = 1.5;
  data.max_millis = 0.75;
  data.total_candidates = 42;
  data.total_followers = 17;
  data.stability_sum = 2.25;
  data.anchor_changes = 2;
  data.previous_anchors = {3, 1, 4};
  data.has_tracker_state = true;
  data.tracker_state = "opaque-blob\x00\x01\x02";
  return data;
}

TEST(Checkpoint, RoundTripsAllFields) {
  TempDir dir("ckpt_roundtrip");
  fs::create_directories(dir.path());
  const CheckpointData data = SampleCheckpoint();
  ASSERT_TRUE(WriteCheckpoint(dir.path(), data, /*fsync=*/false).ok());

  auto listed = ListCheckpoints(dir.path());
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), 1u);
  EXPECT_EQ(listed.value()[0].step, data.step);

  auto read = ReadCheckpoint(listed.value()[0].path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const CheckpointData& r = read.value();
  EXPECT_EQ(r.fingerprint, data.fingerprint);
  EXPECT_EQ(r.step, data.step);
  EXPECT_EQ(r.wal_records, data.wal_records);
  EXPECT_EQ(r.source_pulls, data.source_pulls);
  EXPECT_EQ(r.num_vertices, data.num_vertices);
  EXPECT_EQ(r.total_candidates, data.total_candidates);
  EXPECT_EQ(r.total_followers, data.total_followers);
  EXPECT_EQ(r.stability_sum, data.stability_sum);
  EXPECT_EQ(r.anchor_changes, data.anchor_changes);
  EXPECT_EQ(r.previous_anchors, data.previous_anchors);
  EXPECT_EQ(r.has_tracker_state, data.has_tracker_state);
  EXPECT_EQ(r.tracker_state, data.tracker_state);
}

TEST(Checkpoint, LoadLatestPicksNewestValidAndFallsBack) {
  TempDir dir("ckpt_latest");
  fs::create_directories(dir.path());
  CheckpointData old_data = SampleCheckpoint();
  old_data.step = 2;
  old_data.wal_records = 1;
  CheckpointData new_data = SampleCheckpoint();
  new_data.step = 6;
  new_data.wal_records = 5;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), old_data, false).ok());
  ASSERT_TRUE(WriteCheckpoint(dir.path(), new_data, false).ok());

  auto latest = LoadLatestValidCheckpoint(dir.path());
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().step, 6u);

  // Damage the newest: loading falls back to the older intact one — an
  // atomically-renamed torn checkpoint must never mask its predecessor.
  auto listed = ListCheckpoints(dir.path());
  ASSERT_TRUE(listed.ok());
  const std::string newest_path = listed.value().back().path;
  std::string bytes = ReadFileBytes(newest_path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(newest_path, bytes);

  latest = LoadLatestValidCheckpoint(dir.path());
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().step, 2u);
}

TEST(Checkpoint, EmptyDirIsNotFound) {
  TempDir dir("ckpt_empty");
  fs::create_directories(dir.path());
  auto latest = LoadLatestValidCheckpoint(dir.path());
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

TEST(Checkpoint, EveryTruncationAndBitFlipIsCorruption) {
  // Checkpoints are written atomically (tmp + rename), so unlike the
  // WAL there is no torn-tail grace: ANY damage means the bytes are
  // not what was renamed into place.
  TempDir dir("ckpt_damage");
  fs::create_directories(dir.path());
  ASSERT_TRUE(WriteCheckpoint(dir.path(), SampleCheckpoint(), false).ok());
  auto listed = ListCheckpoints(dir.path());
  ASSERT_TRUE(listed.ok());
  const std::string path = listed.value()[0].path;
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 16u);

  const std::string damaged_path = dir.path() + "/damaged.avtc";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(damaged_path, bytes.substr(0, len));
    auto read = ReadCheckpoint(damaged_path);
    ASSERT_FALSE(read.ok()) << "truncation len=" << len;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << "truncation len=" << len;
  }
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x01);
    WriteFileBytes(damaged_path, damaged);
    auto read = ReadCheckpoint(damaged_path);
    ASSERT_FALSE(read.ok()) << "flip pos=" << pos;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << "flip pos=" << pos;
  }
}

// --- Graph::FromAdjacency ----------------------------------------------

TEST(FromAdjacency, RestoresNeighborOrderVerbatim) {
  // Adjacency ORDER is load-bearing (solver tie-breaks read it), so the
  // restore must preserve it exactly — including orders AddEdge would
  // never produce.
  std::vector<std::vector<VertexId>> adjacency = {
      {2, 1},  // vertex 0: neighbor 2 before neighbor 1
      {0, 2},
      {1, 0},
  };
  auto graph = Graph::FromAdjacency(adjacency);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumVertices(), 3u);
  EXPECT_EQ(graph.value().NumEdges(), 3u);
  for (VertexId u = 0; u < 3; ++u) {
    auto span = graph.value().Neighbors(u);
    std::vector<VertexId> got(span.begin(), span.end());
    EXPECT_EQ(got, adjacency[u]) << "vertex " << u;
  }
}

TEST(FromAdjacency, RejectsDamagedShapes) {
  auto out_of_range = Graph::FromAdjacency({{5}, {0}});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kCorruption);

  auto self_loop = Graph::FromAdjacency({{0}});
  ASSERT_FALSE(self_loop.ok());
  EXPECT_EQ(self_loop.status().code(), StatusCode::kCorruption);

  auto asymmetric = Graph::FromAdjacency({{1}, {}});
  ASSERT_FALSE(asymmetric.ok());
  EXPECT_EQ(asymmetric.status().code(), StatusCode::kCorruption);

  auto duplicated = Graph::FromAdjacency({{1, 1}, {0, 0}});
  ASSERT_FALSE(duplicated.ok());
  EXPECT_EQ(duplicated.status().code(), StatusCode::kCorruption);
}

// --- Tracker checkpoint state ------------------------------------------

TEST(TrackerState, StaticTrackerBlobRoundTrips) {
  SnapshotSequence sequence = SmallWorkload(21, 4);
  StaticAvtTracker original(
      std::make_unique<GreedySolver>(GreedyOptions{}), 3, 3);
  original.ProcessFirst(sequence.initial());
  original.ProcessDelta(sequence.deltas()[0]);

  std::string blob;
  ASSERT_TRUE(original.SaveCheckpointState(&blob));

  StaticAvtTracker restored(
      std::make_unique<GreedySolver>(GreedyOptions{}), 3, 3);
  ASSERT_TRUE(restored.RestoreCheckpointState(blob).ok());

  // Both continue from the same state: identical results from here on.
  for (size_t i = 1; i < sequence.deltas().size(); ++i) {
    AvtSnapshotResult a = original.ProcessDelta(sequence.deltas()[i]);
    AvtSnapshotResult b = restored.ProcessDelta(sequence.deltas()[i]);
    EXPECT_EQ(a.anchors, b.anchors) << "delta " << i;
    EXPECT_EQ(a.num_followers, b.num_followers) << "delta " << i;
    EXPECT_EQ(a.anchored_core_size, b.anchored_core_size) << "delta " << i;
    EXPECT_EQ(a.t, b.t) << "delta " << i;
  }
}

TEST(TrackerState, StaticTrackerRejectsDamagedBlobs) {
  SnapshotSequence sequence = SmallWorkload(22, 3, 40);
  StaticAvtTracker tracker(
      std::make_unique<GreedySolver>(GreedyOptions{}), 2, 2);
  tracker.ProcessFirst(sequence.initial());
  std::string blob;
  ASSERT_TRUE(tracker.SaveCheckpointState(&blob));

  // Every truncation must be flagged — the decoder is bounds-checked
  // end to end, so a short blob can never crash or half-apply.
  for (size_t len = 0; len < blob.size(); ++len) {
    StaticAvtTracker victim(
        std::make_unique<GreedySolver>(GreedyOptions{}), 2, 2);
    Status status = victim.RestoreCheckpointState(blob.substr(0, len));
    ASSERT_FALSE(status.ok()) << "len=" << len;
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "len=" << len;
  }
  // Bit flips either decode to a rejected shape or (flips in the
  // counters) decode cleanly; they must never crash.
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string damaged = blob;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x01);
    StaticAvtTracker victim(
        std::make_unique<GreedySolver>(GreedyOptions{}), 2, 2);
    Status status = victim.RestoreCheckpointState(damaged);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << "pos=" << pos;
    }
  }
}

TEST(TrackerState, IncrementalTrackerDeclinesBlobs) {
  // IncAVT's maintained K-order is history-dependent; it must decline
  // blob checkpoints so recovery takes the full-replay path.
  IncAvtTracker tracker(3, 3);
  std::string blob;
  EXPECT_FALSE(tracker.SaveCheckpointState(&blob));
  Status status = tracker.RestoreCheckpointState("anything");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

// --- Resilient sources -------------------------------------------------

TEST(ResilientSource, RetryStackIsBitIdenticalToCleanRun) {
  SnapshotSequence sequence = SmallWorkload(31);

  AvtEngine clean(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                  std::make_unique<SequenceSource>(&sequence));
  ASSERT_TRUE(clean.Drain().ok());

  FaultInjectionOptions fault;
  fault.seed = 77;
  fault.transient_rate = 0.2;
  RetryOptions retry;
  retry.max_retries = 16;
  retry.initial_backoff_millis = 0.01;  // keep the test fast
  retry.max_backoff_millis = 0.1;
  auto stacked = std::make_unique<RetryingSource>(
      std::make_unique<FaultInjectingSource>(
          std::make_unique<SequenceSource>(&sequence), fault),
      retry);
  AvtEngine faulty(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                   std::move(stacked));
  ASSERT_TRUE(faulty.Drain().ok());

  EXPECT_EQ(Capture(faulty), Capture(clean));
  // The absorbed faults are visible in the summary (transport counters,
  // excluded from the bit-identity comparison above).
  RunSummary summary = faulty.Summary();
  EXPECT_GT(summary.source_transient_errors, 0u);
  EXPECT_GE(summary.source_retries, summary.source_transient_errors);
}

TEST(ResilientSource, InjectedCorruptionPropagatesThroughRetries) {
  SnapshotSequence sequence = SmallWorkload(32, 5);
  FaultInjectionOptions fault;
  fault.corrupt_after = 2;
  auto stacked = std::make_unique<RetryingSource>(
      std::make_unique<FaultInjectingSource>(
          std::make_unique<SequenceSource>(&sequence), fault));
  AvtEngine engine(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                   std::move(stacked));
  Status status = engine.Drain();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The corruption is sticky: stepping again reports it again.
  StatusOr<bool> again = engine.Step();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kCorruption);
}

TEST(ResilientSource, RetryBudgetExhaustionPropagatesIoError) {
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_millis = 0.01;
  retry.max_backoff_millis = 0.05;
  RetryingSource source(std::make_unique<AlwaysFailingSource>(), retry);
  EdgeDelta delta;
  StatusOr<bool> result = source.NextDelta(&delta);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  DeltaSource::Stats stats = source.SourceStats();
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_GE(stats.transient_errors, 1u);
}

// --- Recovery: the bit-identity matrix ---------------------------------

TEST(Recovery, BitIdenticalAtEveryKillPointAcrossConfigs) {
  const uint32_t k = 3, l = 3;
  SnapshotSequence sequence = SmallWorkload(41);

  for (const TrackerConfig& config : RecoveryMatrix()) {
    // Uninterrupted reference.
    AvtEngine reference(BuildTracker(config, k, l),
                        std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(reference.Drain().ok()) << config.label;
    const FinalState expected = Capture(reference);
    const size_t total_steps = reference.SnapshotsProcessed();
    ASSERT_GE(total_steps, 2u) << config.label;

    for (size_t kill = 1; kill <= total_steps; ++kill) {
      TempDir dir("kill");
      DurabilityOptions durability;
      durability.dir = dir.path();
      durability.checkpoint_every = 2;
      durability.config_extra = "k=3;l=3";

      {
        AvtEngine victim(BuildTracker(config, k, l),
                         std::make_unique<SequenceSource>(&sequence));
        ASSERT_TRUE(victim.EnableDurability(durability).ok())
            << config.label;
        for (size_t step = 0; step < kill; ++step) {
          StatusOr<bool> stepped = victim.Step();
          ASSERT_TRUE(stepped.ok()) << config.label << " kill=" << kill;
          ASSERT_TRUE(stepped.value()) << config.label << " kill=" << kill;
        }
      }  // killed: the engine is dropped mid-run

      auto recovered = AvtEngine::Recover(
          BuildTracker(config, k, l),
          std::make_unique<SequenceSource>(&sequence), EngineOptions{},
          durability);
      ASSERT_TRUE(recovered.ok())
          << config.label << " kill=" << kill << ": "
          << recovered.status().ToString();
      ASSERT_TRUE(recovered.value()->Drain().ok())
          << config.label << " kill=" << kill;
      EXPECT_EQ(Capture(*recovered.value()), expected)
          << config.label << " kill=" << kill;
    }
  }
}

TEST(Recovery, SurvivesKillDuringRecoveredRunToo) {
  // Crash, recover, crash again mid-resume, recover again: the final
  // state must still be bit-identical (recovery is idempotent).
  const TrackerConfig config{/*label=*/"incavt/default", false, true, 1};
  SnapshotSequence sequence = SmallWorkload(42);

  AvtEngine reference(BuildTracker(config, 3, 3),
                      std::make_unique<SequenceSource>(&sequence));
  ASSERT_TRUE(reference.Drain().ok());
  const FinalState expected = Capture(reference);

  TempDir dir("double_kill");
  DurabilityOptions durability;
  durability.dir = dir.path();
  durability.checkpoint_every = 1;

  {
    AvtEngine first(BuildTracker(config, 3, 3),
                    std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(first.EnableDurability(durability).ok());
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(first.Step().value());
  }
  {
    auto second = AvtEngine::Recover(
        BuildTracker(config, 3, 3),
        std::make_unique<SequenceSource>(&sequence), EngineOptions{},
        durability);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ASSERT_TRUE(second.value()->Step().value());  // one more, then die
  }
  auto third = AvtEngine::Recover(
      BuildTracker(config, 3, 3),
      std::make_unique<SequenceSource>(&sequence), EngineOptions{},
      durability);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ASSERT_TRUE(third.value()->Drain().ok());
  EXPECT_EQ(Capture(*third.value()), expected);
}

TEST(Recovery, WalTornTailAtEveryByteStillBitIdentical) {
  // With only the initial checkpoint (claiming zero records), ANY
  // truncation of the WAL is crash-normal: the intact prefix replays
  // and the source re-supplies the lost suffix — final state identical.
  const TrackerConfig config{/*label=*/"incavt/batch3", false, true, 3};
  SnapshotSequence sequence = SmallWorkload(43, 5, 80);

  AvtEngine reference(BuildTracker(config, 3, 3),
                      std::make_unique<SequenceSource>(&sequence));
  ASSERT_TRUE(reference.Drain().ok());
  const FinalState expected = Capture(reference);

  TempDir source_dir("torn_src");
  DurabilityOptions durability;
  durability.dir = source_dir.path();
  durability.checkpoint_every = 0;  // initial checkpoint only
  {
    AvtEngine full(BuildTracker(config, 3, 3),
                   std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(full.EnableDurability(durability).ok());
    ASSERT_TRUE(full.Drain().ok());
  }
  const std::string wal_bytes =
      ReadFileBytes(source_dir.path() + "/" + DeltaWal::kFileName);
  auto checkpoints = ListCheckpoints(source_dir.path());
  ASSERT_TRUE(checkpoints.ok());
  ASSERT_EQ(checkpoints.value().size(), 1u);
  const std::string checkpoint_bytes =
      ReadFileBytes(checkpoints.value()[0].path);
  const std::string checkpoint_name =
      fs::path(checkpoints.value()[0].path).filename().string();

  for (size_t len = 0; len < wal_bytes.size(); ++len) {
    TempDir dir("torn");
    fs::create_directories(dir.path());
    WriteFileBytes(dir.path() + "/" + checkpoint_name, checkpoint_bytes);
    WriteFileBytes(dir.path() + "/" + DeltaWal::kFileName,
                   wal_bytes.substr(0, len));
    DurabilityOptions resumed = durability;
    resumed.dir = dir.path();
    auto recovered = AvtEngine::Recover(
        BuildTracker(config, 3, 3),
        std::make_unique<SequenceSource>(&sequence), EngineOptions{},
        resumed);
    ASSERT_TRUE(recovered.ok())
        << "len=" << len << ": " << recovered.status().ToString();
    ASSERT_TRUE(recovered.value()->Drain().ok()) << "len=" << len;
    EXPECT_EQ(Capture(*recovered.value()), expected) << "len=" << len;
  }
}

TEST(Recovery, WalBitFlipsSurfaceAsStatusOrIdenticalNeverCrash) {
  // A flipped WAL byte either (a) trips CRC/seq validation →
  // kCorruption from Recover, or (b) lands in a length field, shortens
  // the intact prefix, and the re-supplied source makes the final state
  // identical anyway. Both are acceptable; crashing or silently
  // diverging is not.
  const TrackerConfig config{/*label=*/"incavt/default", false, true, 1};
  SnapshotSequence sequence = SmallWorkload(44, 4, 60);

  AvtEngine reference(BuildTracker(config, 3, 3),
                      std::make_unique<SequenceSource>(&sequence));
  ASSERT_TRUE(reference.Drain().ok());
  const FinalState expected = Capture(reference);

  TempDir source_dir("flip_src");
  DurabilityOptions durability;
  durability.dir = source_dir.path();
  durability.checkpoint_every = 0;
  {
    AvtEngine full(BuildTracker(config, 3, 3),
                   std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(full.EnableDurability(durability).ok());
    ASSERT_TRUE(full.Drain().ok());
  }
  const std::string wal_bytes =
      ReadFileBytes(source_dir.path() + "/" + DeltaWal::kFileName);
  auto checkpoints = ListCheckpoints(source_dir.path());
  ASSERT_TRUE(checkpoints.ok());
  const std::string checkpoint_bytes =
      ReadFileBytes(checkpoints.value()[0].path);
  const std::string checkpoint_name =
      fs::path(checkpoints.value()[0].path).filename().string();

  size_t corruptions = 0;
  for (size_t pos = 0; pos < wal_bytes.size(); ++pos) {
    std::string damaged = wal_bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x01);
    TempDir dir("flip");
    fs::create_directories(dir.path());
    WriteFileBytes(dir.path() + "/" + checkpoint_name, checkpoint_bytes);
    WriteFileBytes(dir.path() + "/" + DeltaWal::kFileName, damaged);
    DurabilityOptions resumed = durability;
    resumed.dir = dir.path();
    auto recovered = AvtEngine::Recover(
        BuildTracker(config, 3, 3),
        std::make_unique<SequenceSource>(&sequence), EngineOptions{},
        resumed);
    if (!recovered.ok()) {
      EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
          << "pos=" << pos << ": " << recovered.status().ToString();
      ++corruptions;
      continue;
    }
    ASSERT_TRUE(recovered.value()->Drain().ok()) << "pos=" << pos;
    EXPECT_EQ(Capture(*recovered.value()), expected) << "pos=" << pos;
  }
  EXPECT_GT(corruptions, 0u);  // the CRC actually fired somewhere
}

TEST(Recovery, TruncationBelowCheckpointClaimIsCorruption) {
  // A cadenced checkpoint claims N committed records; a WAL truncated
  // below that claim is NOT crash-normal (the checkpoint was written
  // after those records were flushed) — it must refuse, not replay a
  // shorter history.
  const TrackerConfig config{/*label=*/"incavt/default", false, true, 1};
  SnapshotSequence sequence = SmallWorkload(45, 5, 60);

  TempDir dir("claim");
  DurabilityOptions durability;
  durability.dir = dir.path();
  durability.checkpoint_every = 2;
  {
    AvtEngine full(BuildTracker(config, 3, 3),
                   std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(full.EnableDurability(durability).ok());
    ASSERT_TRUE(full.Drain().ok());
  }
  // Truncate the WAL to just its magic: zero records survive, but the
  // newest checkpoint claims at least two.
  const std::string wal_path = dir.path() + "/" + DeltaWal::kFileName;
  const std::string bytes = ReadFileBytes(wal_path);
  WriteFileBytes(wal_path, bytes.substr(0, 8));

  auto recovered = AvtEngine::Recover(
      BuildTracker(config, 3, 3),
      std::make_unique<SequenceSource>(&sequence), EngineOptions{},
      durability);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
}

TEST(Recovery, RejectsFingerprintMismatch) {
  SnapshotSequence sequence = SmallWorkload(46, 4, 60);
  TempDir dir("fingerprint");
  DurabilityOptions durability;
  durability.dir = dir.path();
  durability.config_extra = "k=3;l=3";
  {
    AvtEngine engine(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                     std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(engine.EnableDurability(durability).ok());
    ASSERT_TRUE(engine.Drain().ok());
  }

  // Different caller config (the CLI folds k/l in here).
  DurabilityOptions wrong_extra = durability;
  wrong_extra.config_extra = "k=4;l=3";
  auto mismatched = AvtEngine::Recover(
      MakeTracker(AvtAlgorithm::kIncAvt, 4, 3),
      std::make_unique<SequenceSource>(&sequence), EngineOptions{},
      wrong_extra);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  // Different tracker family (name differs → fingerprint differs).
  auto wrong_tracker = AvtEngine::Recover(
      MakeTracker(AvtAlgorithm::kGreedy, 3, 3),
      std::make_unique<SequenceSource>(&sequence), EngineOptions{},
      durability);
  ASSERT_FALSE(wrong_tracker.ok());
  EXPECT_EQ(wrong_tracker.status().code(), StatusCode::kInvalidArgument);

  // Different batch width (PreferredBatchSize is fingerprinted).
  TrackerConfig batched{/*label=*/"incavt/batch3", false, true, 3};
  auto wrong_batch = AvtEngine::Recover(
      BuildTracker(batched, 3, 3),
      std::make_unique<SequenceSource>(&sequence), EngineOptions{},
      durability);
  ASSERT_FALSE(wrong_batch.ok());
  EXPECT_EQ(wrong_batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(Recovery, RejectsForeignSourceStream) {
  // Resuming against a stream shorter than the committed history is
  // detected during fast-forward: the source cannot be the one the log
  // was written from.
  SnapshotSequence sequence = SmallWorkload(47, 6, 60);
  TempDir dir("foreign");
  DurabilityOptions durability;
  durability.dir = dir.path();
  {
    AvtEngine engine(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                     std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(engine.EnableDurability(durability).ok());
    ASSERT_TRUE(engine.Drain().ok());
  }
  SnapshotSequence shorter = SmallWorkload(47, 2, 60);
  auto recovered = AvtEngine::Recover(
      MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
      std::make_unique<SequenceSource>(&shorter), EngineOptions{},
      durability);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
}

TEST(Recovery, EnableDurabilityRefusesUsedDirAndLateArming) {
  SnapshotSequence sequence = SmallWorkload(48, 3, 40);
  TempDir dir("refuse");
  DurabilityOptions durability;
  durability.dir = dir.path();
  {
    AvtEngine engine(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                     std::make_unique<SequenceSource>(&sequence));
    ASSERT_TRUE(engine.EnableDurability(durability).ok());
    ASSERT_TRUE(engine.Drain().ok());
  }
  // A second fresh run must not clobber the existing log.
  AvtEngine clobber(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                    std::make_unique<SequenceSource>(&sequence));
  Status status = clobber.EnableDurability(durability);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Arming after the first Step is a caller error.
  TempDir late_dir("late");
  AvtEngine late(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                 std::make_unique<SequenceSource>(&sequence));
  ASSERT_TRUE(late.Step().value());
  DurabilityOptions late_opts;
  late_opts.dir = late_dir.path();
  status = late.EnableDurability(late_opts);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(Recovery, FaultySourceStackRecoversBitIdentically) {
  // The full resilience stack under a kill: transient faults absorbed
  // by retries BEFORE the crash, a fresh fault-injecting stack after
  // it, and the recovered run still lands bit-identical to the clean
  // uninterrupted reference.
  SnapshotSequence sequence = SmallWorkload(49);
  auto make_stack = [&sequence]() -> std::unique_ptr<DeltaSource> {
    FaultInjectionOptions fault;
    fault.seed = 5;
    fault.transient_rate = 0.25;
    RetryOptions retry;
    retry.max_retries = 16;
    retry.initial_backoff_millis = 0.01;
    retry.max_backoff_millis = 0.1;
    return std::make_unique<RetryingSource>(
        std::make_unique<FaultInjectingSource>(
            std::make_unique<SequenceSource>(&sequence), fault),
        retry);
  };

  AvtEngine reference(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                      std::make_unique<SequenceSource>(&sequence));
  ASSERT_TRUE(reference.Drain().ok());
  const FinalState expected = Capture(reference);

  TempDir dir("faulty_recover");
  DurabilityOptions durability;
  durability.dir = dir.path();
  durability.checkpoint_every = 2;
  {
    AvtEngine victim(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                     make_stack());
    ASSERT_TRUE(victim.EnableDurability(durability).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(victim.Step().value());
  }
  auto recovered = AvtEngine::Recover(
      MakeTracker(AvtAlgorithm::kIncAvt, 3, 3), make_stack(),
      EngineOptions{}, durability);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered.value()->Drain().ok());
  EXPECT_EQ(Capture(*recovered.value()), expected);
}

// --- Durability-directory I/O failures --------------------------------
// (The tests run as root in CI, so permission-based unwritable dirs are
// not a usable failure vector; routing the path THROUGH a regular file
// (ENOTDIR / EEXIST) fails for root too.)

TEST(DurabilityIo, EnableDurabilityThroughRegularFilePathIsIoError) {
  SnapshotSequence sequence = SmallWorkload(51, 3, 40);
  TempDir dir("io_notdir");
  fs::create_directories(dir.path());
  const std::string file = dir.path() + "/plain-file";
  WriteFileBytes(file, "not a directory");

  for (const std::string& target :
       {file, file + "/sub"}) {  // EEXIST-as-file, then ENOTDIR
    AvtEngine engine(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                     std::make_unique<SequenceSource>(&sequence));
    DurabilityOptions durability;
    durability.dir = target;
    Status status = engine.EnableDurability(durability);
    ASSERT_FALSE(status.ok()) << target;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << target;
    // Arming failed cleanly: the engine still runs, just not durably.
    EXPECT_TRUE(engine.Drain().ok()) << target;
  }
}

TEST(DurabilityIo, CheckpointDirVanishingMidRunHaltsDurability) {
  SnapshotSequence sequence = SmallWorkload(52, 5, 40);
  TempDir dir("io_vanish");
  DurabilityOptions durability;
  durability.dir = dir.path();
  durability.checkpoint_every = 1;

  AvtEngine engine(MakeTracker(AvtAlgorithm::kIncAvt, 3, 3),
                   std::make_unique<SequenceSource>(&sequence));
  ASSERT_TRUE(engine.EnableDurability(durability).ok());
  ASSERT_TRUE(engine.Step().value());  // G_0 + initial checkpoint

  // The directory disappears under a live run (operator error, tmpfs
  // cleanup). The WAL's open handle may keep absorbing appends, but
  // the next cadenced checkpoint cannot land — and an engine that
  // cannot keep its crash-safety promise must say so, not stream on
  // silently unprotected.
  fs::remove_all(dir.path());
  StatusOr<bool> stepped = engine.Step();
  ASSERT_FALSE(stepped.ok());
  EXPECT_EQ(stepped.status().code(), StatusCode::kIoError);
  EXPECT_EQ(engine.health().state(), HealthState::kHalted);
  EXPECT_EQ(engine.health().reason(), HealthReason::kDurabilityFailure);

  // Broken durability is sticky: no later Step silently resumes.
  StatusOr<bool> again = engine.Step();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), stepped.status().message());
}

TEST(DurabilityIo, QuarantineOpenFailureHaltsInsteadOfDroppingPoison) {
  // The dead-letter log exists so poison is never silently dropped; if
  // it cannot be opened when the first poison delta arrives, the engine
  // halts rather than pretend the delta never existed.
  TempDir dir("io_qfail");
  fs::create_directories(dir.path());
  const std::string file = dir.path() + "/plain-file";
  WriteFileBytes(file, "not a directory");

  Graph initial(6);
  std::vector<EdgeDelta> deltas;
  deltas.push_back(MakeDelta({{0, 1}}));
  deltas.push_back(MakeDelta({{3, 3}}));  // self-loop poison
  SnapshotSequence sequence(initial);
  for (const EdgeDelta& delta : deltas) sequence.PushDelta(delta);

  EngineOptions options;
  options.quarantine_dir = file + "/sub";  // ENOTDIR on lazy open
  AvtEngine engine(MakeTracker(AvtAlgorithm::kIncAvt, 2, 2),
                   std::make_unique<SequenceSource>(&sequence), options);
  Status status = engine.Drain();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(engine.health().state(), HealthState::kHalted);
  EXPECT_EQ(engine.health().reason(), HealthReason::kDurabilityFailure);
  EXPECT_EQ(engine.QuarantinedDeltas(), 0u);
}

}  // namespace
}  // namespace avt

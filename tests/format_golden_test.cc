// Golden-bytes tests for every file format the library writes: a fixed
// WAL, quarantine log, checkpoint pair and indexed .avtb edge log are
// written through the public writers and the FNV-1a 64 of each file's
// bytes is compared against a recorded constant. The round-trip suites
// (durability_test, edge_log_test, self_healing_test) decode with the
// same code that encodes, so a format drift on both sides would pass
// them; these constants pin the bytes themselves. A deliberate format
// change must update the constants and say so.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "durability/checkpoint.h"
#include "durability/quarantine.h"
#include "durability/wal.h"
#include "graph/edge_log.h"
#include "graph/graph.h"
#include "util/serde.h"

namespace avt {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("avt_golden_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
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

EdgeDelta MakeDelta(std::vector<Edge> insertions,
                    std::vector<Edge> deletions = {}) {
  EdgeDelta delta;
  delta.insertions = std::move(insertions);
  delta.deletions = std::move(deletions);
  return delta;
}

CheckpointData FixedCheckpoint() {
  CheckpointData data;
  data.fingerprint = 0x0123456789abcdefULL;
  data.totals.snapshots = 7;
  data.wal_records = 6;
  data.source_pulls = 9;
  data.num_vertices = 42;
  data.totals.total_millis = 12.5;
  data.totals.max_millis = 3.25;
  data.totals.total_candidates = 1000;
  data.totals.total_followers = 77;
  data.totals.stability_sum = 4.75;
  data.totals.anchor_changes = 2;
  data.totals.previous_anchors = {3, 0, 0xFFFFFFFFu};
  return data;
}

TEST(FormatGolden, SerdeIsLittleEndian) {
  std::string bytes;
  serde::PutU32(&bytes, 0x01020304u);
  EXPECT_EQ(bytes, std::string("\x04\x03\x02\x01", 4));
}

TEST(FormatGolden, WalBytes) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/" + DeltaWal::kFileName;
  {
    auto wal = DeltaWal::Create(path, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    // Verbatim, not normalized: endpoint order and op order are kept.
    WalRecord first;
    first.seq = 1;
    first.source_pulls = 1;
    first.delta = MakeDelta({{5, 2}, {0, 9}}, {{4, 1}});
    WalRecord empty;
    empty.seq = 2;
    empty.source_pulls = 3;
    WalRecord wide;
    wide.seq = 3;
    wide.source_pulls = 1;
    wide.delta = MakeDelta({{0xFFFFFFFFu, 0}}, {{7, 0xFFFFFFFFu}});
    ASSERT_TRUE(wal.value()->Append(first).ok());
    ASSERT_TRUE(wal.value()->Append(empty).ok());
    ASSERT_TRUE(wal.value()->Append(wide).ok());
  }
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(bytes.size(), 144u);
  EXPECT_EQ(serde::Fnv1a64(bytes), 0xeb35720443ac8ea1ULL);
}

TEST(FormatGolden, QuarantineLogBytes) {
  TempDir dir("quarantine");
  {
    auto log = QuarantineLog::Open(dir.path());
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    QuarantineRecord loop;
    loop.reason = QuarantineReason::kInvalidDelta;
    loop.source_pull = 4;
    loop.delta = MakeDelta({{3, 3}, {1, 2}});
    loop.detail = "self-loop edge {3, 3}";
    QuarantineRecord huge;
    huge.reason = QuarantineReason::kUniverseExceeded;
    huge.source_pull = 11;
    huge.delta = MakeDelta({}, {{0xFFFFFFFFu, 6}});
    huge.detail = "vertex 4294967295 at or beyond the max_universe cap";
    ASSERT_TRUE(log.value()->Append(&loop).ok());
    ASSERT_TRUE(log.value()->Append(&huge).ok());
  }
  const std::string bytes =
      ReadFileBytes(dir.path() + "/" + QuarantineLog::kFileName);
  EXPECT_EQ(serde::Fnv1a64(bytes), 0x1baf40ae727f69feULL);
}

TEST(FormatGolden, CheckpointBytesWithoutTrackerState) {
  TempDir dir("checkpoint");
  ASSERT_TRUE(WriteCheckpoint(dir.path(), FixedCheckpoint(), false).ok());
  const std::string bytes =
      ReadFileBytes(dir.path() + "/checkpoint-0000000007.avtc");
  EXPECT_EQ(serde::Fnv1a64(bytes), 0x3eaca647cc1e3000ULL);
}

TEST(FormatGolden, CheckpointBytesWithTrackerState) {
  TempDir dir("checkpoint_blob");
  CheckpointData data = FixedCheckpoint();
  data.has_tracker_state = true;
  data.tracker_state = std::string("blob\0bytes\xff", 11);
  ASSERT_TRUE(WriteCheckpoint(dir.path(), data, false).ok());
  const std::string bytes =
      ReadFileBytes(dir.path() + "/checkpoint-0000000007.avtc");
  EXPECT_EQ(serde::Fnv1a64(bytes), 0x459d843e2a2d9c8fULL);
}

TEST(FormatGolden, IndexedEdgeLogBytes) {
  TempDir dir("edge_log");
  const std::string path = dir.path() + "/golden.avtb";
  {
    auto writer = EdgeLogWriter::Create(path, /*index_every=*/2);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    Graph initial(6);
    initial.AddEdge(0, 1);
    initial.AddEdge(0, 5);
    initial.AddEdge(2, 3);
    ASSERT_TRUE(writer.value()->AppendInitial(initial).ok());
    ASSERT_TRUE(writer.value()->Append(MakeDelta({{1, 4}, {3, 200}},
                                                 {{0, 5}})).ok());
    ASSERT_TRUE(writer.value()->Append(MakeDelta({}, {})).ok());
    ASSERT_TRUE(writer.value()->Append(
        MakeDelta({{0, 0xFFFFFFFFu}}, {{2, 3}})).ok());
    ASSERT_TRUE(writer.value()->Finish().ok());
  }
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(serde::Fnv1a64(bytes), 0x629a1c63cf8229f1ULL);
}

}  // namespace
}  // namespace avt

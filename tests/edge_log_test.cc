// Binary edge-log tests: round-trips, the seek index, varint edge
// cases (id 0 and the max 32-bit id), and the damage taxonomy — the
// WAL's discipline applied to the stream format. Every-byte truncation
// and every-byte bit flips must never crash: an unfinalized log's torn
// tail is a valid prefix, while damage to a FINALIZED log (or to any
// header/frame checksum) is kCorruption, exactly like
// tests/durability_test.cc pins for the WAL and checkpoints.

#include "graph/edge_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "gen/models.h"
#include "graph/delta_source.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/serde.h"

namespace avt {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("avt_elog_" + tag + "_" + std::to_string(::getpid())))
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
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

EdgeDelta MakeDelta(std::vector<Edge> insertions,
                    std::vector<Edge> deletions = {}) {
  EdgeDelta delta;
  delta.insertions = std::move(insertions);
  delta.deletions = std::move(deletions);
  delta.Canonicalize();
  return delta;
}

// A small deterministic stream: G_0 plus `n` churn-ish deltas.
std::vector<EdgeDelta> SampleFrames(size_t n, uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<EdgeDelta> frames;
  frames.push_back(MakeDelta({{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}}));
  for (size_t i = 1; i < n; ++i) {
    std::vector<Edge> ins, del;
    const size_t count = 1 + rng.Uniform(4);
    for (size_t j = 0; j < count; ++j) {
      VertexId u = static_cast<VertexId>(rng.Uniform(40));
      VertexId v = static_cast<VertexId>(rng.Uniform(40));
      if (u == v) v = (v + 1) % 40;
      (rng.Uniform(2) == 0 ? ins : del).push_back(Edge(u, v));
    }
    frames.push_back(MakeDelta(std::move(ins), std::move(del)));
  }
  return frames;
}

std::string WriteLog(const std::string& path,
                     const std::vector<EdgeDelta>& frames,
                     uint32_t index_every, bool finish) {
  auto writer = EdgeLogWriter::Create(path, index_every);
  EXPECT_TRUE(writer.ok());
  for (const EdgeDelta& frame : frames) {
    EXPECT_TRUE(writer.value()->Append(frame).ok());
  }
  if (finish) {
    EXPECT_TRUE(writer.value()->Finish().ok());
  }
  writer.value().reset();  // an unfinished writer flushes on destruction
  return ReadFileBytes(path);
}

// Drains a reader; returns the decoded frames, or stops at the first
// error and reports it through `status`.
std::vector<EdgeDelta> DrainReader(EdgeLogReader& reader, Status* status) {
  std::vector<EdgeDelta> frames;
  EdgeDelta delta;
  for (;;) {
    StatusOr<bool> more = reader.NextFrame(&delta);
    if (!more.ok()) {
      *status = more.status();
      return frames;
    }
    if (!more.value()) {
      *status = Status::Ok();
      return frames;
    }
    frames.push_back(delta);
  }
}

void ExpectSameFrames(const std::vector<EdgeDelta>& got,
                      const std::vector<EdgeDelta>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].insertions, want[i].insertions)
        << context << " frame " << i;
    EXPECT_EQ(got[i].deletions, want[i].deletions)
        << context << " frame " << i;
  }
}

// --- Round trips -------------------------------------------------------

TEST(EdgeLog, RoundTripsFinalizedLog) {
  TempDir dir("roundtrip");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(20);
  WriteLog(path, frames, /*index_every=*/4, /*finish=*/true);

  auto reader = EdgeLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value()->finalized());
  EXPECT_EQ(reader.value()->num_frames(), frames.size());
  EXPECT_EQ(reader.value()->index_every(), 4u);
  // Universe = max endpoint + 1 across every batch written.
  EXPECT_GT(reader.value()->num_vertices(), 0u);

  Status status;
  std::vector<EdgeDelta> got = DrainReader(*reader.value(), &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSameFrames(got, frames, "finalized");

  // Draining past the end stays a clean false.
  EdgeDelta extra;
  auto more = reader.value()->NextFrame(&extra);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

TEST(EdgeLog, UnfinalizedLogStreamsAsValidPrefix) {
  // A writer that never called Finish (died mid-stream) leaves the
  // placeholder header: the reader streams every intact frame and
  // reports a clean end, with no declared universe.
  TempDir dir("unfinalized");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(6);
  WriteLog(path, frames, /*index_every=*/4, /*finish=*/false);

  auto reader = EdgeLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.value()->finalized());
  EXPECT_EQ(reader.value()->num_vertices(), 0u);

  Status status;
  std::vector<EdgeDelta> got = DrainReader(*reader.value(), &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSameFrames(got, frames, "unfinalized");
}

TEST(EdgeLog, VarintEdgeCasesIdZeroAndMaxIdRoundTrip) {
  // Id 0 and the maximum 32-bit id must survive the delta-varint
  // packing (0 exercises the zero-delta path, 0xFFFFFFFF the 5-byte
  // LEB128 path), including both appearing in one batch.
  TempDir dir("varint");
  const std::string path = dir.path() + "/log.avtb";
  const VertexId kMax = 0xFFFFFFFFu;
  std::vector<EdgeDelta> frames;
  frames.push_back(MakeDelta({{0, 1}}));
  frames.push_back(MakeDelta({{0, kMax}, {kMax - 1, kMax}},
                             {{0, 1}}));
  WriteLog(path, frames, /*index_every=*/0, /*finish=*/true);

  auto reader = EdgeLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Status status;
  std::vector<EdgeDelta> got = DrainReader(*reader.value(), &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSameFrames(got, frames, "varint");
}

TEST(EdgeLog, WriterRejectsNonCanonicalBatches) {
  TempDir dir("reject");
  const std::string path = dir.path() + "/log.avtb";
  auto writer = EdgeLogWriter::Create(path);
  ASSERT_TRUE(writer.ok());

  EdgeDelta self_loop;
  self_loop.insertions = {Edge(3, 3)};
  EXPECT_EQ(writer.value()->Append(self_loop).code(),
            StatusCode::kInvalidArgument);

  EdgeDelta unsorted;
  unsorted.insertions = {Edge(5, 6), Edge(1, 2)};
  EXPECT_EQ(writer.value()->Append(unsorted).code(),
            StatusCode::kInvalidArgument);

  EdgeDelta duplicate;
  duplicate.deletions = {Edge(1, 2), Edge(1, 2)};
  EXPECT_EQ(writer.value()->Append(duplicate).code(),
            StatusCode::kInvalidArgument);

  // An undercounting explicit universe is rejected at Finish.
  EXPECT_TRUE(writer.value()->Append(MakeDelta({{0, 9}})).ok());
  EXPECT_EQ(writer.value()->Finish(/*num_vertices=*/5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(writer.value()->Finish(/*num_vertices=*/10).ok());
}

// --- Seek index --------------------------------------------------------

TEST(EdgeLog, SeekToFrameMatchesSequentialDecode) {
  TempDir dir("seek");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(100);
  WriteLog(path, frames, /*index_every=*/16, /*finish=*/true);

  auto reader = EdgeLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  // Arbitrary jump order: before/at/after index stride boundaries,
  // backwards and forwards.
  for (uint64_t target : {17ULL, 0ULL, 99ULL, 16ULL, 15ULL, 48ULL, 1ULL,
                          63ULL, 99ULL, 0ULL}) {
    ASSERT_TRUE(reader.value()->SeekToFrame(target).ok()) << target;
    EXPECT_EQ(reader.value()->cursor_frame(), target);
    EdgeDelta delta;
    auto more = reader.value()->NextFrame(&delta);
    ASSERT_TRUE(more.ok()) << target;
    ASSERT_TRUE(more.value()) << target;
    EXPECT_EQ(delta.insertions, frames[target].insertions) << target;
    EXPECT_EQ(delta.deletions, frames[target].deletions) << target;
  }
  // Seeking to num_frames is the end position; one past is an error.
  ASSERT_TRUE(reader.value()->SeekToFrame(frames.size()).ok());
  EdgeDelta delta;
  auto more = reader.value()->NextFrame(&delta);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  EXPECT_EQ(reader.value()->SeekToFrame(frames.size() + 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(EdgeLog, ReleasedPagesReadBackAfterAFullDrain) {
  // Frames of a few hundred bytes each over ~150 KiB: NextFrame hands
  // the pages it has read past back to the kernel, so a later
  // ReadInitialFrame, seek and second drain must fault them back in.
  TempDir dir("release");
  const std::string path = dir.path() + "/log.avtb";
  Rng rng(29);
  std::vector<EdgeDelta> frames;
  for (int i = 0; i < 300; ++i) {
    std::vector<Edge> ins, del;
    for (int j = 0; j < 120; ++j) {
      const VertexId u = static_cast<VertexId>(rng.Uniform(50000));
      const VertexId v = static_cast<VertexId>(rng.Uniform(50000));
      if (u != v) (i == 0 || j % 2 == 0 ? ins : del).push_back(Edge(u, v));
    }
    frames.push_back(MakeDelta(std::move(ins), std::move(del)));
  }
  const std::string bytes =
      WriteLog(path, frames, /*index_every=*/16, /*finish=*/true);
  ASSERT_GT(bytes.size(), size_t{32} * 4096);

  auto fresh = EdgeLogReader::Open(path);
  ASSERT_TRUE(fresh.ok());
  Status status;
  const std::vector<EdgeDelta> want = DrainReader(*fresh.value(), &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSameFrames(want, frames, "fresh reader");

  auto reader = EdgeLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ExpectSameFrames(DrainReader(*reader.value(), &status), want, "drain");
  ASSERT_TRUE(status.ok()) << status.ToString();

  EdgeDelta initial;
  auto decoded = reader.value()->ReadInitialFrame(&initial);
  ASSERT_TRUE(decoded.ok() && decoded.value());
  EXPECT_EQ(initial.insertions, want[0].insertions);
  EXPECT_TRUE(initial.deletions.empty());

  ASSERT_TRUE(reader.value()->SeekToFrame(0).ok());
  ExpectSameFrames(DrainReader(*reader.value(), &status), want,
                   "drain after SeekToFrame(0)");
  ASSERT_TRUE(status.ok()) << status.ToString();

  ASSERT_TRUE(reader.value()->SeekToFrame(150).ok());
  EdgeDelta delta;
  auto more = reader.value()->NextFrame(&delta);
  ASSERT_TRUE(more.ok() && more.value());
  EXPECT_EQ(delta.insertions, want[150].insertions);
  EXPECT_EQ(delta.deletions, want[150].deletions);
}

TEST(EdgeLog, SeekWorksWithoutAnIndex) {
  TempDir dir("seek_noindex");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(12);
  WriteLog(path, frames, /*index_every=*/0, /*finish=*/true);

  auto reader = EdgeLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.value()->SeekToFrame(9).ok());
  EdgeDelta delta;
  auto more = reader.value()->NextFrame(&delta);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  EXPECT_EQ(delta.insertions, frames[9].insertions);
}

// --- Damage taxonomy ---------------------------------------------------

TEST(EdgeLog, OpenErrorsAreTyped) {
  TempDir dir("open_errors");
  EXPECT_EQ(EdgeLogReader::Open(dir.path() + "/missing.avtb").status().code(),
            StatusCode::kNotFound);

  const std::string empty = dir.path() + "/empty.avtb";
  WriteFileBytes(empty, "");
  EXPECT_EQ(EdgeLogReader::Open(empty).status().code(),
            StatusCode::kCorruption);

  const std::string junk = dir.path() + "/junk.avtb";
  WriteFileBytes(junk, std::string(64, 'x'));
  EXPECT_EQ(EdgeLogReader::Open(junk).status().code(),
            StatusCode::kCorruption);
}

TEST(EdgeLog, FinalizedLogEveryTruncationIsCorruption) {
  // A finalized header claims its frame count; losing ANY tail byte
  // breaks that claim (frames or the seek index), so the reader must
  // reject — never crash, never silently return the full stream.
  TempDir dir("trunc_final");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(8);
  const std::string bytes =
      WriteLog(path, frames, /*index_every=*/2, /*finish=*/true);

  const std::string damaged_path = dir.path() + "/damaged.avtb";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(damaged_path, bytes.substr(0, len));
    auto reader = EdgeLogReader::Open(damaged_path);
    if (!reader.ok()) {
      EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
          << "len=" << len;
      continue;
    }
    Status status;
    std::vector<EdgeDelta> got = DrainReader(*reader.value(), &status);
    EXPECT_FALSE(status.ok() && got.size() == frames.size())
        << "len=" << len << " decoded the full stream from a truncation";
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << "len=" << len;
    }
  }
}

TEST(EdgeLog, FinalizedLogEveryBitFlipIsCorruption) {
  // CRCs cover the header fields, every frame payload, and the seek
  // index; length fields are validated by the CRC of whatever they
  // frame. A flipped bit must surface as kCorruption at Open or during
  // the drain — never a crash, never a clean full decode.
  TempDir dir("flip_final");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(4);
  const std::string bytes =
      WriteLog(path, frames, /*index_every=*/2, /*finish=*/true);

  const std::string damaged_path = dir.path() + "/damaged.avtb";
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x01);
    WriteFileBytes(damaged_path, damaged);
    auto reader = EdgeLogReader::Open(damaged_path);
    if (!reader.ok()) {
      // Header or index damage; the version field is CRC-covered, so a
      // flip there is corruption before it can look like a version.
      EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
          << "pos=" << pos;
      continue;
    }
    Status status;
    std::vector<EdgeDelta> got = DrainReader(*reader.value(), &status);
    EXPECT_FALSE(status.ok()) << "pos=" << pos
                              << " decoded cleanly despite a bit flip";
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "pos=" << pos;
    (void)got;
  }
}

TEST(EdgeLog, UnfinalizedLogTruncationIsAValidPrefix) {
  // Torn-tail discipline: for a log whose writer never finalized, any
  // truncation past the fixed header yields the intact frames and a
  // clean end of stream — the WAL's crash-normal semantics.
  TempDir dir("trunc_open");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(6);
  const std::string bytes =
      WriteLog(path, frames, /*index_every=*/4, /*finish=*/false);

  const std::string damaged_path = dir.path() + "/damaged.avtb";
  size_t full_prefixes = 0;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    WriteFileBytes(damaged_path, bytes.substr(0, len));
    auto reader = EdgeLogReader::Open(damaged_path);
    if (len < EdgeLogLayout::kHeaderSize) {
      // The header is written whole at Create; a file below it is not
      // crash-normal for this format.
      ASSERT_FALSE(reader.ok()) << "len=" << len;
      EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
          << "len=" << len;
      continue;
    }
    ASSERT_TRUE(reader.ok()) << "len=" << len;
    Status status;
    std::vector<EdgeDelta> got = DrainReader(*reader.value(), &status);
    ASSERT_TRUE(status.ok())
        << "len=" << len << ": " << status.ToString();
    ASSERT_LE(got.size(), frames.size()) << "len=" << len;
    ExpectSameFrames(
        got,
        std::vector<EdgeDelta>(frames.begin(), frames.begin() + got.size()),
        "torn len=" + std::to_string(len));
    if (got.size() == frames.size()) ++full_prefixes;
  }
  // Sanity: the loop crossed real frame boundaries.
  EXPECT_GE(full_prefixes, 1u);
}

// --- Source + conversion ----------------------------------------------

TEST(EdgeLog, MmapSourceReplaysTheWrittenStream) {
  TempDir dir("source");
  const std::string path = dir.path() + "/log.avtb";
  const std::vector<EdgeDelta> frames = SampleFrames(10);
  WriteLog(path, frames, /*index_every=*/4, /*finish=*/true);

  auto source = MmapEdgeLogSource::Open(path);
  ASSERT_TRUE(source.ok());
  // G_0 is frame 0's insertions over the declared universe.
  Graph expected(source.value()->InitialGraph().NumVertices());
  for (const Edge& e : frames[0].insertions) expected.AddEdge(e.u, e.v);
  EXPECT_TRUE(DiffGraphs(expected, source.value()->InitialGraph()).Empty());

  EdgeDelta delta;
  for (size_t i = 1; i < frames.size(); ++i) {
    auto more = source.value()->NextDelta(&delta);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(more.value());
    EXPECT_EQ(delta.insertions, frames[i].insertions) << i;
    EXPECT_EQ(delta.deletions, frames[i].deletions) << i;
  }
  auto end = source.value()->NextDelta(&delta);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value());
}

// --- G_0: bulk build and hand-off -------------------------------------

void ExpectSameLists(const Graph& got, const Graph& want,
                     const std::string& context) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices()) << context;
  EXPECT_EQ(got.NumEdges(), want.NumEdges()) << context;
  for (VertexId v = 0; v < want.NumVertices(); ++v) {
    const std::span<const VertexId> a = got.Neighbors(v);
    const std::span<const VertexId> b = want.Neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << context << " vertex " << v;
  }
}

Graph AddEdgesInOrder(VertexId n, const std::vector<Edge>& edges) {
  Graph g(n);
  for (const Edge& e : edges) g.AddEdge(e.u, e.v);
  return g;
}

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

// A finalized one-frame log written byte by byte, bypassing the
// writer's canonical-batch check: frame 0 may then hold an edge twice
// in a row (du = dv = 0), which DecodeBatch accepts.
std::string HandWrittenLog(VertexId num_vertices,
                           const std::vector<Edge>& initial) {
  std::string payload;
  PutVarint(&payload, initial.size());
  PutVarint(&payload, 0);
  VertexId prev_u = 0, prev_v = 0;
  for (const Edge& e : initial) {
    const VertexId du = e.u - prev_u;
    if (du != 0) prev_v = 0;
    PutVarint(&payload, du);
    PutVarint(&payload, e.v - prev_v);
    prev_u = e.u;
    prev_v = e.v;
  }
  std::string fields;
  serde::PutU32(&fields, 1);  // version
  serde::PutU32(&fields, 0);  // no seek index
  serde::PutU64(&fields, num_vertices);
  serde::PutU64(&fields, 1);  // frames
  serde::PutU64(&fields, 0);  // index offset
  std::string bytes(EdgeLogLayout::kMagic, EdgeLogLayout::kMagicSize);
  bytes += fields;
  serde::PutU32(&bytes, Crc32(fields.data(), fields.size()));
  serde::PutU32(&bytes, static_cast<uint32_t>(payload.size()));
  serde::PutU32(&bytes, Crc32(payload.data(), payload.size()));
  return bytes + payload;
}

// Checks the source's G_0 against AddEdge over `frame0` in order, then
// hands it off: the taken graph, a second take and InitialGraph() (both
// decoded again from frame 0), and a take after that must all be the
// same graph.
void ExpectInitialGraphAndHandOff(MmapEdgeLogSource& source,
                                  const std::vector<Edge>& frame0) {
  const Graph want =
      AddEdgesInOrder(source.InitialGraph().NumVertices(), frame0);
  ExpectSameLists(source.InitialGraph(), want, "open");
  ExpectSameLists(source.TakeInitialGraph(), want, "taken");
  ExpectSameLists(source.TakeInitialGraph(), want, "taken again");
  ExpectSameLists(source.InitialGraph(), want, "decoded again");
  ExpectSameLists(source.TakeInitialGraph(), want, "taken after that");
}

TEST(EdgeLog, BulkInitialGraphKeepsPerEdgeOrderWithAdjacentDuplicates) {
  TempDir dir("bulk_dup");
  const std::string path = dir.path() + "/dup.avtb";
  const std::vector<Edge> frame0 = {{0, 1}, {0, 1}, {0, 3}, {1, 2},
                                    {1, 2}, {1, 4}, {2, 3}, {3, 4},
                                    {3, 4}};
  WriteFileBytes(path, HandWrittenLog(6, frame0));
  auto source = MmapEdgeLogSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value()->InitialGraph().NumEdges(), 6u);
  ExpectInitialGraphAndHandOff(*source.value(), frame0);
}

TEST(EdgeLog, BulkInitialGraphKeepsPerEdgeOrderOnAGeneratedGraph) {
  TempDir dir("bulk_gen");
  const std::string path = dir.path() + "/gen.avtb";
  Rng rng(5);
  const Graph g = ChungLuPowerLaw(3000, 8.0, 2.3, 200, rng);
  auto writer = EdgeLogWriter::Create(path, 4);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendInitial(g).ok());
  ASSERT_TRUE(writer.value()->Finish(g.NumVertices()).ok());
  writer.value().reset();

  auto source = MmapEdgeLogSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ExpectInitialGraphAndHandOff(*source.value(), g.CollectEdges());
}

TEST(EdgeLog, ConvertMatchesTextStreamerBitForBit) {
  // The convert path's whole contract: the binary log holds EXACTLY
  // the deltas the text streamer emits for the same (T, window).
  TempDir dir("convert");
  const std::string text = dir.path() + "/temporal.txt";
  {
    std::ofstream out(text);
    out << "# events\n";
    Rng rng(11);
    for (int64_t ts = 1; ts <= 600; ++ts) {
      VertexId u = static_cast<VertexId>(rng.Uniform(30));
      VertexId v = static_cast<VertexId>(rng.Uniform(30));
      out << u << " " << v << " " << ts << "\n";
    }
  }
  const size_t T = 6;
  const uint32_t window = 150;
  const std::string binlog = dir.path() + "/log.avtb";
  auto stats = ConvertTemporalToEdgeLog(text, T, window, binlog);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().deltas, T - 1);

  auto text_source = StreamingEdgeFileSource::Open(text, T, window);
  ASSERT_TRUE(text_source.ok());
  auto bin_source = MmapEdgeLogSource::Open(binlog);
  ASSERT_TRUE(bin_source.ok());
  EXPECT_TRUE(DiffGraphs(text_source.value()->InitialGraph(),
                         bin_source.value()->InitialGraph())
                  .Empty());
  EXPECT_EQ(text_source.value()->InitialGraph().NumVertices(),
            bin_source.value()->InitialGraph().NumVertices());

  EdgeDelta from_text, from_bin;
  for (;;) {
    auto t_more = text_source.value()->NextDelta(&from_text);
    auto b_more = bin_source.value()->NextDelta(&from_bin);
    ASSERT_TRUE(t_more.ok() && b_more.ok());
    ASSERT_EQ(t_more.value(), b_more.value());
    if (!t_more.value()) break;
    EXPECT_EQ(from_text.insertions, from_bin.insertions);
    EXPECT_EQ(from_text.deletions, from_bin.deletions);
  }
}

TEST(EdgeLog, ConvertRejectsUnsortedAndMalformedInput) {
  TempDir dir("convert_errors");
  const std::string unsorted = dir.path() + "/unsorted.txt";
  WriteFileBytes(unsorted, "1 2 50\n3 4 10\n");
  EXPECT_EQ(ConvertTemporalToEdgeLog(unsorted, 4, 10,
                                     dir.path() + "/a.avtb")
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  const std::string malformed = dir.path() + "/malformed.txt";
  WriteFileBytes(malformed, "1 2 10\nnot an edge\n");
  EXPECT_EQ(ConvertTemporalToEdgeLog(malformed, 4, 10,
                                     dir.path() + "/b.avtb")
                .status()
                .code(),
            StatusCode::kCorruption);
  // A failed conversion leaves no half-written artifact behind.
  EXPECT_FALSE(fs::exists(dir.path() + "/a.avtb"));
  EXPECT_FALSE(fs::exists(dir.path() + "/b.avtb"));
}

TEST(EdgeLog, MetadataOpenSkipsTheScanAndMatchesTheScanningOpen) {
  // Satellite: a caller that already knows the stream metadata gets a
  // single-pass open whose emitted stream is identical to the
  // two-pass one.
  TempDir dir("metadata");
  const std::string text = dir.path() + "/temporal.txt";
  {
    std::ofstream out(text);
    Rng rng(5);
    for (int64_t ts = 1; ts <= 400; ++ts) {
      VertexId u = static_cast<VertexId>(rng.Uniform(20));
      VertexId v = static_cast<VertexId>(rng.Uniform(20));
      out << u << " " << v << " " << ts << "\n";
    }
  }
  auto meta = ScanTemporalMetadata(text);
  ASSERT_TRUE(meta.ok());

  auto scanned = StreamingEdgeFileSource::Open(text, 5, 120);
  auto handed = StreamingEdgeFileSource::Open(text, 5, 120, meta.value());
  ASSERT_TRUE(scanned.ok());
  ASSERT_TRUE(handed.ok());
  EXPECT_TRUE(DiffGraphs(scanned.value()->InitialGraph(),
                         handed.value()->InitialGraph())
                  .Empty());
  EdgeDelta a, b;
  for (;;) {
    auto a_more = scanned.value()->NextDelta(&a);
    auto b_more = handed.value()->NextDelta(&b);
    ASSERT_TRUE(a_more.ok() && b_more.ok());
    ASSERT_EQ(a_more.value(), b_more.value());
    if (!a_more.value()) break;
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.deletions, b.deletions);
  }
}

}  // namespace
}  // namespace avt

// Binary temporal edge log: the compact on-disk delta-stream format
// behind `avt_cli stream --source=binlog`, `avt_cli convert`, and
// perfbench's workloads.
//
// Every benchmark before PR 10 parsed its stream from text — two
// passes of istringstream over "u v t" lines per run, O(file) each.
// At the paper's real-graph scales (millions of vertices, tens of
// millions of events) that parse dominates ingestion, so this format
// stores the WINDOWED stream itself: one frame per transition, already
// diffed, varint-packed, CRC-framed, and preceded by a header that
// declares the dense vertex universe and delta count up front (no
// metadata pre-scan, and tracker growth is a single reserve).
//
// File layout (all fixed-width fields little-endian):
//
//   [8-byte magic "AVTELG1\n"]
//   [header: u32 version, u32 index_every,
//            u64 num_vertices, u64 num_frames, u64 index_offset,
//            u32 crc32(header fields above)]
//   frame*                      -- frame 0 is G_0 (insertions only),
//                                  frames 1..num_frames-1 are deltas
//   [seek index frame]          -- at index_offset when index_every > 0
//
//   frame   := [u32 payload_len][u32 crc32(payload)][payload]
//   payload := varint n_insertions, varint n_deletions,
//              packed insertion edges, packed deletion edges
//   index   := framed like a frame;
//              payload := u64 count, count * u64 byte offsets
//                         (offset of frame i*index_every)
//
// Edge packing: a canonical batch is sorted and unique, so each edge
// is stored as varint(u - prev_u) then varint(v - prev_v), where
// prev_v resets to 0 whenever u advances — consecutive edges of one
// vertex cost ~2 bytes. Varints are LEB128 over the full id range
// (0 and 0xFFFFFFFF round-trip; tests/edge_log_test.cc pins both).
//
// Failure discipline (the WAL's, durability/wal.h): the header is
// written with placeholder counts at Create and patched by Finish, so
// a writer that died mid-stream leaves an UNFINALIZED log — readers
// stream its intact frames and treat an incomplete final frame as a
// torn tail (clean end of stream, valid prefix). A FINALIZED log that
// holds fewer intact frames than its header claims, a CRC mismatch, a
// bad magic, or a frame that decodes to the wrong byte count is
// kCorruption — the bytes are not what was written. Damaged files
// never crash the reader (every path is a Status).

#ifndef AVT_GRAPH_EDGE_LOG_H_
#define AVT_GRAPH_EDGE_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/delta.h"
#include "graph/delta_source.h"
#include "graph/graph.h"
#include "util/status.h"

namespace avt {

namespace edge_log_internal {

/// Whole-file mapping (mmap on POSIX, a heap buffer elsewhere so the
/// format stays usable on platforms without <sys/mman.h>).
class MappedFile {
 public:
  static StatusOr<std::unique_ptr<MappedFile>> Open(
      const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile() = default;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;           // true: munmap; false: delete[]
};

}  // namespace edge_log_internal

/// Fixed layout constants (exposed for tests that surgically damage
/// files byte-by-byte).
struct EdgeLogLayout {
  static constexpr char kMagic[9] = "AVTELG1\n";  // 8 bytes + NUL
  static constexpr size_t kMagicSize = 8;
  static constexpr size_t kHeaderFieldsSize = 4 + 4 + 8 + 8 + 8;
  static constexpr size_t kHeaderSize =
      kMagicSize + kHeaderFieldsSize + 4;  // + header crc
  /// num_vertices / num_frames value meaning "writer never finalized".
  static constexpr uint64_t kUnfinalized = ~0ULL;
};

/// Streams canonical deltas into a new edge log. Frame 0 must be the
/// initial graph (AppendInitial or an insertions-only Append); Finish
/// writes the seek index and patches the header — a log abandoned
/// before Finish stays readable as an unfinalized valid prefix.
class EdgeLogWriter {
 public:
  /// Creates `path` (truncating an existing file). `index_every` is the
  /// seek-index stride in frames; 0 disables the index.
  static StatusOr<std::unique_ptr<EdgeLogWriter>> Create(
      const std::string& path, uint32_t index_every = 64);

  ~EdgeLogWriter();
  EdgeLogWriter(const EdgeLogWriter&) = delete;
  EdgeLogWriter& operator=(const EdgeLogWriter&) = delete;

  /// Appends one frame. Batches must be canonical (sorted, unique, no
  /// self-loops — EdgeDelta::Canonicalize form); violations are
  /// kInvalidArgument so a malformed frame can never be written.
  Status Append(const EdgeDelta& delta);

  /// Convenience for frame 0: the graph's sorted edge set as an
  /// insertions-only frame.
  Status AppendInitial(const Graph& initial);

  /// Writes the seek index, patches the header (num_vertices: pass 0
  /// to use max-endpoint-seen + 1; an explicit value must cover every
  /// endpoint written), and flushes. The writer is unusable after.
  Status Finish(VertexId num_vertices = 0);

  uint64_t frames_written() const { return frames_; }
  uint64_t bytes_written() const { return offset_; }
  /// The universe Finish(0) would declare: max endpoint seen + 1.
  VertexId universe_seen() const {
    return any_endpoint_ ? static_cast<VertexId>(max_endpoint_ + 1) : 0;
  }

 private:
  EdgeLogWriter(std::FILE* file, uint32_t index_every)
      : file_(file), index_every_(index_every) {}

  std::FILE* file_;
  uint32_t index_every_;
  uint64_t frames_ = 0;
  uint64_t offset_ = 0;       // bytes written so far
  uint64_t max_endpoint_ = 0;
  bool any_endpoint_ = false;
  bool finished_ = false;
  std::vector<uint64_t> index_;  // offset of frame i*index_every
  std::string scratch_;          // reused payload buffer
};

/// Random-access reader over a mapped edge log. NextFrame decodes
/// frames in order straight out of the mapping (the only writes are
/// into the caller's reused EdgeDelta, so steady-state pulls allocate
/// nothing); SeekToFrame jumps via the sparse index.
class EdgeLogReader {
 public:
  static StatusOr<std::unique_ptr<EdgeLogReader>> Open(
      const std::string& path);

  /// Header universe (kUnfinalized sentinel resolved to 0 for
  /// unfinalized logs — the universe is then discovered per frame).
  VertexId num_vertices() const;
  bool finalized() const { return num_frames_ != EdgeLogLayout::kUnfinalized; }
  /// Declared frame count; kUnfinalized when the writer never finished.
  uint64_t num_frames() const { return num_frames_; }
  uint32_t index_every() const { return index_every_; }
  size_t file_bytes() const { return map_->size(); }

  /// Decodes the next frame into `*delta` (overwriting it). false at
  /// the clean end of the stream — which for an unfinalized log
  /// includes a torn final frame (valid-prefix discipline). Damage is
  /// kCorruption, including a finalized log running out of intact
  /// frames below its declared count.
  StatusOr<bool> NextFrame(EdgeDelta* delta);

  /// Repositions so the next NextFrame decodes frame `index`: binary
  /// search of the seek index, then a forward skip (length fields
  /// only; CRCs are verified when frames are decoded). Works without
  /// an index by skipping from frame 0.
  Status SeekToFrame(uint64_t index);

  /// Index of the frame the next NextFrame call will decode.
  uint64_t cursor_frame() const { return frame_index_; }

 private:
  EdgeLogReader() = default;

  /// End of the frame region (index_offset when an index exists, else
  /// file size).
  size_t FrameRegionEnd() const;

  std::unique_ptr<edge_log_internal::MappedFile> map_;
  uint64_t num_vertices_ = 0;
  uint64_t num_frames_ = 0;
  uint32_t index_every_ = 0;
  uint64_t index_offset_ = 0;
  std::vector<uint64_t> index_;  // decoded seek index (finalized logs)
  size_t cursor_ = 0;            // byte offset of the next frame
  uint64_t frame_index_ = 0;     // frame number at cursor_
};

/// Zero-copy pull-based DeltaSource over a binary edge log: frame 0 is
/// InitialGraph (universe = the header's declared vertex count, so
/// consumers reserve once and EnsureVertices never fires on finalized
/// logs), frames 1..N-1 are the deltas. Composes with every decorator
/// (Retrying/Breaker/Coalescing) like any other source.
class MmapEdgeLogSource : public DeltaSource {
 public:
  static StatusOr<std::unique_ptr<MmapEdgeLogSource>> Open(
      const std::string& path);

  const Graph& InitialGraph() const override { return initial_; }
  StatusOr<bool> NextDelta(EdgeDelta* delta) override;
  std::string name() const override { return "binlog-mmap"; }

  const EdgeLogReader& reader() const { return *reader_; }

 private:
  MmapEdgeLogSource() = default;

  std::unique_ptr<EdgeLogReader> reader_;
  Graph initial_;
};

/// Drains `source` (G_0 + every delta) into a finalized edge log at
/// `path`. The universe is max(initial universe, endpoints seen).
struct EdgeLogWriteStats {
  uint64_t deltas = 0;   // frames past G_0
  uint64_t bytes = 0;
  VertexId num_vertices = 0;
};
StatusOr<EdgeLogWriteStats> WriteEdgeLog(DeltaSource& source,
                                         const std::string& path,
                                         uint32_t index_every = 64);

/// Transcodes a sorted SNAP-style temporal edge list into an edge log:
/// one metadata scan (ScanTemporalMetadata), then a single streaming
/// window-diff pass shared with `stream --source=file` — the deltas in
/// the log are bit-identical to what the text streamer emits for the
/// same (T, window_days). Unsorted input is kInvalidArgument, a
/// malformed line kCorruption (the CLI maps both onto its exit codes).
StatusOr<EdgeLogWriteStats> ConvertTemporalToEdgeLog(
    const std::string& text_path, size_t T, uint32_t window_days,
    const std::string& out_path, uint32_t index_every = 64);

}  // namespace avt

#endif  // AVT_GRAPH_EDGE_LOG_H_

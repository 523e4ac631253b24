#include "graph/edge_log.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/serde.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace avt {

namespace {

// LEB128. Full uint64_t range so 0 and 0xFFFFFFFF ids round-trip.
void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(const uint8_t* data, size_t size, size_t* pos,
               uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64 && *pos < size; shift += 7) {
    const uint8_t byte = data[(*pos)++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;  // ran off the payload or a >64-bit varint
}

// Packs one canonical batch as (delta-u, delta-v) varints. Returns
// kInvalidArgument if the batch is not canonical — sortedness is what
// makes the deltas nonnegative, so it is a precondition, not a hint.
Status EncodeBatch(const std::vector<Edge>& edges, std::string* out,
                   uint64_t* max_endpoint, bool* any_endpoint) {
  VertexId prev_u = 0;
  VertexId prev_v = 0;
  bool first = true;
  for (const Edge& e : edges) {
    if (e.u == e.v) {
      return Status::InvalidArgument(
          "edge log frame contains a self-loop; canonicalize the delta");
    }
    if (!first &&
        !(prev_u < e.u || (prev_u == e.u && prev_v < e.v))) {
      return Status::InvalidArgument(
          "edge log frame batch is not sorted+unique; canonicalize the "
          "delta");
    }
    const uint64_t du = static_cast<uint64_t>(e.u) - prev_u;
    if (du != 0) prev_v = 0;
    PutVarint(out, du);
    PutVarint(out, static_cast<uint64_t>(e.v) - prev_v);
    prev_u = e.u;
    prev_v = e.v;
    if (e.v > *max_endpoint || !*any_endpoint) *max_endpoint = e.v;
    *any_endpoint = true;
    first = false;
  }
  return Status::Ok();
}

// Unpacks `count` edges. Pure bounds-checked decoding: any shape of
// damage returns false (the caller reports kCorruption), never UB.
bool DecodeBatch(const uint8_t* data, size_t size, size_t* pos,
                 uint64_t count, std::vector<Edge>* out) {
  out->clear();
  out->reserve(static_cast<size_t>(count));
  VertexId prev_u = 0;
  VertexId prev_v = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t du = 0, dv = 0;
    if (!GetVarint(data, size, pos, &du)) return false;
    if (!GetVarint(data, size, pos, &dv)) return false;
    const uint64_t u = static_cast<uint64_t>(prev_u) + du;
    const uint64_t v = (du != 0 ? 0ULL : static_cast<uint64_t>(prev_v)) + dv;
    if (u > 0xFFFFFFFFULL || v > 0xFFFFFFFFULL || u >= v) {
      return false;  // id overflow, self-loop, or broken normalization
    }
    out->push_back(Edge(static_cast<VertexId>(u), static_cast<VertexId>(v)));
    prev_u = static_cast<VertexId>(u);
    prev_v = static_cast<VertexId>(v);
  }
  return true;
}

// The 32 header fields after the magic, as written both at Create
// (placeholders) and at Finish (patched).
std::string EncodeHeaderFields(uint32_t index_every, uint64_t num_vertices,
                               uint64_t num_frames, uint64_t index_offset) {
  std::string fields;
  serde::PutU32(&fields, 1);  // version
  serde::PutU32(&fields, index_every);
  serde::PutU64(&fields, num_vertices);
  serde::PutU64(&fields, num_frames);
  serde::PutU64(&fields, index_offset);
  return fields;
}

Status WriteFrame(std::FILE* file, const std::string& payload,
                  uint64_t* offset) {
  if (!serde::WriteFrame(file, payload)) {
    return Status::IoError("edge log write failed");
  }
  *offset += serde::kFrameHeaderSize + payload.size();
  return Status::Ok();
}

}  // namespace

namespace edge_log_internal {

StatusOr<std::unique_ptr<MappedFile>> MappedFile::Open(
    const std::string& path) {
  auto file = std::unique_ptr<MappedFile>(new MappedFile());
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open edge log " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat edge log " + path);
  }
  file->size_ = static_cast<size_t>(st.st_size);
  if (file->size_ > 0) {
    void* mapping =
        ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping == MAP_FAILED) {
      ::close(fd);
      return Status::IoError("cannot mmap edge log " + path);
    }
    file->data_ = static_cast<const uint8_t*>(mapping);
    file->mapped_ = true;
  }
  ::close(fd);  // the mapping outlives the descriptor
  return file;
#else
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("cannot open edge log " + path);
  }
  std::fseek(in, 0, SEEK_END);
  const long end = std::ftell(in);
  std::fseek(in, 0, SEEK_SET);
  file->size_ = end > 0 ? static_cast<size_t>(end) : 0;
  if (file->size_ > 0) {
    uint8_t* buffer = new uint8_t[file->size_];
    if (std::fread(buffer, 1, file->size_, in) != file->size_) {
      delete[] buffer;
      std::fclose(in);
      return Status::IoError("cannot read edge log " + path);
    }
    file->data_ = buffer;
  }
  std::fclose(in);
  return file;
#endif
}

void MappedFile::Release(size_t begin, size_t end) const {
#if defined(__unix__) || defined(__APPLE__)
  if (!mapped_) return;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  begin = begin / page * page;
  end = std::min(end, size_) / page * page;
  if (begin >= end) return;
  // A read-only private mapping never dirties a page, so dropping one
  // loses nothing. A failure only leaves the pages resident.
  ::madvise(const_cast<uint8_t*>(data_) + begin, end - begin, MADV_DONTNEED);
#else
  (void)begin;
  (void)end;
#endif
}

MappedFile::~MappedFile() {
  if (data_ == nullptr) return;
#if defined(__unix__) || defined(__APPLE__)
  if (mapped_) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
    return;
  }
#endif
  delete[] data_;
}

}  // namespace edge_log_internal

// --- EdgeLogWriter -----------------------------------------------------

constexpr char EdgeLogLayout::kMagic[];
constexpr size_t EdgeLogLayout::kMagicSize;
constexpr size_t EdgeLogLayout::kHeaderFieldsSize;
constexpr size_t EdgeLogLayout::kHeaderSize;
constexpr uint64_t EdgeLogLayout::kUnfinalized;

StatusOr<std::unique_ptr<EdgeLogWriter>> EdgeLogWriter::Create(
    const std::string& path, uint32_t index_every) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create edge log " + path);
  }
  auto writer =
      std::unique_ptr<EdgeLogWriter>(new EdgeLogWriter(file, index_every));
  // Placeholder header: counts are kUnfinalized until Finish patches
  // them, which is exactly what gives an abandoned log its readable
  // valid-prefix semantics.
  std::string header(EdgeLogLayout::kMagic, EdgeLogLayout::kMagicSize);
  const std::string fields = EncodeHeaderFields(
      index_every, EdgeLogLayout::kUnfinalized, EdgeLogLayout::kUnfinalized,
      /*index_offset=*/0);
  header += fields;
  serde::PutU32(&header, Crc32(fields.data(), fields.size()));
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
    return Status::IoError("cannot write edge log header to " + path);
  }
  writer->offset_ = header.size();
  return writer;
}

EdgeLogWriter::~EdgeLogWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status EdgeLogWriter::Append(const EdgeDelta& delta) {
  if (finished_) {
    return Status::InvalidArgument("edge log writer already finished");
  }
  scratch_.clear();
  PutVarint(&scratch_, delta.insertions.size());
  PutVarint(&scratch_, delta.deletions.size());
  AVT_RETURN_IF_ERROR(EncodeBatch(delta.insertions, &scratch_,
                                  &max_endpoint_, &any_endpoint_));
  AVT_RETURN_IF_ERROR(EncodeBatch(delta.deletions, &scratch_,
                                  &max_endpoint_, &any_endpoint_));
  if (index_every_ > 0 && frames_ % index_every_ == 0) {
    index_.push_back(offset_);
  }
  AVT_RETURN_IF_ERROR(WriteFrame(file_, scratch_, &offset_));
  ++frames_;
  return Status::Ok();
}

Status EdgeLogWriter::AppendInitial(const Graph& initial) {
  EdgeDelta frame;
  frame.insertions = initial.CollectEdges();  // sorted unique by contract
  const uint64_t declared = initial.NumVertices();
  AVT_RETURN_IF_ERROR(Append(frame));
  // Isolated trailing vertices carry no edges; remember the declared
  // universe so Finish(0) still covers them.
  if (declared > 0) {
    if (!any_endpoint_ || declared - 1 > max_endpoint_) {
      max_endpoint_ = declared - 1;
    }
    any_endpoint_ = true;
  }
  return Status::Ok();
}

Status EdgeLogWriter::Finish(VertexId num_vertices) {
  if (finished_) {
    return Status::InvalidArgument("edge log writer already finished");
  }
  uint64_t universe = num_vertices;
  if (universe == 0) {
    universe = any_endpoint_ ? max_endpoint_ + 1 : 0;
  } else if (any_endpoint_ && universe <= max_endpoint_) {
    return Status::InvalidArgument(
        "edge log num_vertices does not cover every endpoint written");
  }

  uint64_t index_offset = 0;
  if (index_every_ > 0) {
    index_offset = offset_;
    std::string payload;
    serde::PutU64(&payload, index_.size());
    for (uint64_t entry : index_) serde::PutU64(&payload, entry);
    AVT_RETURN_IF_ERROR(WriteFrame(file_, payload, &offset_));
  }

  const std::string fields =
      EncodeHeaderFields(index_every_, universe, frames_, index_offset);
  std::string patch = fields;
  serde::PutU32(&patch, Crc32(fields.data(), fields.size()));
  if (std::fseek(file_, static_cast<long>(EdgeLogLayout::kMagicSize),
                 SEEK_SET) != 0 ||
      std::fwrite(patch.data(), 1, patch.size(), file_) != patch.size() ||
      std::fflush(file_) != 0) {
    return Status::IoError("cannot finalize edge log header");
  }
  finished_ = true;
  return Status::Ok();
}

// --- EdgeLogReader -----------------------------------------------------

StatusOr<std::unique_ptr<EdgeLogReader>> EdgeLogReader::Open(
    const std::string& path) {
  auto mapped = edge_log_internal::MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();

  auto reader = std::unique_ptr<EdgeLogReader>(new EdgeLogReader());
  reader->map_ = std::move(mapped).value();
  const uint8_t* data = reader->map_->data();
  const size_t size = reader->map_->size();

  if (size < EdgeLogLayout::kHeaderSize) {
    return Status::Corruption("edge log " + path +
                              " is shorter than its header");
  }
  if (std::memcmp(data, EdgeLogLayout::kMagic, EdgeLogLayout::kMagicSize) !=
      0) {
    return Status::Corruption("edge log " + path + " has a bad magic");
  }
  const uint8_t* fields = data + EdgeLogLayout::kMagicSize;
  const uint32_t stored_crc =
      serde::GetU32(fields + EdgeLogLayout::kHeaderFieldsSize);
  if (Crc32(fields, EdgeLogLayout::kHeaderFieldsSize) != stored_crc) {
    return Status::Corruption("edge log " + path +
                              " header checksum mismatch");
  }
  const uint32_t version = serde::GetU32(fields);
  if (version != 1) {
    return Status::InvalidArgument("edge log " + path +
                                   " has unsupported version " +
                                   std::to_string(version));
  }
  reader->index_every_ = serde::GetU32(fields + 4);
  reader->num_vertices_ = serde::GetU64(fields + 8);
  reader->num_frames_ = serde::GetU64(fields + 16);
  reader->index_offset_ = serde::GetU64(fields + 24);
  reader->cursor_ = EdgeLogLayout::kHeaderSize;

  if (reader->finalized() && reader->index_offset_ != 0) {
    // Decode and sanity-check the seek index frame.
    const serde::FrameView frame =
        serde::ParseFrame(reader->map_->bytes(size), reader->index_offset_);
    if (reader->index_offset_ < EdgeLogLayout::kHeaderSize ||
        frame.status == serde::FrameStatus::kHeaderShort) {
      return Status::Corruption("edge log seek index out of bounds");
    }
    if (frame.status != serde::FrameStatus::kOk) {
      return Status::Corruption("edge log seek index damaged");
    }
    const std::string_view payload = frame.payload;
    if (payload.size() < 8) {
      return Status::Corruption("edge log seek index truncated");
    }
    const uint64_t count = serde::GetU64(payload.data());
    if (payload.size() != 8 + count * 8) {
      return Status::Corruption("edge log seek index has wrong size");
    }
    const uint64_t expected =
        reader->index_every_ == 0
            ? 0
            : (reader->num_frames_ + reader->index_every_ - 1) /
                  reader->index_every_;
    if (count != expected) {
      return Status::Corruption("edge log seek index entry count " +
                                std::to_string(count) + " != expected " +
                                std::to_string(expected));
    }
    uint64_t previous = 0;
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t entry = serde::GetU64(payload.data() + 8 + i * 8);
      if (entry < EdgeLogLayout::kHeaderSize ||
          entry >= reader->index_offset_ ||
          (i > 0 && entry <= previous)) {
        return Status::Corruption("edge log seek index entries invalid");
      }
      previous = entry;
      reader->index_.push_back(entry);
    }
  }
  return reader;
}

VertexId EdgeLogReader::num_vertices() const {
  if (num_vertices_ == EdgeLogLayout::kUnfinalized) return 0;
  return static_cast<VertexId>(num_vertices_);
}

size_t EdgeLogReader::FrameRegionEnd() const {
  if (finalized() && index_offset_ != 0) {
    return static_cast<size_t>(index_offset_);
  }
  return map_->size();
}

StatusOr<bool> EdgeLogReader::NextFrame(EdgeDelta* delta) {
  size_t end = 0;
  StatusOr<bool> decoded = DecodeFrame(cursor_, frame_index_, delta, &end);
  if (decoded.ok() && decoded.value()) {
    cursor_ = end;
    ++frame_index_;
    // The decoded frame is in *delta: every page read past is spent.
    map_->Release(released_, cursor_);
    released_ = cursor_;
  }
  return decoded;
}

StatusOr<bool> EdgeLogReader::ReadInitialFrame(EdgeDelta* delta) const {
  size_t end = 0;
  StatusOr<bool> decoded =
      DecodeFrame(EdgeLogLayout::kHeaderSize, 0, delta, &end);
  // Frame 0 pages the cursor has already passed were faulted back in
  // for this read only.
  map_->Release(0, std::min(end, released_));
  return decoded;
}

StatusOr<bool> EdgeLogReader::DecodeFrame(size_t offset,
                                          uint64_t frame_index,
                                          EdgeDelta* delta,
                                          size_t* end) const {
  if (finalized() && frame_index >= num_frames_) return false;

  // An unfinalized log that runs out of bytes mid-frame is a torn tail
  // (the writer died mid-frame): clean end of stream. A FINALIZED log
  // running out below its declared count lost data.
  const serde::FrameView frame =
      serde::ParseFrame(map_->bytes(FrameRegionEnd()), offset);
  if (frame.status == serde::FrameStatus::kHeaderShort) {
    if (finalized()) {
      return Status::Corruption(
          "edge log holds fewer frames than its header declares");
    }
    return false;
  }
  if (frame.status == serde::FrameStatus::kPayloadShort) {
    if (finalized()) {
      return Status::Corruption("edge log final frame truncated below "
                                "its declared length");
    }
    return false;  // torn final frame: valid prefix ends here
  }
  if (frame.status == serde::FrameStatus::kCrcMismatch) {
    return Status::Corruption("edge log frame " +
                              std::to_string(frame_index) +
                              " checksum mismatch");
  }
  const auto* payload = reinterpret_cast<const uint8_t*>(frame.payload.data());
  const size_t len = frame.length;

  size_t pos = 0;
  uint64_t n_ins = 0, n_del = 0;
  if (!GetVarint(payload, len, &pos, &n_ins) ||
      !GetVarint(payload, len, &pos, &n_del) || n_ins > len || n_del > len ||
      2 * (n_ins + n_del) > len - pos) {
    // Counts that cannot fit in the payload (every edge costs >= 2
    // bytes) are damage the CRC failed to catch — reject before the
    // reserve below can balloon.
    return Status::Corruption("edge log frame " +
                              std::to_string(frame_index) +
                              " has invalid batch counts");
  }
  if (!DecodeBatch(payload, len, &pos, n_ins, &delta->insertions) ||
      !DecodeBatch(payload, len, &pos, n_del, &delta->deletions) ||
      pos != len) {
    return Status::Corruption("edge log frame " +
                              std::to_string(frame_index) +
                              " payload does not decode to its length");
  }
  *end = frame.end;
  return true;
}

Status EdgeLogReader::SeekToFrame(uint64_t index) {
  if (finalized() && index > num_frames_) {
    return Status::InvalidArgument(
        "seek to frame " + std::to_string(index) + " past the log's " +
        std::to_string(num_frames_) + " frames");
  }
  uint64_t frame = 0;
  size_t offset = EdgeLogLayout::kHeaderSize;
  if (!index_.empty() && index_every_ > 0) {
    uint64_t entry = index / index_every_;
    if (entry >= index_.size()) entry = index_.size() - 1;
    frame = entry * index_every_;
    offset = static_cast<size_t>(index_[entry]);
  }
  const size_t start = offset;
  // Forward skip. A skipped frame's CRC is not reported here: NextFrame
  // reports it when the frame is decoded.
  const std::string_view bytes = map_->bytes(FrameRegionEnd());
  while (frame < index) {
    const serde::FrameView skipped = serde::ParseFrame(bytes, offset);
    if (skipped.status == serde::FrameStatus::kHeaderShort) {
      return finalized()
                 ? Status::Corruption(
                       "edge log ends below its declared frame count")
                 : Status::InvalidArgument(
                       "seek past the end of an unfinalized edge log");
    }
    if (skipped.status == serde::FrameStatus::kPayloadShort) {
      return finalized()
                 ? Status::Corruption("edge log frame truncated")
                 : Status::InvalidArgument(
                       "seek past the end of an unfinalized edge log");
    }
    offset = skipped.end;
    ++frame;
  }
  cursor_ = offset;
  frame_index_ = frame;
  // The skip read frame headers from `start` on: the next NextFrame
  // releases those pages too.
  released_ = std::min(released_, start);
  return Status::Ok();
}

// --- MmapEdgeLogSource -------------------------------------------------

StatusOr<std::unique_ptr<MmapEdgeLogSource>> MmapEdgeLogSource::Open(
    const std::string& path) {
  auto opened = EdgeLogReader::Open(path);
  if (!opened.ok()) return opened.status();

  auto source = std::unique_ptr<MmapEdgeLogSource>(new MmapEdgeLogSource());
  source->path_ = path;
  source->reader_ = std::move(opened).value();
  EdgeDelta first;
  StatusOr<bool> more = source->reader_->NextFrame(&first);
  StatusOr<Graph> initial = source->BuildInitialGraph(more, first);
  if (!initial.ok()) return initial.status();
  source->initial_ = std::move(initial).value();
  return source;
}

StatusOr<Graph> MmapEdgeLogSource::BuildInitialGraph(
    const StatusOr<bool>& decoded, const EdgeDelta& first) const {
  if (!decoded.ok()) return decoded.status();
  if (!decoded.value()) {
    return Status::InvalidArgument("edge log " + path_ +
                                   " has no initial frame");
  }
  if (!first.deletions.empty()) {
    return Status::Corruption("edge log " + path_ +
                              " initial frame contains deletions");
  }
  VertexId universe = reader_->num_vertices();
  if (universe == 0) {
    // Unfinalized log: no declared universe; cover frame 0 and let the
    // engine grow trackers as later deltas discover vertices.
    for (const Edge& e : first.insertions) {
      if (e.v + 1 > universe) universe = e.v + 1;
    }
  }
  for (const Edge& e : first.insertions) {
    if (e.v >= universe) {
      return Status::Corruption(
          "edge log " + path_ +
          " initial frame exceeds its declared vertex universe");
    }
  }
  // DecodeBatch only accepts frames in canonical order, so this is
  // FromEdges' bulk path.
  return Graph::FromEdges(universe, first.insertions);
}

Graph MmapEdgeLogSource::DecodeInitialGraph() const {
  // The mapping is read-only and Open already decoded these bytes, so a
  // failure here means the file changed underneath the mapping.
  EdgeDelta first;
  StatusOr<Graph> initial =
      BuildInitialGraph(reader_->ReadInitialFrame(&first), first);
  AVT_CHECK_MSG(initial.ok(), "edge log frame 0 no longer decodes");
  return std::move(initial).value();
}

const Graph& MmapEdgeLogSource::InitialGraph() const {
  if (initial_taken_) {
    initial_ = DecodeInitialGraph();
    initial_taken_ = false;
  }
  return initial_;
}

Graph MmapEdgeLogSource::TakeInitialGraph() {
  if (initial_taken_) return DecodeInitialGraph();
  initial_taken_ = true;
  return std::exchange(initial_, Graph());
}

StatusOr<bool> MmapEdgeLogSource::NextDelta(EdgeDelta* delta) {
  return reader_->NextFrame(delta);
}

// --- Conversion --------------------------------------------------------

StatusOr<EdgeLogWriteStats> WriteEdgeLog(DeltaSource& source,
                                         const std::string& path,
                                         uint32_t index_every) {
  auto created = EdgeLogWriter::Create(path, index_every);
  if (!created.ok()) return created.status();
  std::unique_ptr<EdgeLogWriter> writer = std::move(created).value();

  const Graph& initial = source.InitialGraph();
  Status status = writer->AppendInitial(initial);
  EdgeLogWriteStats stats;
  EdgeDelta delta;
  while (status.ok()) {
    StatusOr<bool> more = source.NextDelta(&delta);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!more.value()) break;
    // Sources are free to emit unsorted batches (generators do);
    // the on-disk form is always canonical, which replay-equivalence
    // (pinned by the differential fuzz) makes safe.
    delta.Canonicalize();
    status = writer->Append(delta);
    if (status.ok()) ++stats.deltas;
  }
  if (status.ok()) status = writer->Finish();
  if (!status.ok()) {
    writer.reset();
    std::remove(path.c_str());  // do not leave a half-written artifact
    return status;
  }
  stats.bytes = writer->bytes_written();
  stats.num_vertices = writer->universe_seen();
  return stats;
}

StatusOr<EdgeLogWriteStats> ConvertTemporalToEdgeLog(
    const std::string& text_path, size_t T, uint32_t window_days,
    const std::string& out_path, uint32_t index_every) {
  // One scan, then one streaming pass (the satellite fix: the source
  // is handed the metadata, so conversion reads the text exactly
  // twice total instead of three times).
  StatusOr<TemporalFileMetadata> meta = ScanTemporalMetadata(text_path);
  if (!meta.ok()) return meta.status();
  auto opened =
      StreamingEdgeFileSource::Open(text_path, T, window_days, meta.value());
  if (!opened.ok()) return opened.status();
  StatusOr<EdgeLogWriteStats> stats =
      WriteEdgeLog(*opened.value(), out_path, index_every);
  if (!stats.ok()) return stats.status();
  // The streamed deltas carry the full dense universe in G_0 already,
  // so the header's count matches the text stream's declared universe.
  return stats;
}

}  // namespace avt

// Byte codec and record frame shared by every file the library writes:
// the WAL (durability/wal.h), the quarantine log
// (durability/quarantine.h), checkpoints (durability/checkpoint.h) and
// the binary edge log (graph/edge_log.h). It lives in util/, the lowest
// layer, so the graph and durability layers read and write one format.
//
// Byte codec: fixed-width fields are little-endian on every host (the
// codec shifts bytes, it never copies host memory), appended to a
// std::string and read back by GetU32/GetU64 or a bounds-checked
// cursor. The cursor never aborts: every Get returns false on
// underrun, so a truncated or corrupted buffer surfaces as a
// recoverable decode failure — damaged bytes become Status, not
// crashes.
//
// Frame: each record of each format is one
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// after the file's own 8-byte magic (and, in the edge log, its CRC'd
// header). WriteFrame emits one; ParseFrame reads one out of a byte
// view and reports the three ways bytes can fall short of a frame — a
// short header, a short payload, a CRC mismatch — without deciding
// what they mean. Each format maps them onto its own discipline: a
// short frame ending the WAL or the quarantine log is a torn tail (the
// records before it are a valid prefix), ending an unfinalized edge
// log it is the clean end of the stream, and in a checkpoint any of
// the three is corruption.

#ifndef AVT_UTIL_SERDE_H_
#define AVT_UTIL_SERDE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "util/crc32.h"
#include "util/status.h"

namespace avt {
namespace serde {

inline void PutU32(std::string* out, uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out->append(bytes, 4);
}

inline void PutU64(std::string* out, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out->append(bytes, 8);
}

inline void PutDouble(std::string* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, 8);
  PutU64(out, bits);
}

/// Little-endian loads; the caller guarantees 4 / 8 readable bytes.
inline uint32_t GetU32(const void* data) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(p[i]) << (8 * i);
  return value;
}

inline uint64_t GetU64(const void* data) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(p[i]) << (8 * i);
  return value;
}

/// Bounds-checked forward cursor over an immutable byte buffer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU32(uint32_t* value) {
    if (Remaining() < 4) return false;
    *value = serde::GetU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* value) {
    if (Remaining() < 8) return false;
    *value = serde::GetU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }
  bool GetDouble(double* value) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(value, &bits, 8);
    return true;
  }

  /// Reads `size` raw bytes into `*out` (replacing its contents).
  bool GetBytes(std::string* out, size_t size) {
    if (size > Remaining()) return false;
    out->assign(data_.substr(pos_, size));
    pos_ += size;
    return true;
  }

  size_t Remaining() const { return data_.size() - pos_; }
  bool Exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// [u32 payload_len][u32 crc32(payload)] ahead of every payload.
constexpr size_t kFrameHeaderSize = 8;

/// The largest payload the WAL, quarantine-log and checkpoint readers
/// accept: a larger length field is a damaged header (corruption), not
/// a torn tail still waiting for a gigabyte of payload.
constexpr uint32_t kMaxFramePayload = 1u << 30;

/// Appends one frame to `file`: the header, then `payload` as it is
/// (no copy). false on a short write, with errno set by the stream.
inline bool WriteFrame(std::FILE* file, std::string_view payload) {
  std::string header;
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  PutU32(&header, Crc32(payload.data(), payload.size()));
  return std::fwrite(header.data(), 1, kFrameHeaderSize, file) ==
             kFrameHeaderSize &&
         std::fwrite(payload.data(), 1, payload.size(), file) ==
             payload.size();
}

enum class FrameStatus {
  kOk,
  kHeaderShort,   ///< fewer than kFrameHeaderSize bytes at the offset
  kPayloadShort,  ///< the header's length runs past the end of the view
  kCrcMismatch,   ///< the payload is whole but its CRC differs
};

struct FrameView {
  FrameStatus status = FrameStatus::kHeaderShort;
  uint32_t length = 0;       ///< the header's payload_len
  size_t end = 0;            ///< offset just past the frame
                             ///< (both 0 when the header is short)
  std::string_view payload;  ///< whole payload (kOk, kCrcMismatch)
};

/// Parses the frame at `offset` in `bytes`; never reads outside them.
inline FrameView ParseFrame(std::string_view bytes, size_t offset) {
  FrameView frame;
  if (offset > bytes.size() || bytes.size() - offset < kFrameHeaderSize) {
    return frame;
  }
  frame.length = GetU32(bytes.data() + offset);
  frame.end = offset + kFrameHeaderSize + frame.length;
  if (bytes.size() - offset - kFrameHeaderSize < frame.length) {
    frame.status = FrameStatus::kPayloadShort;
    return frame;
  }
  frame.payload = bytes.substr(offset + kFrameHeaderSize, frame.length);
  frame.status = Crc32(frame.payload.data(), frame.payload.size()) ==
                         GetU32(bytes.data() + offset + 4)
                     ? FrameStatus::kOk
                     : FrameStatus::kCrcMismatch;
  return frame;
}

/// Reads the file at `path` whole. kNotFound ("no <what> at <path>")
/// when it cannot be opened, kIoError ("read failed for <what>
/// <path>") when a read fails.
inline StatusOr<std::string> ReadWholeFile(const std::string& path,
                                           const std::string& what) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("no " + what + " at " + path);
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IoError("read failed for " + what + " " + path);
  }
  return bytes;
}

/// FNV-1a 64-bit hash, used for config fingerprints.
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t hash = seed;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace serde
}  // namespace avt

#endif  // AVT_UTIL_SERDE_H_

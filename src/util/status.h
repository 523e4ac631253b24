// Lightweight error-status type used by fallible operations (mostly IO).
//
// The library core (graph algorithms) uses AVT_CHECK assertions for
// programming-error invariants and Status only where failure is a normal
// runtime outcome (missing file, malformed input). This mirrors the
// RocksDB convention of returning Status from anything that touches the
// outside world while keeping hot algorithm paths exception-free.

#ifndef AVT_UTIL_STATUS_H_
#define AVT_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace avt {

/// Error codes for fallible operations.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kCorruption,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  /// Temporarily rejected, retry later: an open circuit breaker
  /// short-circuiting pulls (graph/resilient_source.h). Distinct from
  /// kIoError so callers can tell "the source failed" from "the
  /// breaker is protecting the source".
  kUnavailable,
};

/// Value-semantic status: either OK or a code plus message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "IoError: cannot open foo.txt".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + message_;
  }

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kIoError: return "IoError";
      case StatusCode::kCorruption: return "Corruption";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kUnimplemented: return "Unimplemented";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kUnavailable: return "Unavailable";
    }
    return "Unknown";
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Minimal StatusOr: value or error. Accessing value() on error aborts.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return value_;
  }
  T& value() & {
    CheckOk();
    return value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(value_);
  }

 private:
  void CheckOk() const {
    if (!status_.ok()) {
      std::fprintf(stderr, "StatusOr::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }
  Status status_;
  T value_{};
};

}  // namespace avt

/// Propagates a non-OK Status to the caller. For use in functions that
/// return Status: evaluates `expr` once; if the result is an error it
/// becomes the function's return value, otherwise execution continues.
#define AVT_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::avt::Status avt_rie_status_ = (expr);       \
    if (!avt_rie_status_.ok()) {                  \
      return avt_rie_status_;                     \
    }                                             \
  } while (0)

/// Fatal invariant check, active in all build types. Algorithm invariants
/// in this library are cheap relative to the graph work around them.
/// stdout is flushed before the abort, so block-buffered output printed
/// ahead of the failure (a bench's per-case lines) is not lost.
#define AVT_CHECK(cond)                                                    \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "AVT_CHECK failed at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                       \
      std::fflush(stdout);                                                 \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

#define AVT_CHECK_MSG(cond, msg)                                           \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "AVT_CHECK failed at %s:%d: %s (%s)\n",         \
                   __FILE__, __LINE__, #cond, msg);                        \
      std::fflush(stdout);                                                 \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

/// Debug-only check for hot paths; compiled out in NDEBUG builds.
#ifdef NDEBUG
#define AVT_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define AVT_DCHECK(cond) AVT_CHECK(cond)
#endif

#endif  // AVT_UTIL_STATUS_H_

// Process-memory introspection: peak and current resident set size,
// read from getrusage / /proc/self/statm.
//
// Peak RSS — not wall time — is what decides whether a million-delta
// run is servable on a given box, so RunSummary carries it next to
// ms/delta and perfbench reports it per workload. Both readers are best-effort: on platforms
// without the facility they return 0, and every consumer treats 0 as
// "unknown" rather than "tiny".

#ifndef AVT_UTIL_MEM_H_
#define AVT_UTIL_MEM_H_

#include <cstdint>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace avt {

/// High-water resident set size of this process in bytes (getrusage
/// ru_maxrss: KiB on Linux, bytes on macOS). 0 when unavailable.
inline uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// Current resident set size in bytes (/proc/self/statm, Linux only;
/// falls back to 0 elsewhere). Cheaper than parsing /proc/self/status
/// and precise enough for before/after deltas in benches.
inline uint64_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long size_pages = 0, resident_pages = 0;
  const int matched =
      std::fscanf(statm, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(statm);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return resident_pages * static_cast<uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

}  // namespace avt

#endif  // AVT_UTIL_MEM_H_

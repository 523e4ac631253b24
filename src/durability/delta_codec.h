// The EdgeDelta codec inside WAL and quarantine-log payloads:
//   u32 n_insertions, u32 n_deletions, then (u32 u, u32 v) per edge.
// Edges are verbatim, NOT normalized: the WAL replays op and endpoint
// order exactly as committed, and the quarantine log shows exactly
// what arrived.

#ifndef AVT_DURABILITY_DELTA_CODEC_H_
#define AVT_DURABILITY_DELTA_CODEC_H_

#include <string>

#include "graph/delta.h"
#include "util/serde.h"

namespace avt {

inline void PutDelta(std::string* out, const EdgeDelta& delta) {
  serde::PutU32(out, static_cast<uint32_t>(delta.insertions.size()));
  serde::PutU32(out, static_cast<uint32_t>(delta.deletions.size()));
  for (const std::vector<Edge>* batch : {&delta.insertions,
                                         &delta.deletions}) {
    for (const Edge& e : *batch) {
      serde::PutU32(out, e.u);
      serde::PutU32(out, e.v);
    }
  }
}

/// Decodes one delta at the cursor. false when the counts or pairs do
/// not fit the bytes left (checked before anything is reserved).
inline bool GetDelta(serde::Reader* reader, EdgeDelta* delta) {
  uint32_t n_ins = 0;
  uint32_t n_del = 0;
  if (!reader->GetU32(&n_ins) || !reader->GetU32(&n_del) ||
      reader->Remaining() <
          8 * (static_cast<size_t>(n_ins) + static_cast<size_t>(n_del))) {
    return false;
  }
  delta->insertions.assign(n_ins, Edge());
  delta->deletions.assign(n_del, Edge());
  for (std::vector<Edge>* batch : {&delta->insertions, &delta->deletions}) {
    for (Edge& e : *batch) {
      reader->GetU32(&e.u);  // cannot underrun: the size check above
      reader->GetU32(&e.v);
    }
  }
  return true;
}

}  // namespace avt

#endif  // AVT_DURABILITY_DELTA_CODEC_H_

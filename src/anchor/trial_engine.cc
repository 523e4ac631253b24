#include "anchor/trial_engine.h"

#include <queue>

namespace avt {
namespace {

/// Lazy heap entry, max-heap by value with smaller id first on ties —
/// the common tie-break of every pick loop. A vertex appears at most
/// once per call, so (value, vertex) never fully ties.
struct LazyEntry {
  uint32_t value;  // exact ? F(base ∪ {v}) : certified upper bound
  VertexId vertex;
  bool exact;
  bool operator<(const LazyEntry& other) const {
    if (value != other.value) return value < other.value;
    return vertex > other.vertex;
  }
};

}  // namespace

TrialOutcome EvaluateTrials(FollowerOracle& oracle,
                            std::span<const VertexId> live,
                            std::span<const VertexId> base, uint32_t k,
                            const TrialPolicy& policy,
                            const TrialBounds& bounds) {
  TrialOutcome outcome;
  if (live.empty()) return outcome;

  if (policy.lazy) {
    // One certified bound per candidate: the caller's, or a marginal
    // probe that continues the resident base cascade over epoch-reset
    // overlays (the base is built at the first probe, so a call whose
    // bounds are all known builds none). Bounds at or below a gate's
    // floor are never pushed: they could never be resolved or returned,
    // so the pop sequence is unchanged. Then pop the (value desc, id
    // asc) top; settle with zero further queries if it cannot beat the
    // floor; accept it if exact; otherwise resolve it with ONE full
    // query and re-insert.
    AVT_DCHECK(bounds.marginals.empty() ||
               bounds.marginals.size() == live.size());
    std::priority_queue<LazyEntry> heap;
    bool base_built = false;
    for (size_t j = 0; j < live.size(); ++j) {
      const VertexId v = live[j];
      uint32_t bound;
      if (!bounds.marginals.empty() &&
          bounds.marginals[j] != FollowerOracle::kDirtyMarginal) {
        bound = static_cast<uint32_t>(static_cast<int64_t>(bounds.count) +
                                      bounds.marginals[j]);
      } else {
        if (!base_built) {
          oracle.BuildBase(base, k);
          base_built = true;
        }
        bound = oracle.MarginalUpperBound(v);
      }
      if (!policy.gate || bound > policy.floor) heap.push({bound, v, false});
    }
    outcome.bound_probes = live.size();
    while (!heap.empty()) {
      LazyEntry top = heap.top();
      if (policy.gate && top.value <= policy.floor) break;  // settled
      if (top.exact) {
        outcome.vertex = top.vertex;
        outcome.followers = top.value;
        break;
      }
      heap.pop();
      ++outcome.full_queries;
      heap.push({oracle.CountFollowers(base, top.vertex, k), top.vertex,
                 true});
    }
    return outcome;
  }

  // Eager: one full query per candidate, strict (followers desc, id asc)
  // running best over exact counts.
  for (VertexId v : live) {
    ++outcome.full_queries;
    const uint32_t followers = oracle.CountFollowers(base, v, k);
    if (policy.gate && followers <= policy.floor) continue;
    if (outcome.vertex == kNoVertex || followers > outcome.followers ||
        (followers == outcome.followers && v < outcome.vertex)) {
      outcome.vertex = v;
      outcome.followers = followers;
    }
  }
  return outcome;
}

}  // namespace avt

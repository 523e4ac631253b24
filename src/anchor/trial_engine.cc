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
                            const TrialPolicy& policy) {
  TrialOutcome outcome;
  if (live.empty()) return outcome;

  if (policy.lazy) {
    // One certified bound per candidate: the marginal probe continues
    // the resident base cascade over epoch-reset overlays. Then pop the
    // (value desc, id asc) top; settle with zero further queries if it
    // cannot beat the floor; accept it if exact; otherwise resolve it
    // with ONE full query and re-insert.
    std::priority_queue<LazyEntry> heap;
    oracle.BuildBase(base, k);
    for (VertexId v : live) {
      heap.push({oracle.MarginalUpperBound(v), v, false});
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

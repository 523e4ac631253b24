// Trial evaluation: the argmax query behind every pick loop.
//
// GreedySolver's per-pick argmax and every slot of IncAvtTracker's
// local search — a gated swap or an ungated extend — reduce to the same
// question: among live candidates x, which trial set base ∪ {x} has the
// most followers — tie-break smallest id — optionally restricted to
// counts strictly above an incumbent floor? That is EvaluateTrials, run
// over one caller-owned FollowerOracle, and the only home of the lazy
// heap, the floor gate and the pop-resolve loop.
//
//   * Lazy mode takes one certified bound per candidate and pops a CELF
//     heap keyed (value desc, id asc), resolving the non-exact top with
//     one full query until the top is exact (or provably cannot beat
//     the floor). A bound the caller already holds (TrialBounds: IncAVT
//     reads its swap slots' bounds off one swap reference) is used as
//     is; every other candidate gets a MarginalUpperBound probe over
//     the base cascade, which is built at the first such probe. Because
//     bound >= exact for the same trial set, the winner is the eager
//     argmax under the same tie-break.
//   * Eager mode runs one full query per candidate.
//
// Both counters are pure functions of (live, base, k, policy).

#ifndef AVT_ANCHOR_TRIAL_ENGINE_H_
#define AVT_ANCHOR_TRIAL_ENGINE_H_

#include <span>

#include "anchor/follower_oracle.h"

namespace avt {

/// How one EvaluateTrials call selects its winner.
struct TrialPolicy {
  /// Certified-bound gating (bound probes, pop-resolve) instead of a
  /// full query per candidate. Identical winner either way.
  bool lazy = true;
  /// When true, only trials with followers strictly above `floor`
  /// qualify (IncAVT's swap slots); a lazy call whose top bound cannot
  /// beat the floor settles with zero full queries.
  bool gate = false;
  uint32_t floor = 0;
};

/// Certified bounds the caller already holds for `live`, aligned with
/// it: live[j]'s bound is count + marginals[j] unless that entry is
/// FollowerOracle::kDirtyMarginal, in which case live[j] is probed
/// against the base. Empty `marginals` (the default) probes every
/// candidate. Only lazy mode reads them.
struct TrialBounds {
  uint32_t count = 0;
  std::span<const int32_t> marginals;
};

/// Winner plus work counters.
struct TrialOutcome {
  VertexId vertex = kNoVertex;  // kNoVertex: no live candidate qualified
  uint32_t followers = 0;       // exact F(base ∪ {vertex})
  uint64_t full_queries = 0;
  uint64_t bound_probes = 0;    // one per live candidate in lazy mode
};

/// Argmax over live candidates of F(base ∪ {x}) under `policy`, on
/// `oracle` (whose resident base it replaces when it probes a bound).
/// `live` must be duplicate-free and disjoint from `base`; id-ascending
/// order is not required.
TrialOutcome EvaluateTrials(FollowerOracle& oracle,
                            std::span<const VertexId> live,
                            std::span<const VertexId> base, uint32_t k,
                            const TrialPolicy& policy,
                            const TrialBounds& bounds = {});

}  // namespace avt

#endif  // AVT_ANCHOR_TRIAL_ENGINE_H_

// RunTotals: the exact accumulators of one AVT run — the ledger that
// SummarizeRun folds, AvtEngine keeps live, and checkpoints persist and
// cross-check on recovery. It sits in durability, below core, because
// CheckpointData embeds it.

#ifndef AVT_DURABILITY_RUN_TOTALS_H_
#define AVT_DURABILITY_RUN_TOTALS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace avt {

/// Jaccard similarity of two vertex sets (1.0 when both empty).
double JaccardSimilarity(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b);

/// Running totals over one run's snapshots, in processing order. The
/// timings are advisory (wall clock); a deterministic replay of the
/// run reproduces every other field bit-exactly.
struct RunTotals {
  uint64_t snapshots = 0;      ///< snapshots folded (G_0 included)
  double total_millis = 0;     ///< advisory
  double max_millis = 0;       ///< advisory
  uint64_t total_candidates = 0;
  uint64_t total_followers = 0;
  double stability_sum = 0;     ///< Jaccard of consecutive anchor sets
  uint64_t anchor_changes = 0;  ///< transitions whose anchors changed
  std::vector<VertexId> previous_anchors;  ///< of the last snapshot

  /// Folds one snapshot's outcome.
  void Add(double millis, uint64_t candidates_visited, uint64_t followers,
           const std::vector<VertexId>& anchors);

  /// Mean Jaccard similarity of consecutive anchor sets (1.0 with fewer
  /// than two snapshots).
  double AnchorStability() const;

  /// Bit-exact equality of every field except the advisory timings.
  bool ExactlyEquals(const RunTotals& other) const;
};

}  // namespace avt

#endif  // AVT_DURABILITY_RUN_TOTALS_H_

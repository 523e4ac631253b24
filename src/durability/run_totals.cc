#include "durability/run_totals.h"

#include <algorithm>
#include <iterator>

namespace avt {

double JaccardSimilarity(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::vector<VertexId> sa = a, sb = b, common;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(common));
  return static_cast<double>(common.size()) /
         static_cast<double>(sa.size() + sb.size() - common.size());
}

void RunTotals::Add(double millis, uint64_t candidates_visited,
                    uint64_t followers,
                    const std::vector<VertexId>& anchors) {
  total_millis += millis;
  max_millis = std::max(max_millis, millis);
  total_candidates += candidates_visited;
  total_followers += followers;
  if (snapshots > 0) {
    const double jaccard = JaccardSimilarity(previous_anchors, anchors);
    stability_sum += jaccard;
    if (jaccard < 1.0) ++anchor_changes;
  }
  previous_anchors = anchors;
  ++snapshots;
}

double RunTotals::AnchorStability() const {
  return snapshots < 2
             ? 1.0
             : stability_sum / static_cast<double>(snapshots - 1);
}

bool RunTotals::ExactlyEquals(const RunTotals& other) const {
  return snapshots == other.snapshots &&
         total_candidates == other.total_candidates &&
         total_followers == other.total_followers &&
         stability_sum == other.stability_sum &&
         anchor_changes == other.anchor_changes &&
         previous_anchors == other.previous_anchors;
}

}  // namespace avt

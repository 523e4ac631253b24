#include "core/run_summary.h"

#include <algorithm>
#include <cstdio>

namespace avt {

double JaccardSimilarity(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::vector<VertexId> sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  size_t i = 0, j = 0, intersection = 0;
  while (i < sa.size() && j < sb.size()) {
    if (sa[i] == sb[j]) {
      ++intersection;
      ++i;
      ++j;
    } else if (sa[i] < sb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t union_size = sa.size() + sb.size() - intersection;
  return union_size == 0 ? 1.0
                         : static_cast<double>(intersection) /
                               static_cast<double>(union_size);
}

RunSummary SummarizeRun(const AvtRunResult& run) {
  RunSummary summary;
  summary.snapshots = run.snapshots.size();
  if (run.snapshots.empty()) return summary;

  double stability_sum = 0;
  size_t transitions = 0;
  for (size_t t = 0; t < run.snapshots.size(); ++t) {
    const AvtSnapshotResult& snap = run.snapshots[t];
    summary.total_millis += snap.millis;
    summary.max_millis = std::max(summary.max_millis, snap.millis);
    summary.total_candidates += snap.candidates_visited;
    summary.total_followers += snap.num_followers;
    if (t > 0) {
      double jaccard = JaccardSimilarity(run.snapshots[t - 1].anchors,
                                         snap.anchors);
      stability_sum += jaccard;
      ++transitions;
      if (jaccard < 1.0) ++summary.anchor_changes;
    }
  }
  summary.mean_millis =
      summary.total_millis / static_cast<double>(summary.snapshots);
  summary.mean_followers = static_cast<double>(summary.total_followers) /
                           static_cast<double>(summary.snapshots);
  summary.anchor_stability =
      transitions == 0 ? 1.0 : stability_sum / static_cast<double>(transitions);
  return summary;
}

std::string FormatRunSummary(const RunSummary& summary) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu snapshots, %.1f ms total (mean %.2f, max %.2f), "
                "%llu candidates, %.1f followers/snapshot, anchor "
                "stability %.2f (%zu changes)",
                summary.snapshots, summary.total_millis,
                summary.mean_millis, summary.max_millis,
                static_cast<unsigned long long>(summary.total_candidates),
                summary.mean_followers, summary.anchor_stability,
                summary.anchor_changes);
  std::string line = buf;
  if (summary.source_retries > 0 || summary.source_transient_errors > 0) {
    std::snprintf(buf, sizeof(buf),
                  ", %llu transient source errors absorbed (%llu retries)",
                  static_cast<unsigned long long>(
                      summary.source_transient_errors),
                  static_cast<unsigned long long>(summary.source_retries));
    line += buf;
  }
  if (summary.audits_run > 0 || summary.deltas_quarantined > 0 ||
      summary.recoveries > 0) {
    std::snprintf(buf, sizeof(buf),
                  ", %llu audits (%llu failed), %llu quarantined, "
                  "%llu recoveries",
                  static_cast<unsigned long long>(summary.audits_run),
                  static_cast<unsigned long long>(summary.audits_failed),
                  static_cast<unsigned long long>(summary.deltas_quarantined),
                  static_cast<unsigned long long>(summary.recoveries));
    line += buf;
  }
  if (summary.breaker_opens > 0) {
    std::snprintf(buf, sizeof(buf),
                  ", breaker opened %llu times (%llu pulls rejected)",
                  static_cast<unsigned long long>(summary.breaker_opens),
                  static_cast<unsigned long long>(
                      summary.breaker_rejected_pulls));
    line += buf;
  }
  if (summary.peak_rss_bytes > 0) {
    std::snprintf(buf, sizeof(buf), ", peak RSS %.1f MiB",
                  static_cast<double>(summary.peak_rss_bytes) /
                      (1024.0 * 1024.0));
    line += buf;
  }
  if (summary.health != HealthState::kHealthy) {
    std::snprintf(buf, sizeof(buf), ", health %s (%s)",
                  HealthStateName(summary.health),
                  HealthReasonName(summary.health_reason));
    line += buf;
  }
  return line;
}

}  // namespace avt

#include "core/run_summary.h"

#include <cstdio>

namespace avt {

RunSummary SummarizeTotals(const RunTotals& totals) {
  RunSummary summary;
  static_cast<RunTotals&>(summary) = totals;
  if (totals.snapshots == 0) return summary;
  const double snapshots = static_cast<double>(totals.snapshots);
  summary.mean_millis = totals.total_millis / snapshots;
  summary.mean_followers =
      static_cast<double>(totals.total_followers) / snapshots;
  summary.anchor_stability = totals.AnchorStability();
  return summary;
}

RunSummary SummarizeRun(const AvtRunResult& run) {
  RunTotals totals;
  for (const AvtSnapshotResult& snap : run.snapshots) {
    totals.Add(snap.millis, snap.candidates_visited, snap.num_followers,
               snap.anchors);
  }
  return SummarizeTotals(totals);
}

std::string FormatRunSummary(const RunSummary& summary) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu snapshots, %.1f ms total (mean %.2f, max %.2f), "
                "%llu candidates, %.1f followers/snapshot, anchor "
                "stability %.2f (%llu changes)",
                static_cast<unsigned long long>(summary.snapshots),
                summary.total_millis, summary.mean_millis,
                summary.max_millis,
                static_cast<unsigned long long>(summary.total_candidates),
                summary.mean_followers, summary.anchor_stability,
                static_cast<unsigned long long>(summary.anchor_changes));
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

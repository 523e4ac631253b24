// Post-hoc analysis of an AVT run: timing distribution, anchor-set
// stability, and effectiveness aggregates.
//
// Anchor stability (the Jaccard similarity between consecutive anchor
// sets) quantifies the paper's implicit claim that anchors drift slowly
// on smooth workloads — the property IncAVT's carried-forward seed
// exploits. The ad-campaign example and EXPERIMENTS.md use this module.

#ifndef AVT_CORE_RUN_SUMMARY_H_
#define AVT_CORE_RUN_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/avt.h"
#include "core/health.h"

namespace avt {

/// Aggregated view of one AvtRunResult.
struct RunSummary {
  size_t snapshots = 0;
  double total_millis = 0;
  double mean_millis = 0;
  double max_millis = 0;
  uint64_t total_candidates = 0;
  uint64_t total_followers = 0;
  double mean_followers = 0;
  /// Mean Jaccard similarity of consecutive anchor sets (1.0 = anchors
  /// never change; undefined -> 1.0 for runs with < 2 snapshots).
  double anchor_stability = 1.0;
  /// Number of transitions where the anchor set changed at all.
  size_t anchor_changes = 0;
  /// Ingestion-side fault counters (RetryingSource, graph/
  /// resilient_source.h): pulls that were re-attempted and transient
  /// errors absorbed. Zero for undecorated sources, and excluded from
  /// recovery bit-identity comparisons (they describe the transport,
  /// not the tracked result). Only AvtEngine::Summary fills them;
  /// SummarizeRun has no source to ask.
  uint64_t source_retries = 0;
  uint64_t source_transient_errors = 0;
  /// Self-healing telemetry (AvtEngine only; SummarizeRun leaves these
  /// zero). Audits are the cadenced integrity checks of core/health.h;
  /// quarantined deltas went to the dead-letter log instead of the
  /// tracker; recoveries are checkpoint+WAL rollbacks that healed an
  /// audit divergence in-process. Breaker counters come from
  /// CircuitBreakerSource via DeltaSource::SourceStats.
  uint64_t audits_run = 0;
  uint64_t audits_failed = 0;
  uint64_t deltas_quarantined = 0;
  uint64_t recoveries = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_rejected_pulls = 0;
  /// Terminal engine health. kHealthy for SummarizeRun and for engine
  /// runs that never degraded; the reason names the FIRST cause of the
  /// current state.
  HealthState health = HealthState::kHealthy;
  HealthReason health_reason = HealthReason::kNone;
  /// Process peak resident set size at summary time (util/mem.h), the
  /// metric that decides whether a run of this size is servable on a
  /// box. 0 = unknown (platform without getrusage). Only
  /// AvtEngine::Summary fills it; it describes the process, not the
  /// tracked result, so recovery bit-identity comparisons exclude it.
  uint64_t peak_rss_bytes = 0;
};

/// Computes the summary.
RunSummary SummarizeRun(const AvtRunResult& run);

/// Jaccard similarity of two vertex sets (1.0 when both empty).
double JaccardSimilarity(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b);

/// One-line human-readable rendering.
std::string FormatRunSummary(const RunSummary& summary);

}  // namespace avt

#endif  // AVT_CORE_RUN_SUMMARY_H_

// Fault injection + retry decorators for delta ingestion.
//
// A long-lived streaming service cannot treat every transient read
// failure as fatal: the literature's evolving-graph systems assume the
// delta stream is durable and re-readable, so a flaky pull should be
// retried, not crash the tracker. Two composable DeltaSource
// decorators provide that discipline and its test double:
//
//   FaultInjectingSource — wraps any source and injects a seeded,
//       deterministic schedule of faults: transient kIoError pulls
//       (the upstream delta is NOT consumed, so a retry observes the
//       identical stream) and, optionally, a sticky kCorruption after
//       a fixed number of successful pulls (modeling a corrupt frame
//       at a known stream position). Same seed → same fault schedule,
//       which is what lets durability_test assert zero output
//       divergence under ≤ 20% transient fault rates.
//
//   RetryingSource — wraps any source and absorbs transient kIoError
//       failures with bounded retries, exponential backoff, and
//       seeded jitter. Retry counters surface through
//       DeltaSource::SourceStats into RunSummary. kCorruption and
//       every other non-transient code propagate immediately: a
//       corrupt stream is not something retries can fix.
//
//   CircuitBreakerSource — wraps any source (canonically over
//       RetryingSource) with a closed/open/half-open breaker: when the
//       failure rate over a sliding window of pull outcomes crosses a
//       threshold it opens, rejecting pulls with kUnavailable for a
//       pull-counted cooldown instead of hammering a down source, then
//       probes half-open. Deterministic under its seed; trip/reject
//       counters surface through DeltaSource::SourceStats.
//
//   PoisonInjectingSource — test double for the quarantine layer:
//       interleaves a seeded, deterministic schedule of structurally
//       poisoned deltas (self-loop edges, out-of-universe endpoints)
//       into an otherwise healthy stream WITHOUT consuming or altering
//       the real deltas, so a run that quarantines exactly the poison
//       is bit-identical to the clean run.
//
// Stacking order matters: Retrying(FaultInjecting(inner)) absorbs the
// injected transient faults; CircuitBreaker(Retrying(...)) trips on
// the failures that escape the retry budget; Coalescing then merges
// the repaired stream; PoisonInjecting goes outermost so its poison
// reaches the engine verbatim (coalescing would canonicalize it away).
// durability_test pins that the fault/retry stack is bit-identical to
// the undecorated run.

#ifndef AVT_GRAPH_RESILIENT_SOURCE_H_
#define AVT_GRAPH_RESILIENT_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/delta_source.h"
#include "util/random.h"

namespace avt {

/// Deterministic fault schedule for FaultInjectingSource.
struct FaultInjectionOptions {
  uint64_t seed = 1;
  /// Probability in [0, 1) that any given pull fails transiently with
  /// kIoError before touching the upstream source.
  double transient_rate = 0.0;
  /// If >= 0, every pull after this many successful upstream pulls
  /// fails with a sticky kCorruption (a corrupt frame at that stream
  /// position). -1 disables.
  int64_t corrupt_after = -1;
};

/// Injects seeded faults in front of `inner`. Transient faults do not
/// consume upstream deltas; corruption is sticky.
class FaultInjectingSource : public DeltaSource {
 public:
  FaultInjectingSource(std::unique_ptr<DeltaSource> inner,
                       const FaultInjectionOptions& options)
      : inner_(std::move(inner)),
        options_(options),
        rng_(options.seed) {
    AVT_CHECK_MSG(inner_ != nullptr, "FaultInjectingSource needs a source");
    AVT_CHECK_MSG(options_.transient_rate >= 0.0 &&
                      options_.transient_rate < 1.0,
                  "transient_rate must be in [0, 1)");
  }

  const Graph& InitialGraph() const override {
    return inner_->InitialGraph();
  }
  Graph TakeInitialGraph() override { return inner_->TakeInitialGraph(); }

  StatusOr<bool> NextDelta(EdgeDelta* delta) override {
    if (options_.corrupt_after >= 0 &&
        successes_ >= static_cast<uint64_t>(options_.corrupt_after)) {
      return Status::Corruption("injected: corrupt frame after " +
                                std::to_string(successes_) + " deltas");
    }
    if (options_.transient_rate > 0.0 &&
        rng_.Bernoulli(options_.transient_rate)) {
      ++faults_injected_;
      return Status::IoError("injected: transient read failure at pull " +
                             std::to_string(successes_));
    }
    StatusOr<bool> result = inner_->NextDelta(delta);
    if (result.ok() && result.value()) ++successes_;
    return result;
  }

  Stats SourceStats() const override { return inner_->SourceStats(); }

  std::string name() const override { return inner_->name() + "+faults"; }

  uint64_t faults_injected() const { return faults_injected_; }

 private:
  std::unique_ptr<DeltaSource> inner_;
  FaultInjectionOptions options_;
  Rng rng_;
  uint64_t successes_ = 0;
  uint64_t faults_injected_ = 0;
};

/// Retry policy for RetryingSource.
struct RetryOptions {
  int max_retries = 8;  ///< per pull, not per stream
  /// Backoff before retry k is
  /// min(initial * multiplier^k, max) * (1 ± jitter * U[0,1)) millis.
  double initial_backoff_millis = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_millis = 20.0;
  double jitter_fraction = 0.25;
  uint64_t jitter_seed = 42;
};

/// Absorbs transient kIoError pulls from `inner` with bounded
/// exponential-backoff retries. Everything else propagates unchanged.
class RetryingSource : public DeltaSource {
 public:
  RetryingSource(std::unique_ptr<DeltaSource> inner,
                 const RetryOptions& options = RetryOptions())
      : inner_(std::move(inner)),
        options_(options),
        jitter_rng_(options.jitter_seed) {
    AVT_CHECK_MSG(inner_ != nullptr, "RetryingSource needs a source");
    AVT_CHECK_MSG(options_.max_retries >= 0, "max_retries must be >= 0");
  }

  const Graph& InitialGraph() const override {
    return inner_->InitialGraph();
  }
  Graph TakeInitialGraph() override { return inner_->TakeInitialGraph(); }

  StatusOr<bool> NextDelta(EdgeDelta* delta) override;

  Stats SourceStats() const override {
    Stats stats = inner_->SourceStats();
    stats.retries += retries_;
    stats.transient_errors += transient_errors_;
    return stats;
  }

  std::string name() const override { return inner_->name() + "+retry"; }

 private:
  void Backoff(int attempt);

  std::unique_ptr<DeltaSource> inner_;
  RetryOptions options_;
  Rng jitter_rng_;
  uint64_t retries_ = 0;
  uint64_t transient_errors_ = 0;
};

/// Breaker policy for CircuitBreakerSource.
struct CircuitBreakerOptions {
  /// Sliding window of recent pull outcomes the failure rate is
  /// computed over.
  uint32_t window = 8;
  /// Open when (failures in window) / (outcomes in window) reaches
  /// this, once `min_pulls` outcomes have been observed.
  double failure_threshold = 0.5;
  uint32_t min_pulls = 4;
  /// Rejected pulls while open before the half-open probe. The
  /// cooldown is counted in PULLS, not wall time — the engine's pace
  /// is the clock, which keeps breaker behavior deterministic and
  /// replayable.
  uint64_t cooldown_pulls = 16;
  /// Cooldown jitter fraction (± this × cooldown_pulls, seeded), so
  /// many breakers over one stressed upstream don't re-probe in
  /// lockstep. 0 disables.
  double cooldown_jitter = 0.25;
  uint64_t seed = 7;
};

/// Closed/open/half-open circuit breaker over `inner`.
///
/// While CLOSED, transient inner failures (kIoError) are recorded in
/// the outcome window and surfaced as kUnavailable — the breaker owns
/// transient-failure policy for the stack, and the engine treats
/// kUnavailable as "step again later" rather than fatal. When the
/// window trips, the breaker OPENS: pulls are rejected with
/// kUnavailable without touching the inner source until the cooldown
/// elapses, then one HALF-OPEN probe decides between closing and
/// re-opening. Terminal codes (kCorruption, kInvalidArgument, ...)
/// propagate unchanged and are not recorded: a breaker cannot fix a
/// corrupt stream, and hiding that would be lying.
class CircuitBreakerSource : public DeltaSource {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreakerSource(std::unique_ptr<DeltaSource> inner,
                       const CircuitBreakerOptions& options =
                           CircuitBreakerOptions());

  const Graph& InitialGraph() const override {
    return inner_->InitialGraph();
  }
  Graph TakeInitialGraph() override { return inner_->TakeInitialGraph(); }

  StatusOr<bool> NextDelta(EdgeDelta* delta) override;

  Stats SourceStats() const override {
    Stats stats = inner_->SourceStats();
    stats.breaker_opens += opens_;
    stats.breaker_rejected_pulls += rejected_;
    return stats;
  }

  std::string name() const override { return inner_->name() + "+breaker"; }

  State state() const { return state_; }

 private:
  void RecordOutcome(bool failure);
  void TripOpen();

  std::unique_ptr<DeltaSource> inner_;
  CircuitBreakerOptions options_;
  Rng rng_;
  State state_ = State::kClosed;
  /// Ring buffer of the last `window` outcomes (1 = failure).
  std::vector<uint8_t> outcomes_;
  size_t outcome_pos_ = 0;
  size_t outcome_count_ = 0;
  size_t failures_in_window_ = 0;
  uint64_t cooldown_left_ = 0;
  uint64_t opens_ = 0;
  uint64_t rejected_ = 0;
};

/// Seeded poison schedule for PoisonInjectingSource.
struct PoisonInjectionOptions {
  uint64_t seed = 99;
  /// Probability in [0, 1) that a poison delta is injected in place of
  /// any given pull (the real delta is NOT consumed — it arrives on a
  /// later pull, so the healthy substream is unchanged).
  double poison_rate = 0.0;
  /// Inject self-loop insertions {v, v} (structurally invalid).
  bool self_loops = true;
  /// Inject insertions touching `huge_id` (beyond any sane universe
  /// cap). Off by default: only meaningful with a max_universe cap.
  bool huge_ids = false;
  VertexId huge_id = 1u << 30;
};

/// Interleaves seeded poison deltas into `inner`'s stream.
class PoisonInjectingSource : public DeltaSource {
 public:
  PoisonInjectingSource(std::unique_ptr<DeltaSource> inner,
                        const PoisonInjectionOptions& options)
      : inner_(std::move(inner)), options_(options), rng_(options.seed) {
    AVT_CHECK_MSG(inner_ != nullptr, "PoisonInjectingSource needs a source");
    AVT_CHECK_MSG(options_.poison_rate >= 0.0 && options_.poison_rate < 1.0,
                  "poison_rate must be in [0, 1)");
    AVT_CHECK_MSG(options_.self_loops || options_.huge_ids,
                  "enable at least one poison kind");
    universe_ = inner_->InitialGraph().NumVertices();
  }

  const Graph& InitialGraph() const override {
    return inner_->InitialGraph();
  }
  Graph TakeInitialGraph() override { return inner_->TakeInitialGraph(); }

  StatusOr<bool> NextDelta(EdgeDelta* delta) override;

  Stats SourceStats() const override { return inner_->SourceStats(); }

  std::string name() const override { return inner_->name() + "+poison"; }

  uint64_t poisons_injected() const { return poisons_injected_; }

 private:
  std::unique_ptr<DeltaSource> inner_;
  PoisonInjectionOptions options_;
  Rng rng_;
  /// G_0's universe, read once here: after the engine takes G_0, an
  /// InitialGraph() call per injection would rebuild it each time.
  VertexId universe_ = 0;
  bool exhausted_ = false;
  uint64_t poisons_injected_ = 0;
};

}  // namespace avt

#endif  // AVT_GRAPH_RESILIENT_SOURCE_H_

#include "graph/resilient_source.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace avt {

StatusOr<bool> RetryingSource::NextDelta(EdgeDelta* delta) {
  for (int attempt = 0;; ++attempt) {
    StatusOr<bool> result = inner_->NextDelta(delta);
    if (result.ok()) return result;
    const bool transient = result.status().code() == StatusCode::kIoError;
    if (!transient || attempt >= options_.max_retries) {
      // Non-retryable (corruption, bad input) or retry budget spent:
      // the caller decides; retrying a corrupt stream cannot help.
      return result;
    }
    ++transient_errors_;
    ++retries_;
    Backoff(attempt);
  }
}

CircuitBreakerSource::CircuitBreakerSource(
    std::unique_ptr<DeltaSource> inner, const CircuitBreakerOptions& options)
    : inner_(std::move(inner)),
      options_(options),
      rng_(options.seed),
      outcomes_(options.window, 0) {
  AVT_CHECK_MSG(inner_ != nullptr, "CircuitBreakerSource needs a source");
  AVT_CHECK_MSG(options_.window > 0, "breaker window must be > 0");
  AVT_CHECK_MSG(options_.failure_threshold > 0.0 &&
                    options_.failure_threshold <= 1.0,
                "failure_threshold must be in (0, 1]");
}

void CircuitBreakerSource::RecordOutcome(bool failure) {
  failures_in_window_ -= outcomes_[outcome_pos_];
  outcomes_[outcome_pos_] = failure ? 1 : 0;
  failures_in_window_ += outcomes_[outcome_pos_];
  outcome_pos_ = (outcome_pos_ + 1) % outcomes_.size();
  if (outcome_count_ < outcomes_.size()) ++outcome_count_;
}

void CircuitBreakerSource::TripOpen() {
  state_ = State::kOpen;
  ++opens_;
  // Seeded jitter on the pull-counted cooldown: deterministic for a
  // fixed seed, decorrelated across breakers with different seeds.
  uint64_t cooldown = options_.cooldown_pulls;
  if (options_.cooldown_jitter > 0.0 && cooldown > 0) {
    const double factor = 1.0 + options_.cooldown_jitter *
                                    (2.0 * rng_.NextDouble() - 1.0);
    cooldown = static_cast<uint64_t>(
        static_cast<double>(cooldown) * factor + 0.5);
    if (cooldown == 0) cooldown = 1;
  }
  cooldown_left_ = cooldown;
  // Fresh window for the next closed period.
  std::fill(outcomes_.begin(), outcomes_.end(), 0);
  outcome_pos_ = 0;
  outcome_count_ = 0;
  failures_in_window_ = 0;
}

StatusOr<bool> CircuitBreakerSource::NextDelta(EdgeDelta* delta) {
  if (state_ == State::kOpen) {
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      ++rejected_;
      return Status::Unavailable(
          "circuit open after repeated source failures; " +
          std::to_string(cooldown_left_) +
          " rejected pull(s) until a half-open probe");
    }
    state_ = State::kHalfOpen;
  }

  StatusOr<bool> result = inner_->NextDelta(delta);
  const StatusCode code = result.ok() ? StatusCode::kOk
                                      : result.status().code();
  // Only transient failures feed the breaker; terminal codes pass
  // through untouched (see class comment).
  const bool transient_failure =
      code == StatusCode::kIoError || code == StatusCode::kUnavailable;
  if (!result.ok() && !transient_failure) return result;

  if (state_ == State::kHalfOpen) {
    if (transient_failure) {
      TripOpen();
      return Status::Unavailable("half-open probe failed (" +
                                 result.status().message() +
                                 "); circuit re-opened");
    }
    state_ = State::kClosed;
    RecordOutcome(false);
    return result;
  }

  RecordOutcome(transient_failure);
  if (transient_failure) {
    if (outcome_count_ >= options_.min_pulls &&
        static_cast<double>(failures_in_window_) >=
            options_.failure_threshold * static_cast<double>(outcome_count_)) {
      TripOpen();
    }
    // The breaker owns transient-failure policy: surface every
    // recorded failure as kUnavailable so the caller treats it as
    // "step again later" whether or not this one tripped the circuit.
    return Status::Unavailable("source failure recorded by breaker: " +
                               result.status().message());
  }
  return result;
}

StatusOr<bool> PoisonInjectingSource::NextDelta(EdgeDelta* delta) {
  // Decide injection BEFORE touching the upstream, so poison displaces
  // no real delta; once the upstream is exhausted, stop injecting so
  // the stream actually ends.
  if (!exhausted_ && options_.poison_rate > 0.0 &&
      rng_.Bernoulli(options_.poison_rate)) {
    delta->insertions.clear();
    delta->deletions.clear();
    const bool use_huge =
        options_.huge_ids &&
        (!options_.self_loops || rng_.Bernoulli(0.5));
    Edge poison;
    poison.u = universe_ > 0
                   ? static_cast<VertexId>(rng_.Uniform(universe_))
                   : 0;
    poison.v = use_huge ? options_.huge_id : poison.u;  // else a self-loop
    delta->insertions.push_back(poison);
    ++poisons_injected_;
    return true;
  }
  StatusOr<bool> result = inner_->NextDelta(delta);
  if (result.ok() && !result.value()) exhausted_ = true;
  return result;
}

void RetryingSource::Backoff(int attempt) {
  double backoff = options_.initial_backoff_millis;
  for (int k = 0; k < attempt && backoff < options_.max_backoff_millis;
       ++k) {
    backoff *= options_.backoff_multiplier;
  }
  if (backoff > options_.max_backoff_millis) {
    backoff = options_.max_backoff_millis;
  }
  // Symmetric seeded jitter decorrelates concurrent retriers without
  // breaking reproducibility: same seed, same sleep schedule.
  const double jitter =
      1.0 + options_.jitter_fraction * (2.0 * jitter_rng_.NextDouble() - 1.0);
  const double millis = backoff * jitter;
  if (millis > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(millis));
  }
}

}  // namespace avt

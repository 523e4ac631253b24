// Circuit breaker tests: trip threshold over the sliding window, open
// short-circuiting without touching the inner source, pull-counted
// cooldown into a half-open probe that closes or re-trips, determinism
// under the seed, the transient-vs-terminal code policy, SourceStats
// propagation through every decorator nesting order (satellite of the
// self-healing PR), and the engine draining a breaker-guarded stream
// to a bit-identical result.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/inc_avt.h"
#include "core/run_summary.h"
#include "gen/churn.h"
#include "gen/generator_source.h"
#include "gen/models.h"
#include "graph/delta_source.h"
#include "graph/resilient_source.h"
#include "util/random.h"

namespace avt {
namespace {

EdgeDelta MakeDelta(std::vector<Edge> insertions,
                    std::vector<Edge> deletions = {}) {
  EdgeDelta delta;
  delta.insertions = std::move(insertions);
  delta.deletions = std::move(deletions);
  return delta;
}

// Fails with kIoError on exactly the scripted pull indices (0-based,
// counted over calls to NextDelta); other calls emit the next delta or
// stream end. Tracks how many times it was actually invoked, so tests
// can prove an open breaker never touched it.
class ScriptedSource : public DeltaSource {
 public:
  ScriptedSource(Graph initial, std::vector<EdgeDelta> deltas,
                 std::set<uint64_t> failing_calls)
      : initial_(std::move(initial)),
        deltas_(std::move(deltas)),
        failing_calls_(std::move(failing_calls)) {}

  const Graph& InitialGraph() const override { return initial_; }

  StatusOr<bool> NextDelta(EdgeDelta* delta) override {
    const uint64_t call = calls_++;
    if (failing_calls_.count(call) > 0) {
      return Status::IoError("scripted failure at call " +
                             std::to_string(call));
    }
    if (next_ >= deltas_.size()) return false;
    *delta = deltas_[next_++];
    return true;
  }

  std::string name() const override { return "scripted"; }

  uint64_t calls() const { return calls_; }

 private:
  Graph initial_;
  std::vector<EdgeDelta> deltas_;
  std::set<uint64_t> failing_calls_;
  uint64_t calls_ = 0;
  size_t next_ = 0;
};

CircuitBreakerOptions TightBreaker() {
  CircuitBreakerOptions options;
  options.window = 4;
  options.failure_threshold = 0.5;
  options.min_pulls = 2;
  options.cooldown_pulls = 3;
  options.cooldown_jitter = 0.0;  // exact cooldown for scripted tests
  options.seed = 7;
  return options;
}

TEST(CircuitBreaker, ClosedConvertsTransientFailuresToUnavailable) {
  auto inner = std::make_unique<ScriptedSource>(
      Graph(4), std::vector<EdgeDelta>{MakeDelta({{0, 1}})},
      std::set<uint64_t>{0});
  CircuitBreakerSource breaker(std::move(inner), TightBreaker());

  EdgeDelta delta;
  StatusOr<bool> first = breaker.NextDelta(&delta);
  ASSERT_FALSE(first.ok());
  // The breaker owns transient-failure policy: the inner kIoError is
  // recorded and surfaced as kUnavailable even before any trip.
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(breaker.state(), CircuitBreakerSource::State::kClosed);

  StatusOr<bool> second = breaker.NextDelta(&delta);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value());
  EXPECT_EQ(delta.insertions, (std::vector<Edge>{{0, 1}}));
}

TEST(CircuitBreaker, TerminalCodesPassThroughUnrecorded) {
  // A corrupt stream must surface as corruption — not be absorbed,
  // converted, or counted toward a trip.
  class CorruptSource : public DeltaSource {
   public:
    CorruptSource() : initial_(2) {}
    const Graph& InitialGraph() const override { return initial_; }
    StatusOr<bool> NextDelta(EdgeDelta*) override {
      return Status::Corruption("bad frame");
    }
    std::string name() const override { return "corrupt"; }

   private:
    Graph initial_;
  };

  CircuitBreakerSource breaker(std::make_unique<CorruptSource>(),
                               TightBreaker());
  EdgeDelta delta;
  for (int i = 0; i < 10; ++i) {
    StatusOr<bool> result = breaker.NextDelta(&delta);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
  EXPECT_EQ(breaker.state(), CircuitBreakerSource::State::kClosed);
  EXPECT_EQ(breaker.SourceStats().breaker_opens, 0u);
}

TEST(CircuitBreaker, TripsAndShortCircuitsWithoutTouchingInner) {
  // Calls 0 and 1 fail → window {1, 1}, count 2 >= min_pulls, rate
  // 1.0 >= 0.5 → trip on the second failure.
  auto owned = std::make_unique<ScriptedSource>(
      Graph(4), std::vector<EdgeDelta>{MakeDelta({{0, 1}})},
      std::set<uint64_t>{0, 1});
  ScriptedSource* inner = owned.get();
  CircuitBreakerSource breaker(std::move(owned), TightBreaker());

  EdgeDelta delta;
  EXPECT_EQ(breaker.NextDelta(&delta).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(breaker.state(), CircuitBreakerSource::State::kClosed);
  EXPECT_EQ(breaker.NextDelta(&delta).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(breaker.state(), CircuitBreakerSource::State::kOpen);
  EXPECT_EQ(inner->calls(), 2u);

  // cooldown_pulls = 3 rejected pulls, none reaching the inner source.
  for (int i = 0; i < 3; ++i) {
    StatusOr<bool> rejected = breaker.NextDelta(&delta);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(inner->calls(), 2u) << "open breaker touched the source";
  }
  DeltaSource::Stats stats = breaker.SourceStats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_rejected_pulls, 3u);

  // Cooldown spent → the next pull is the half-open probe; call 5 of
  // the script succeeds, so the breaker closes and delivers.
  StatusOr<bool> probe = breaker.NextDelta(&delta);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe.value());
  EXPECT_EQ(breaker.state(), CircuitBreakerSource::State::kClosed);
  EXPECT_EQ(inner->calls(), 3u);
}

TEST(CircuitBreaker, FailedHalfOpenProbeReopens) {
  // Fail calls 0-2: two failures trip it, the cooldown passes, and the
  // half-open probe (inner call 2) fails again → re-open, second
  // cooldown, then the probe succeeds.
  auto owned = std::make_unique<ScriptedSource>(
      Graph(4), std::vector<EdgeDelta>{MakeDelta({{0, 1}})},
      std::set<uint64_t>{0, 1, 2});
  ScriptedSource* inner = owned.get();
  CircuitBreakerSource breaker(std::move(owned), TightBreaker());

  EdgeDelta delta;
  breaker.NextDelta(&delta);
  breaker.NextDelta(&delta);  // trips
  ASSERT_EQ(breaker.state(), CircuitBreakerSource::State::kOpen);
  for (int i = 0; i < 3; ++i) breaker.NextDelta(&delta);  // cooldown

  StatusOr<bool> probe = breaker.NextDelta(&delta);  // inner call 2: fails
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(breaker.state(), CircuitBreakerSource::State::kOpen);
  EXPECT_EQ(breaker.SourceStats().breaker_opens, 2u);

  for (int i = 0; i < 3; ++i) breaker.NextDelta(&delta);  // cooldown again
  StatusOr<bool> retry = breaker.NextDelta(&delta);  // inner call 3: ok
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry.value());
  EXPECT_EQ(breaker.state(), CircuitBreakerSource::State::kClosed);
  EXPECT_EQ(inner->calls(), 4u);
}

TEST(CircuitBreaker, DeterministicUnderSeed) {
  // Same script + same options (jitter ON) → identical state walk and
  // counters, twice over.
  auto run = []() {
    CircuitBreakerOptions options = TightBreaker();
    options.cooldown_jitter = 0.5;
    auto inner = std::make_unique<ScriptedSource>(
        Graph(4),
        std::vector<EdgeDelta>{MakeDelta({{0, 1}}), MakeDelta({{1, 2}})},
        std::set<uint64_t>{0, 1, 3, 4});
    CircuitBreakerSource breaker(std::move(inner), options);
    EdgeDelta delta;
    std::string trace;
    for (int i = 0; i < 24; ++i) {
      StatusOr<bool> result = breaker.NextDelta(&delta);
      if (!result.ok()) {
        trace += "E";
      } else {
        trace += result.value() ? "D" : ".";
      }
      trace += std::to_string(static_cast<int>(breaker.state()));
    }
    DeltaSource::Stats stats = breaker.SourceStats();
    trace += '/';
    trace += std::to_string(stats.breaker_opens);
    trace += '/';
    trace += std::to_string(stats.breaker_rejected_pulls);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// --- SourceStats propagation (satellite: counters survive nesting) ----

std::unique_ptr<DeltaSource> FlakyBase(Graph initial,
                                       std::vector<EdgeDelta> deltas) {
  FaultInjectionOptions fault;
  fault.seed = 5;
  fault.transient_rate = 0.3;
  auto base = std::make_unique<ScriptedSource>(std::move(initial),
                                               std::move(deltas),
                                               std::set<uint64_t>{});
  return std::make_unique<FaultInjectingSource>(std::move(base), fault);
}

TEST(SourceStats, SurviveEveryDecoratorNesting) {
  Graph initial(6);
  std::vector<EdgeDelta> deltas;
  for (VertexId v = 0; v + 1 < 6; ++v) {
    deltas.push_back(MakeDelta({{v, static_cast<VertexId>(v + 1)}}));
  }
  RetryOptions retry;
  retry.max_retries = 8;
  retry.initial_backoff_millis = 0.0;
  retry.max_backoff_millis = 0.0;

  // Order A: Coalescing(Breaker(Retrying(Fault(base)))).
  auto order_a = std::make_unique<CoalescingSource>(
      std::make_unique<CircuitBreakerSource>(
          std::make_unique<RetryingSource>(FlakyBase(initial, deltas),
                                           retry),
          TightBreaker()),
      2);
  // Order B: Breaker(Coalescing(Retrying(Fault(base)))).
  auto order_b = std::make_unique<CircuitBreakerSource>(
      std::make_unique<CoalescingSource>(
          std::make_unique<RetryingSource>(FlakyBase(initial, deltas),
                                           retry),
          2),
      TightBreaker());

  for (DeltaSource* source : {static_cast<DeltaSource*>(order_a.get()),
                              static_cast<DeltaSource*>(order_b.get())}) {
    EdgeDelta delta;
    size_t delivered = 0;
    for (;;) {
      StatusOr<bool> result = source->NextDelta(&delta);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kUnavailable)
            << result.status().ToString();
        continue;  // recorded transient; pull again
      }
      if (!result.value()) break;
      ++delivered;
    }
    EXPECT_EQ(delivered, 3u) << source->name();  // 5 deltas coalesced by 2
    DeltaSource::Stats stats = source->SourceStats();
    // The retry layer absorbed every injected fault below it; its
    // counters must surface through the full stack in BOTH orders,
    // alongside the breaker fields (zero or not).
    EXPECT_GT(stats.transient_errors, 0u) << source->name();
    EXPECT_EQ(stats.retries, stats.transient_errors) << source->name();
    EXPECT_EQ(stats.breaker_rejected_pulls, 0u) << source->name();
  }
}

// --- Engine integration ------------------------------------------------

TEST(EngineWithBreaker, DrainsToBitIdenticalResultDespiteTrips) {
  Rng rng(11);
  Graph initial = ChungLuPowerLaw(150, 5.0, 2.2, 30, rng);
  ChurnOptions churn;
  churn.num_snapshots = 16;
  churn.min_churn = 10;
  churn.max_churn = 25;

  auto make_tracker = []() {
    return std::make_unique<IncAvtTracker>(3, 3, IncAvtMode::kRestricted,
                                           IncAvtOptions{});
  };

  // Reference: undecorated churn stream.
  Rng source_rng(12);
  AvtEngine reference(make_tracker(),
                      std::make_unique<ChurnSource>(initial, churn,
                                                    source_rng));
  ASSERT_TRUE(reference.Drain().ok());

  // Same stream behind a fault injector (no retry budget) and a tight
  // breaker: every fault feeds the breaker, the breaker trips, Drain
  // waits out the cooldowns — and the tracked result is identical.
  FaultInjectionOptions fault;
  fault.seed = 3;
  fault.transient_rate = 0.4;
  Rng source_rng2(12);
  auto guarded = std::make_unique<CircuitBreakerSource>(
      std::make_unique<FaultInjectingSource>(
          std::make_unique<ChurnSource>(initial, churn, source_rng2), fault),
      TightBreaker());
  AvtEngine engine(make_tracker(), std::move(guarded));
  Status status = engine.Drain();
  ASSERT_TRUE(status.ok()) << status.ToString();

  ASSERT_EQ(engine.SnapshotsProcessed(), reference.SnapshotsProcessed());
  for (size_t t = 0; t < reference.SnapshotsProcessed(); ++t) {
    EXPECT_EQ(engine.result().snapshots[t].anchors,
              reference.result().snapshots[t].anchors) << "t=" << t;
    EXPECT_EQ(engine.result().snapshots[t].num_followers,
              reference.result().snapshots[t].num_followers) << "t=" << t;
  }

  RunSummary summary = engine.Summary();
  EXPECT_GT(summary.breaker_opens, 0u);
  EXPECT_GT(summary.breaker_rejected_pulls, 0u);
  EXPECT_EQ(engine.health().state(), HealthState::kDegraded);
  EXPECT_EQ(engine.health().reason(), HealthReason::kSourceUnavailable);
}

TEST(EngineWithBreaker, DeadSourceHaltsAfterBoundedPatience) {
  class DeadSource : public DeltaSource {
   public:
    DeadSource() : initial_(4) {}
    const Graph& InitialGraph() const override { return initial_; }
    StatusOr<bool> NextDelta(EdgeDelta*) override {
      return Status::IoError("backing store gone");
    }
    std::string name() const override { return "dead"; }

   private:
    Graph initial_;
  };

  EngineOptions options;
  options.max_source_failures = 20;
  AvtEngine engine(
      std::make_unique<IncAvtTracker>(2, 2, IncAvtMode::kRestricted,
                                      IncAvtOptions{}),
      std::make_unique<CircuitBreakerSource>(std::make_unique<DeadSource>(),
                                             TightBreaker()),
      options);
  Status status = engine.Drain();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.health().state(), HealthState::kHalted);
  EXPECT_EQ(engine.health().reason(), HealthReason::kSourceFailure);
  // Halted is sticky: the same status comes back, no more pulls.
  StatusOr<bool> again = engine.Step();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), status.message());
}

}  // namespace
}  // namespace avt

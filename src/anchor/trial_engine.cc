#include "anchor/trial_engine.h"

#include <algorithm>
#include <numeric>
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

/// Per-worker winner candidate (eager mode).
struct WorkerBest {
  VertexId vertex = kNoVertex;
  uint32_t followers = 0;
  uint64_t full_queries = 0;
};

bool Improves(const WorkerBest& best, uint32_t followers, VertexId vertex) {
  if (best.vertex == kNoVertex) return true;
  if (followers != best.followers) return followers > best.followers;
  return vertex < best.vertex;
}

/// Below this many probes per worker the fork-join wakeup plus the
/// per-worker base-cascade rebuild cost more than the probes they
/// spread; the serial path computes the identical bounds, so the
/// cutover changes nothing observable. (BENCH_PR3's IncAVT arm lost
/// 1.4x at 8 threads precisely because steady-state pools are this
/// small.)
constexpr size_t kMinProbesPerWorker = 8;

}  // namespace

TrialEngine::TrialEngine(const Graph* graph, const KOrder* order,
                         const CsrView* csr, uint32_t num_threads)
    : num_threads_(std::max<uint32_t>(1, num_threads)), order_(order) {
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  oracles_.reserve(num_threads_);
  for (uint32_t w = 0; w < num_threads_; ++w) {
    oracles_.push_back(std::make_unique<FollowerOracle>(graph, order, csr));
  }
}

void TrialEngine::ResizeScratch() {
  for (auto& oracle : oracles_) oracle->ResizeScratch();
}

size_t TrialEngine::MemoryFootprint() const {
  size_t bytes = bounds_.capacity() * sizeof(uint32_t) +
                 perm_.capacity() * sizeof(uint32_t);
  for (const auto& oracle : oracles_) bytes += oracle->MemoryFootprint();
  return bytes;
}

uint64_t TrialEngine::CascadeVisited() const {
  uint64_t total = 0;
  for (const auto& oracle : oracles_) total += oracle->stats().visited;
  return total;
}

TrialOutcome TrialEngine::Evaluate(std::span<const VertexId> live,
                                   std::span<const VertexId> base,
                                   uint32_t k, const TrialPolicy& policy) {
  TrialOutcome outcome;
  if (live.empty()) return outcome;

  if (policy.lazy) {
    // --- Phase 1: one certified bound per candidate, partition-parallel.
    // Each bound is a pure function of (base, candidate, k) — the
    // marginal probe continues the worker's private resident base
    // cascade over epoch-reset overlays — so the filled array is
    // identical no matter which worker computed which slot, or whether
    // any fan-out happened at all.
    bounds_.resize(live.size());
    const bool fan_out =
        pool_ != nullptr &&
        live.size() >= static_cast<size_t>(num_threads_) * kMinProbesPerWorker;
    if (!fan_out) {
      FollowerOracle& oracle = *oracles_[0];
      oracle.BuildBase(base, k);
      for (size_t i = 0; i < live.size(); ++i) {
        bounds_[i] = oracle.MarginalUpperBound(live[i]);
      }
    } else {
      // Graph-region partition: candidates sorted by K-order position
      // (level, tag), then block-split, so one worker's probes cascade
      // through neighboring K-order state instead of striding the whole
      // order. Purely a locality choice — the winner and counters never
      // depend on the partition.
      perm_.resize(live.size());
      std::iota(perm_.begin(), perm_.end(), 0u);
      const KOrder* order = order_;
      std::sort(perm_.begin(), perm_.end(),
                [order, live](uint32_t a, uint32_t b) {
                  const VertexId u = live[a];
                  const VertexId v = live[b];
                  const uint32_t lu = order->CoreOf(u);
                  const uint32_t lv = order->CoreOf(v);
                  if (lu != lv) return lu < lv;
                  const uint64_t tu = order->TagOf(u);
                  const uint64_t tv = order->TagOf(v);
                  if (tu != tv) return tu < tv;
                  return u < v;
                });
      const uint32_t workers = num_threads_;
      pool_->Run([&](uint32_t w) {
        const size_t lo = ThreadPool::BlockBegin(live.size(), workers, w);
        const size_t hi = ThreadPool::BlockEnd(live.size(), workers, w);
        if (lo >= hi) return;
        FollowerOracle& oracle = *oracles_[w];
        oracle.BuildBase(base, k);
        for (size_t j = lo; j < hi; ++j) {
          const uint32_t i = perm_[j];
          bounds_[i] = oracle.MarginalUpperBound(live[i]);
        }
      });
    }
    outcome.bound_probes = live.size();

    // --- Phase 2: one GLOBAL certified-bound CELF heap, serial resolve.
    // Exactly the serial discipline: pop the (value desc, id asc) top;
    // settle with zero further queries if it cannot beat the floor;
    // accept it if exact; otherwise resolve it with ONE full query and
    // re-insert. Only the global winner is ever resolved exactly, so
    // full_queries is independent of the thread count.
    std::priority_queue<LazyEntry> heap;
    for (size_t i = 0; i < live.size(); ++i) {
      heap.push({bounds_[i], live[i], false});
    }
    FollowerOracle& resolver = *oracles_[0];
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
      heap.push({resolver.CountFollowers(base, top.vertex, k), top.vertex,
                 true});
    }
    return outcome;
  }

  // Eager: one full query per candidate, fanned out with work stealing.
  // The per-worker running best depends on which indices the worker
  // ran, but the reduction below recovers the unique global (followers
  // desc, id asc) maximum from any partition; the query count is
  // |live| regardless of the thread count.
  std::vector<WorkerBest> bests(num_threads_);
  ParallelFor(pool_.get(), live.size(), /*grain=*/8,
              [&](uint32_t w, size_t i) {
                FollowerOracle& oracle = *oracles_[w];
                WorkerBest& best = bests[w];
                ++best.full_queries;
                uint32_t followers =
                    oracle.CountFollowers(base, live[i], k);
                if (policy.gate && followers <= policy.floor) return;
                if (Improves(best, followers, live[i])) {
                  best.vertex = live[i];
                  best.followers = followers;
                }
              });

  // Deterministic fold: ascending worker id, strict (followers desc,
  // id asc) tie-break over exact counts.
  WorkerBest winner;
  for (const WorkerBest& best : bests) {
    outcome.full_queries += best.full_queries;
    if (best.vertex == kNoVertex) continue;
    if (Improves(winner, best.followers, best.vertex)) {
      winner.vertex = best.vertex;
      winner.followers = best.followers;
    }
  }
  outcome.vertex = winner.vertex;
  outcome.followers = winner.followers;
  return outcome;
}

}  // namespace avt

// Tests for the utility layer: status, RNG, epoch arrays, flags, tables,
// summaries, timers, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <set>

#include "util/epoch.h"
#include "util/flags.h"
#include "util/flat_map.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace avt {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::IoError("cannot open foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IoError: cannot open foo");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PowerLawBounds) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.PowerLaw(2.2, 100);
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 100u);
  }
}

TEST(Rng, PowerLawHeavyTail) {
  Rng rng(17);
  // Mean of a 2.2-exponent truncated Pareto clearly exceeds 1, and large
  // values appear.
  uint64_t max_seen = 0;
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    uint64_t x = rng.PowerLaw(2.2, 1000);
    sum += static_cast<double>(x);
    max_seen = std::max(max_seen, x);
  }
  EXPECT_GT(sum / trials, 1.5);
  EXPECT_GT(max_seen, 50u);
}

TEST(Rng, SampleDistinctIsDistinctAndInRange) {
  Rng rng(19);
  auto sample = rng.SampleDistinct(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleDistinctFullRange) {
  Rng rng(21);
  auto sample = rng.SampleDistinct(10, 10);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(EpochArray, ClearIsLogical) {
  EpochArray<uint32_t> arr(5);
  arr.Set(2, 7);
  EXPECT_EQ(arr.Get(2), 7u);
  EXPECT_TRUE(arr.Contains(2));
  arr.Clear();
  EXPECT_FALSE(arr.Contains(2));
  EXPECT_EQ(arr.Get(2), 0u);
}

TEST(EpochArray, AddInitializesFromDefault) {
  EpochArray<uint32_t> arr(3);
  EXPECT_EQ(arr.Add(1, 5), 5u);
  EXPECT_EQ(arr.Add(1, 2), 7u);
  arr.Clear();
  EXPECT_EQ(arr.Add(1, 1), 1u);
}

TEST(EpochArray, MutableResetsStaleRecordsAndGrowKeepsLiveOnes) {
  struct Record {
    uint32_t count;
    uint8_t flags;
  };
  EpochArray<Record> arr(4);
  arr.Mutable(1).count = 3;
  arr.Mutable(1).flags |= 2;
  EXPECT_EQ(arr.Get(1).count, 3u);
  EXPECT_EQ(arr.Get(1).flags, 2);
  arr.Grow(8);
  EXPECT_EQ(arr.Get(1).count, 3u);  // live slot survives growth
  EXPECT_FALSE(arr.Contains(6));    // appended slots read as stale
  arr.Clear();
  EXPECT_EQ(arr.Mutable(1).count, 0u);  // a stale record resets whole
  EXPECT_EQ(arr.Get(1).flags, 0);
}

TEST(FlatKeyMap, PutFindEraseRoundTrip) {
  FlatKeyMap<uint32_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  map.Put(7, 70);
  map.Put(8, 80);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70u);
  map.Put(7, 71);  // overwrite, size unchanged
  EXPECT_EQ(*map.Find(7), 71u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(8), 80u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatKeyMap, ClearIsLogicalAndReusable) {
  FlatKeyMap<uint64_t> map;
  for (uint64_t key = 0; key < 100; ++key) map.Put(key, key * 3);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  for (uint64_t key = 0; key < 100; ++key) EXPECT_EQ(map.Find(key), nullptr);
  map.Put(5, 42);
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(*map.Find(5), 42u);
}

TEST(FlatKeyMap, ProbesThroughTombstones) {
  // Fill, erase a stretch, then re-find: tombstones must not stop the
  // probe before live entries placed behind them.
  FlatKeyMap<uint32_t> map;
  for (uint64_t key = 0; key < 40; ++key) map.Put(key, 1);
  for (uint64_t key = 0; key < 40; key += 2) map.Erase(key);
  for (uint64_t key = 1; key < 40; key += 2) {
    ASSERT_NE(map.Find(key), nullptr) << key;
  }
  // Re-insert into tombstoned slots.
  for (uint64_t key = 0; key < 40; key += 2) map.Put(key, 2);
  for (uint64_t key = 0; key < 40; ++key) {
    ASSERT_NE(map.Find(key), nullptr) << key;
    EXPECT_EQ(*map.Find(key), key % 2 == 0 ? 2u : 1u);
  }
}

TEST(FlatKeyMap, ReserveEliminatesRehashAndGrowthStillWorks) {
  FlatKeyMap<uint64_t> map(1 << 12);
  const size_t reserved = map.capacity();
  for (uint64_t key = 0; key < (1 << 12); ++key) map.Put(key * 977, key);
  EXPECT_EQ(map.capacity(), reserved);  // no rehash within the reserve
  for (uint64_t key = 0; key < (1 << 12); ++key) {
    ASSERT_NE(map.Find(key * 977), nullptr);
    EXPECT_EQ(*map.Find(key * 977), key);
  }
  // Outrun the reserve: the map doubles and keeps every entry.
  for (uint64_t key = 1 << 12; key < (1 << 13); ++key) map.Put(key * 977, key);
  EXPECT_GT(map.capacity(), reserved);
  for (uint64_t key = 0; key < (1 << 13); ++key) {
    ASSERT_NE(map.Find(key * 977), nullptr);
  }
}

TEST(FlatKeyMap, MatchesReferenceMapUnderChurn) {
  FlatKeyMap<uint64_t> map;
  std::map<uint64_t, uint64_t> reference;
  Rng rng(4242);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.Uniform(512) | (rng.Uniform(4) << 32);
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {
        const uint64_t value = rng.Uniform(1000000);
        map.Put(key, value);
        reference[key] = value;
        break;
      }
      case 2: {
        EXPECT_EQ(map.Erase(key), reference.erase(key) > 0);
        break;
      }
      default: {
        auto it = reference.find(key);
        const uint64_t* found = map.Find(key);
        if (it == reference.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    if (op % 2500 == 0) {
      map.Clear();
      reference.clear();
    }
    EXPECT_EQ(map.size(), reference.size());
  }
}

// The PR-8 tombstone-growth fix: an erase-heavy workload (the
// incremental tracker's invalidation walk is exactly this — Put/Erase
// churn with a small live set) used to double capacity every time
// tombstones pushed total load past 3/4, growing the table without
// bound while size_ stayed tiny. With the fix the table compacts in
// place instead, so capacity stays within a small constant of what the
// live entries need.
TEST(FlatKeyMap, EraseHeavyChurnKeepsCapacityBounded) {
  FlatKeyMap<uint64_t> map;
  constexpr size_t kLive = 1000;
  // Working set: kLive keys resident at all times; each cycle replaces
  // one key with a fresh one (Put + Erase), 100k cycles.
  for (uint64_t key = 0; key < kLive; ++key) map.Put(key, key);
  const size_t capacity_for_live = map.capacity();
  size_t max_capacity = map.capacity();
  for (uint64_t cycle = 0; cycle < 100000; ++cycle) {
    const uint64_t fresh = kLive + cycle;
    map.Put(fresh, fresh);
    EXPECT_TRUE(map.Erase(cycle));
    max_capacity = std::max(max_capacity, map.capacity());
  }
  EXPECT_EQ(map.size(), kLive);
  // The unfixed map reached ~128k slots here (doubling on every
  // tombstone-filled trigger); the fixed one stays within 4x of the
  // capacity the live set itself warrants.
  EXPECT_LE(max_capacity, 4 * capacity_for_live);
  for (uint64_t key = 100000; key < 100000 + kLive; ++key) {
    ASSERT_NE(map.Find(key), nullptr) << key;
  }
}

TEST(FlatKeyMap, CompactionPreservesEntriesAndStillDoublesWhenLive) {
  FlatKeyMap<uint64_t> map;
  // Fill to just under the trigger, erase most, then churn past it:
  // the trigger must compact (same capacity), not double.
  for (uint64_t key = 0; key < 40; ++key) map.Put(key, key);
  const size_t before = map.capacity();
  for (uint64_t key = 0; key < 32; ++key) map.Erase(key);
  for (uint64_t key = 100; key < 110; ++key) map.Put(key, key);
  EXPECT_EQ(map.capacity(), before);
  for (uint64_t key = 32; key < 40; ++key) {
    ASSERT_NE(map.Find(key), nullptr);
    EXPECT_EQ(*map.Find(key), key);
  }
  // Genuine live growth still doubles.
  for (uint64_t key = 1000; key < 1100; ++key) map.Put(key, key);
  EXPECT_GT(map.capacity(), before);
  EXPECT_EQ(map.size(), 8 + 10 + 100);
}

TEST(FlatKeyMap, CapacityCapCompactsInsteadOfGrowing) {
  FlatKeyMap<uint64_t> map;
  map.SetMaxCapacity(64);
  EXPECT_EQ(map.max_capacity(), 64u);
  // Keep live load low (<= 16 of 64) while churning far past the point
  // the uncapped map would have doubled: capacity must pin at the cap.
  for (uint64_t cycle = 0; cycle < 5000; ++cycle) {
    map.Put(cycle, cycle);
    if (cycle >= 16) {
      EXPECT_TRUE(map.Erase(cycle - 16));
    }
    ASSERT_EQ(map.capacity(), 64u) << "cycle " << cycle;
  }
  EXPECT_EQ(map.size(), 16u);
  EXPECT_EQ(map.capacity_bytes(), 64 * FlatKeyMap<uint64_t>::slot_bytes());
}

TEST(FlatKeyMap, AccountingReportsUsedAndBytes) {
  FlatKeyMap<uint32_t> map;
  EXPECT_EQ(map.capacity_bytes(),
            map.capacity() * FlatKeyMap<uint32_t>::slot_bytes());
  map.Put(1, 10);
  map.Put(2, 20);
  EXPECT_EQ(map.used(), 2u);
  map.Erase(1);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.used(), 2u);  // the tombstone still occupies its slot
  map.Clear();
  EXPECT_EQ(map.used(), 0u);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",     "--alpha=3", "--beta", "7",
                        "--gamma",  "--delta=x", "pos1"};
  Flags flags = Flags::Parse(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetInt("beta", 0), 7);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_EQ(flags.GetString("delta", ""), "x");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Flags, DefaultsOnMissingOrMalformed) {
  const char* argv[] = {"prog", "--n=abc"};
  Flags flags = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 5), 5);
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
  EXPECT_EQ(flags.GetDouble("missing", 0.5), 0.5);
}

TEST(Table, TextAndCsvRendering) {
  TablePrinter table({"name", "value"});
  table.Row().Str("alpha").Int(3);
  table.Row().Str("beta").Double(1.5, 2);
  std::string text = table.ToText();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("alpha,3"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Summary, WelfordMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, PercentileInterpolates) {
  std::vector<double> values{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 25), 2.0);
}

TEST(Timer, MeasuresElapsed) {
  Timer timer;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(timer.ElapsedNanos(), 0u);
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

TEST(ThreadPool, RunExecutesEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.Run([&](uint32_t worker) {
    ASSERT_LT(worker, 4u);
    ++hits[worker];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleAndZeroThreadRunInline) {
  for (uint32_t requested : {0u, 1u}) {
    ThreadPool pool(requested);
    EXPECT_EQ(pool.num_threads(), 1u);
    uint32_t calls = 0;
    pool.Run([&](uint32_t worker) {
      EXPECT_EQ(worker, 0u);
      ++calls;
    });
    EXPECT_EQ(calls, 1u);
  }
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int region = 0; region < 200; ++region) {
    pool.Run([&](uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 600u);
}

TEST(ThreadPool, BlockBoundsPartitionTheRange) {
  // Every (n, workers) split must cover [0, n) exactly once in order.
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (uint32_t workers : {1u, 2u, 3u, 8u}) {
      size_t covered = 0;
      EXPECT_EQ(ThreadPool::BlockBegin(n, workers, 0), 0u);
      for (uint32_t w = 0; w < workers; ++w) {
        EXPECT_EQ(ThreadPool::BlockBegin(n, workers, w), covered);
        EXPECT_GE(ThreadPool::BlockEnd(n, workers, w), covered);
        covered = ThreadPool::BlockEnd(n, workers, w);
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> counts(997);
  ParallelFor(&pool, counts.size(), /*grain=*/7,
              [&](uint32_t worker, size_t i) {
                ASSERT_LT(worker, 4u);
                ++counts[i];
              });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1u);
}

TEST(ParallelFor, StealingBalancesSkewedWork) {
  // Front-loaded cost: worker 0's block is ~1000x the others' work. The
  // assertion is correctness under stealing (every index once, sum
  // exact), not a timing claim.
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  const size_t n = 400;
  auto cost = [n](size_t i) {
    uint64_t local = 0;
    const uint64_t spins = i < n / 4 ? 20000 : 20;
    for (uint64_t s = 0; s < spins; ++s) local += s % 7;
    return local;
  };
  ParallelFor(&pool, n, /*grain=*/1,
              [&](uint32_t, size_t i) { sum.fetch_add(i + cost(i)); });
  uint64_t expected = 0;
  for (size_t i = 0; i < n; ++i) expected += i + cost(i);
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelFor, NullPoolRunsSerialInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 10, /*grain=*/3, [&](uint32_t worker, size_t i) {
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  ParallelFor(&pool, 0, 1, [&](uint32_t, size_t) { FAIL(); });
  std::atomic<uint32_t> hits{0};
  ParallelFor(&pool, 1, 64, [&](uint32_t, size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 1u);
}

TEST(AccumulatingTimer, SumsScopes) {
  AccumulatingTimer acc;
  {
    ScopedTimer scope(&acc);
  }
  {
    ScopedTimer scope(&acc);
  }
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_GE(acc.total_millis(), 0.0);
}

}  // namespace
}  // namespace avt

// Tests for the utility layer: status, RNG, epoch arrays, flags, tables,
// summaries, timers.

#include <gtest/gtest.h>

#include <set>

#include "util/epoch.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
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
  EXPECT_EQ(flags.Names(),
            (std::vector<std::string>{"alpha", "beta", "delta", "gamma"}));
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

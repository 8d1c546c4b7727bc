// Unit tests for the utility layer: RNG, statistics, CLI, tables, backoff.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/backoff.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace wstm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenIsInclusive) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values hit
}

TEST(Rng, Uniform01Bounds) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(17);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) counts[rng.below(kBuckets)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Stats, WelfordMatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileEmptyIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0); }

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean_of({2, 4, 6}), 4.0);
  EXPECT_NEAR(geomean_of({1, 8}), std::sqrt(8.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Cli, ParsesTypedFlags) {
  Cli cli;
  cli.add_flag("name", "a string", std::string("x"));
  cli.add_flag("count", "an int", static_cast<std::int64_t>(3));
  cli.add_flag("ratio", "a double", 0.5);
  cli.add_flag("fast", "a bool", false);
  const char* argv[] = {"prog", "--name=hello", "--count", "42", "--ratio=1.25", "--fast"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_string("name"), "hello");
  EXPECT_EQ(cli.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 1.25);
  EXPECT_TRUE(cli.get_bool("fast"));
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  Cli cli;
  cli.add_flag("count", "an int", static_cast<std::int64_t>(3));
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("count"), 3);
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli;
  cli.add_flag("count", "an int", static_cast<std::int64_t>(3));
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, NegatedBoolean) {
  Cli cli;
  cli.add_flag("fast", "a bool", true);
  const char* argv[] = {"prog", "--no-fast"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(cli.get_bool("fast"));
}

TEST(Cli, IntAndStringLists) {
  Cli cli;
  cli.add_flag("threads", "list", std::string("1,2,4"));
  cli.add_flag("cms", "list", std::string("Polka,Greedy"));
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int_list("threads"), (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_EQ(cli.get_string_list("cms"), (std::vector<std::string>{"Polka", "Greedy"}));
}

TEST(Table, AlignsAndCountsRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("333"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"x"});
  t.add_row({"a,b"});
  EXPECT_NE(t.to_csv().find("\"a,b\""), std::string::npos);
}

TEST(Backoff, YieldUntilHonorsPredicate) {
  int calls = 0;
  const bool done = yield_until(std::chrono::milliseconds(50), [&] { return ++calls >= 2; });
  EXPECT_TRUE(done);
  EXPECT_GE(calls, 2);
}

}  // namespace
}  // namespace wstm

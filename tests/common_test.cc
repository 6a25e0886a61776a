// common/: stats, rng, env, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace aid {
namespace {

TEST(Stats, MeanAndGmean) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats::gmean(xs), 2.0);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(stats::mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(stats::gmean(xs), 0.0);
}

TEST(Stats, PaperProtocolDiscardsWarmup) {
  // Warm-up run is 100x slower; protocol must ignore it entirely.
  const std::vector<double> runs{1000.0, 10.0, 10.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(stats::paper_protocol_time(runs), 10.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    ASSERT_GE(x, 2.0);
    ASSERT_LT(x, 5.0);
    const i64 k = r.uniform_int(-3, 3);
    ASSERT_GE(k, -3);
    ASSERT_LE(k, 3);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(123);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(r.normal(5.0, 2.0));
  const double m = stats::mean(xs);
  double ss = 0.0;
  for (const double x : xs) ss += (x - m) * (x - m);
  EXPECT_NEAR(m, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(ss / static_cast<double>(xs.size() - 1)), 2.0, 0.1);
}

TEST(Rng, LognormalMeanMatchesFormula) {
  Rng r(9);
  const double mu = std::log(100.0) - 0.5 * 0.3 * 0.3;
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(r.lognormal(mu, 0.3));
  EXPECT_NEAR(stats::mean(xs), 100.0, 2.0);
}

TEST(Env, ParseHelpers) {
  EXPECT_EQ(env::parse_int("42").value(), 42);
  EXPECT_EQ(env::parse_int(" -7 ").value(), -7);
  EXPECT_FALSE(env::parse_int("4x"));
  EXPECT_FALSE(env::parse_int(""));
  EXPECT_DOUBLE_EQ(env::parse_double("2.5").value(), 2.5);
  EXPECT_FALSE(env::parse_double("nope"));
  EXPECT_TRUE(env::parse_bool("TRUE").value());
  EXPECT_TRUE(env::parse_bool("1").value());
  EXPECT_FALSE(env::parse_bool("off").value());
  EXPECT_FALSE(env::parse_bool("maybe"));
}

TEST(Env, SplitList) {
  const auto parts = env::split_list("a, b,,c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Env, ScopedSetRestores) {
  ASSERT_FALSE(env::get("AID_TEST_VARIABLE"));
  {
    env::ScopedSet guard("AID_TEST_VARIABLE", "inner");
    EXPECT_EQ(env::get("AID_TEST_VARIABLE").value(), "inner");
    EXPECT_EQ(env::get_string("AID_TEST_VARIABLE", "d"), "inner");
  }
  EXPECT_FALSE(env::get("AID_TEST_VARIABLE"));
}

TEST(Env, TypedGettersFallBack) {
  env::ScopedSet guard("AID_TEST_INT", "not-a-number");
  EXPECT_EQ(env::get_int("AID_TEST_INT", 5), 5);
  EXPECT_EQ(env::get_int("AID_TEST_UNSET_INT", 7), 7);
}

TEST(Table, AlignsColumns) {
  TextTable t({"name", "value"});
  t.row().cell(std::string("alpha")).cell(1.5, 2);
  t.row().cell(std::string("b")).cell(static_cast<i64>(42));
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, AsciiBar) {
  EXPECT_EQ(ascii_bar(1.0, 1.0, 10), "##########");
  EXPECT_EQ(ascii_bar(0.5, 1.0, 10), "#####");
  EXPECT_EQ(ascii_bar(0.0, 1.0, 10), "");
  EXPECT_EQ(ascii_bar(2.0, 1.0, 4), "####") << "capped at max width";
}

}  // namespace
}  // namespace aid

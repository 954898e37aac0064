#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "utils/cli.h"
#include "utils/matrix.h"
#include "utils/parse_number.h"
#include "utils/rng.h"
#include "utils/table.h"

namespace ccd {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(2, 5));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(2));
  EXPECT_TRUE(seen.count(5));
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.Discrete(w))];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, DiscreteAllZeroWeightsReturnsZero) {
  Rng rng(17);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.Discrete(w), 0);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.01);
}

TEST(MatrixTest, SolveLinearSystemIdentity) {
  Matrix a(3, 3);
  for (int i = 0; i < 3; ++i) a(i, i) = 1.0;
  std::vector<double> b = {1.0, 2.0, 3.0};
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem(a, b, &x));
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[static_cast<size_t>(i)], b[static_cast<size_t>(i)], 1e-12);
}

TEST(MatrixTest, SolveLinearSystemGeneral) {
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  std::vector<double> b = {5.0, 10.0};
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem(a, b, &x));
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(MatrixTest, SolveSingularReturnsFalse) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  std::vector<double> x;
  EXPECT_FALSE(SolveLinearSystem(a, {1.0, 2.0}, &x));
}

TEST(MatrixTest, LeastSquaresRecoversLine) {
  // y = 2 + 3t, exactly.
  const int n = 10;
  Matrix a(n, 2);
  std::vector<double> y(n);
  for (int t = 0; t < n; ++t) {
    a(t, 0) = 1.0;
    a(t, 1) = t;
    y[static_cast<size_t>(t)] = 2.0 + 3.0 * t;
  }
  std::vector<double> beta;
  ASSERT_TRUE(SolveLeastSquares(a, y, &beta));
  EXPECT_NEAR(beta[0], 2.0, 1e-8);
  EXPECT_NEAR(beta[1], 3.0, 1e-8);
  EXPECT_NEAR(ResidualSumSquares(a, y, beta), 0.0, 1e-10);
}

TEST(MatrixTest, GramAndTransposeTimes) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix g = a.Gram();
  EXPECT_NEAR(g(0, 0), 10.0, 1e-12);  // 1+9
  EXPECT_NEAR(g(0, 1), 14.0, 1e-12);  // 2+12
  EXPECT_NEAR(g(1, 1), 20.0, 1e-12);  // 4+16
  std::vector<double> v = a.TransposeTimes({1.0, 1.0});
  EXPECT_NEAR(v[0], 4.0, 1e-12);
  EXPECT_NEAR(v[1], 6.0, 1e-12);
}

TEST(TableTest, TextAndCsvRendering) {
  Table t;
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", Table::Num(1.2345, 2)});
  t.AddRow({"beta", "x,y"});
  std::string text = t.ToText();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.23"), std::string::npos);
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

// The one rule set of every text front door (Cli, ParamMap,
// MonitorService): whole token, no surrounding whitespace, in range.
TEST(ParseNumberTest, WholeTokenRulesForEachType) {
  struct Row {
    std::string text;
    bool is_int;
    bool is_u64;
    bool is_double;
  };
  const Row rows[] = {
      {"42", true, true, true},
      {"+7", true, true, true},
      {"-3", true, false, true},
      {"-1", true, false, true},  // strtoull alone would wrap to 2^64 - 1.
      {"5000000000", false, true, true},
      {"18446744073709551615", false, true, true},
      {"18446744073709551616", false, false, true},
      {"99999999999999999999", false, false, true},
      {"1.5", false, false, true},
      {"1e-400", false, false, true},  // Underflow reads as 0.
      {"1e999", false, false, false},  // Overflow.
      {"nan", false, false, true},     // Finiteness is admission's rule.
      {"0x10", false, false, true},    // Integers are base 10 only.
      {"", false, false, false},
      {" 5", false, false, false},
      {"5 ", false, false, false},
      {"10x", false, false, false},
      {std::string("5\0x", 3), false, false, false},
      {"abc", false, false, false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE("'" + row.text + "'");
    int i = 0;
    uint64_t u = 0;
    double d = 0.0;
    EXPECT_EQ(ParseInt(row.text, &i) == nullptr, row.is_int);
    EXPECT_EQ(ParseU64(row.text, &u) == nullptr, row.is_u64);
    EXPECT_EQ(ParseDouble(row.text, &d) == nullptr, row.is_double);
  }

  int i = 0;
  ASSERT_EQ(ParseInt("-3", &i), nullptr);
  EXPECT_EQ(i, -3);
  uint64_t u = 0;
  ASSERT_EQ(ParseU64("18446744073709551615", &u), nullptr);
  EXPECT_EQ(u, UINT64_MAX);
  double d = 1.0;
  ASSERT_EQ(ParseDouble("1e-400", &d), nullptr);
  EXPECT_EQ(d, 0.0);
  // A failed parse gives a reason and leaves the output untouched.
  int kept = 9;
  EXPECT_STREQ(ParseInt("5000000000", &kept), "is out of range");
  EXPECT_STREQ(ParseInt("10x", &kept), "is not an integer");
  EXPECT_EQ(kept, 9);
}

TEST(CliTest, MalformedIntIsACliErrorNamingTheFlag) {
  // Regression: GetInt used atoi, so "--threads abc" silently became 0 and
  // "--seed 10x" silently truncated to 10. Both are now hard errors.
  const char* argv[] = {"prog", "--threads", "abc", "--seed", "10x"};
  Cli cli(5, const_cast<char**>(argv));
  try {
    cli.GetInt("threads", 1);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
    EXPECT_NE(msg.find("abc"), std::string::npos) << msg;
  }
  EXPECT_THROW(cli.GetInt("seed", 1), CliError);  // Trailing garbage.
}

TEST(CliTest, IntOverflowIsACliError) {
  const char* argv[] = {"prog", "--big", "99999999999999999999",
                        "--huge", "5000000000"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_THROW(cli.GetInt("big", 1), CliError);   // > LONG_MAX.
  EXPECT_THROW(cli.GetInt("huge", 1), CliError);  // Fits long, not int.
}

TEST(CliTest, MalformedDoubleIsACliError) {
  const char* argv[] = {"prog", "--scale", "fast", "--rate", "1.5e",
                        "--big", "1e999"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_THROW(cli.GetDouble("scale", 1.0), CliError);
  EXPECT_THROW(cli.GetDouble("rate", 1.0), CliError);
  EXPECT_THROW(cli.GetDouble("big", 1.0), CliError);    // Overflow.
  EXPECT_THROW(cli.GetBool("scale", false), CliError);  // "fast" is no bool.
}

TEST(CliTest, DoubleUnderflowIsNotAnError) {
  // strtod sets ERANGE on underflow too, while still returning the best
  // representable value — a subnormal must parse, not abort.
  const char* argv[] = {"prog", "--tiny", "1e-320", "--zeroish", "1e-999"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_GT(cli.GetDouble("tiny", 1.0), 0.0);
  EXPECT_LT(cli.GetDouble("tiny", 1.0), 1e-300);
  EXPECT_EQ(cli.GetDouble("zeroish", 1.0), 0.0);
}

TEST(CliTest, WellFormedValuesStillParse) {
  const char* argv[] = {"prog", "--threads", "8",    "--scale", "0.5",
                        "--neg", "-3",      "--on",  "yes",     "--off",
                        "off",   "--exp",   "1e-3"};
  Cli cli(13, const_cast<char**>(argv));
  EXPECT_EQ(cli.GetInt("threads", 1), 8);
  EXPECT_EQ(cli.GetInt("neg", 1), -3);
  EXPECT_DOUBLE_EQ(cli.GetDouble("scale", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(cli.GetDouble("exp", 1.0), 1e-3);
  EXPECT_TRUE(cli.GetBool("on", false));
  EXPECT_FALSE(cli.GetBool("off", true));
  // Bare flags carry the implicit value "1".
  const char* argv2[] = {"prog", "--verbose"};
  Cli cli2(2, const_cast<char**>(argv2));
  EXPECT_TRUE(cli2.GetBool("verbose", false));
  EXPECT_EQ(cli2.GetInt("verbose", 0), 1);
}

TEST(CliTest, ParsesFlagsAndPositional) {
  // Note: a bare flag followed by a non-flag token would consume it as a
  // value (greedy rule), so positional arguments precede flags here.
  const char* argv[] = {"prog", "pos1", "--scale", "0.5", "--verbose",
                        "--name=abc"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.GetDouble("scale", 1.0), 0.5);
  EXPECT_TRUE(cli.GetBool("verbose", false));
  EXPECT_EQ(cli.GetString("name", ""), "abc");
  EXPECT_FALSE(cli.Has("missing"));
  EXPECT_EQ(cli.GetInt("missing", 7), 7);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

}  // namespace
}  // namespace ccd

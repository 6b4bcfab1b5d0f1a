// Unit tests for util: rng determinism, statistics, tables, flags.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace wlsync::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, BelowIsBounded) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(42);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, HashNameStable) {
  EXPECT_EQ(hash_name("abc"), hash_name("abc"));
  EXPECT_NE(hash_name("abc"), hash_name("abd"));
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Quantile, InterpolatesAndClamps) {
  const std::vector<double> values{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(FitLine, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-10);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(MeanContraction, HalvingSeries) {
  const std::vector<double> series{16.0, 8.0, 4.0, 2.0, 1.0};
  EXPECT_NEAR(mean_contraction(series, 1e-9), 0.5, 1e-12);
}

TEST(MeanContraction, SkipsFlooredEntries) {
  const std::vector<double> series{16.0, 8.0, 1e-12, 5.0};
  // Only the 16->8 ratio counts; 1e-12 is below the floor as denominator,
  // and 8 -> 1e-12 is a valid (tiny) ratio.
  const double c = mean_contraction(series, 1e-9);
  EXPECT_GT(c, 0.0);
}

TEST(Table, AlignsColumns) {
  Table table({"a", "long_header"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("long_header"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Fmt, Formats) {
  EXPECT_EQ(fmt(1.5), "1.5");
  EXPECT_EQ(fmt_sci(0.001, 1), "1.0e-03");
}

TEST(Flags, ParsesForms) {
  const char* argv[] = {"prog", "--n=7", "--rho", "0.5", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("n", 0), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("rho", 0.0), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_TRUE(flags.has("n"));
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_NO_THROW(flags.reject_unread());  // every given flag was read

  // A typo is never read, so it fails by name instead of running a default.
  const char* typo_argv[] = {"prog", "--nn=5", "--out=x.csv"};
  const Flags typo(3, const_cast<char**>(typo_argv));
  EXPECT_EQ(typo.get_int("n", 7), 7);
  EXPECT_EQ(typo.get_string("out", ""), "x.csv");
  try {
    typo.reject_unread();
    ADD_FAILURE() << "--nn was never read";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "flags: unknown flag --nn");
  }
}

TEST(Flags, RejectsMalformedValues) {
  const char* argv[] = {"prog",        "--trials=abc", "--rho=0.5x",
                        "--big=99999999999999999999", "--verbose=maybe",
                        "--empty=",    "--off=no",     "--neg=-3"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_THROW((void)flags.get_int("trials", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("trials", 0.0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("rho", 0.0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_bool("verbose", false), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("empty", 0), std::invalid_argument);
  EXPECT_FALSE(flags.get_bool("off", true));
  EXPECT_EQ(flags.get_int("neg", 0), -3);
  // The reason names the flag and the value.
  try {
    (void)flags.get_int("trials", 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "flags: --trials='abc' is not an integer");
  }
}

}  // namespace
}  // namespace wlsync::util

// Tests for the statistics substrate: running/windowed minima, percentiles,
// histograms, moments.
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace tscclock {
namespace {

TEST(RunningMin, TracksMinimum) {
  RunningMin<int> m;
  EXPECT_FALSE(m.valid());
  m.update(5);
  EXPECT_TRUE(m.valid());
  EXPECT_EQ(m.value(), 5);
  m.update(7);
  EXPECT_EQ(m.value(), 5);
  m.update(3);
  EXPECT_EQ(m.value(), 3);
}

TEST(RunningMin, ResetToOverrides) {
  RunningMin<int> m;
  m.update(3);
  m.reset_to(10);  // level-shift reaction can *raise* the minimum
  EXPECT_EQ(m.value(), 10);
  m.update(8);
  EXPECT_EQ(m.value(), 8);
}

TEST(WindowedMin, MatchesBruteForce) {
  const std::size_t window = 7;
  WindowedMin<int> wm(window);
  Rng rng(3);
  std::vector<int> values;
  for (int i = 0; i < 500; ++i) {
    const int v = static_cast<int>(rng.uniform(0, 1000));
    values.push_back(v);
    wm.push(v);
    const std::size_t begin = values.size() > window ? values.size() - window : 0;
    int expected = values[begin];
    for (std::size_t k = begin; k < values.size(); ++k)
      expected = std::min(expected, values[k]);
    ASSERT_EQ(wm.min(), expected) << "at step " << i;
  }
}

TEST(WindowedMin, FullOnlyAfterCapacity) {
  WindowedMin<int> wm(3);
  wm.push(1);
  wm.push(2);
  EXPECT_FALSE(wm.full());
  wm.push(3);
  EXPECT_TRUE(wm.full());
}

TEST(WindowedMin, OldMinimumExpires) {
  WindowedMin<int> wm(3);
  wm.push(1);
  wm.push(10);
  wm.push(20);
  EXPECT_EQ(wm.min(), 1);
  wm.push(30);  // the 1 leaves the window
  EXPECT_EQ(wm.min(), 10);
}

TEST(WindowedMin, ClearRestarts) {
  WindowedMin<int> wm(3);
  wm.push(1);
  wm.clear();
  EXPECT_FALSE(wm.valid());
  wm.push(9);
  EXPECT_EQ(wm.min(), 9);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.75), 7.5);
}

TEST(Percentile, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 42.0);
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 0.5), ContractViolation);
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, 1.5), ContractViolation);
}

TEST(Percentile, InputOrderIrrelevant) {
  std::vector<double> a{5, 1, 4, 2, 3};
  std::vector<double> b{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(a, 0.5), percentile(b, 0.5));
}

TEST(PercentileSummary, IqrIsP75MinusP25) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const auto s = percentile_summary(v);
  EXPECT_DOUBLE_EQ(s.p50, 51.0);
  EXPECT_DOUBLE_EQ(s.iqr(), s.p75 - s.p25);
  EXPECT_DOUBLE_EQ(s.p25, 26.0);
  EXPECT_DOUBLE_EQ(s.p75, 76.0);
}

TEST(Summarize, BasicDescriptives) {
  std::vector<double> v{1, 2, 3, 4, 100};
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.percentiles.p50, 3.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.5);    // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(50.0);   // clamped to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.density(0), 0.5);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), ContractViolation);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

TEST(Histogram, NanHasNoBinAndIsCountedSeparately) {
  // Regression (UBSAN-exercised in the asan-ubsan CI leg): std::floor(NaN)
  // is NaN and casting NaN to an integer is undefined behaviour — a NaN
  // sample used to be credited to an arbitrary bin. It must instead be
  // rejected from the bins and surfaced via nan_count().
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(-std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.total(), 1u) << "NaN must not inflate the binned mass";
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_DOUBLE_EQ(h.density(5), 1.0) << "densities are over binned samples";
}

TEST(Histogram, InfinitiesAndHugeValuesClampIntoTerminalBins) {
  // Casting a double beyond the integer target's range is UB just like the
  // NaN case; ±inf and huge finite values must clamp into the terminal
  // bins (mass conservation, as documented) without tripping UBSAN.
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(1e300);
  h.add(-1e300);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.nan_count(), 0u);
}

TEST(RunningMoments, MatchesClosedForm) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.update(v);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningMoments, DegenerateCases) {
  RunningMoments m;
  EXPECT_EQ(m.variance(), 0.0);
  m.update(3.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.0);
}

// -- P² quantile sketch ----------------------------------------------------

TEST(P2Quantile, ExactForFiveOrFewerSamples) {
  P2Quantile median(0.5);
  median.add(3.0);
  EXPECT_EQ(median.value(), 3.0);
  median.add(1.0);
  median.add(5.0);
  // Exact interpolated percentile of {1, 3, 5}.
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
  median.add(2.0);
  median.add(4.0);
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
}

TEST(P2Quantile, ApproximatesUniformStreamQuantiles) {
  Rng rng(4242);
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  P2Quantile p01(0.01);
  for (int k = 0; k < 100000; ++k) {
    const double x = rng.uniform();
    p50.add(x);
    p99.add(x);
    p01.add(x);
  }
  EXPECT_NEAR(p50.value(), 0.50, 0.01);
  EXPECT_NEAR(p99.value(), 0.99, 0.005);
  EXPECT_NEAR(p01.value(), 0.01, 0.005);
}

TEST(P2Quantile, ApproximatesHeavyTailedStreamMedian) {
  // Pareto-style heavy tail: the regime the sweep's error series live in.
  Rng rng(777);
  P2Quantile p50(0.5);
  std::vector<double> all;
  for (int k = 0; k < 20000; ++k) {
    const double x = rng.pareto(2.5, 1e-3);
    p50.add(x);
    all.push_back(x);
  }
  const double exact = percentile(all, 0.5);
  EXPECT_NEAR(p50.value(), exact, 0.05 * exact + 1e-6);
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), ContractViolation);
  P2Quantile q(0.5);
  EXPECT_THROW((void)q.value(), ContractViolation);
}

TEST(StreamingSeriesSummary, ExactMomentsApproximatePercentiles) {
  Rng rng(90210);
  StreamingSeriesSummary streaming;
  std::vector<double> all;
  for (int k = 0; k < 50000; ++k) {
    const double x = rng.normal(2e-5) + 1e-5;
    streaming.add(x);
    all.push_back(x);
  }
  const auto exact = summarize(all);
  const auto approx = streaming.summary();
  // Same Welford recurrence in the same order → bit-identical moments.
  EXPECT_EQ(approx.count, exact.count);
  EXPECT_EQ(approx.mean, exact.mean);
  EXPECT_EQ(approx.stddev, exact.stddev);
  EXPECT_EQ(approx.min, exact.min);
  EXPECT_EQ(approx.max, exact.max);
  // P² percentiles within a small fraction of the standard deviation.
  EXPECT_NEAR(approx.percentiles.p50, exact.percentiles.p50,
              0.05 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p25, exact.percentiles.p25,
              0.05 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p75, exact.percentiles.p75,
              0.05 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p01, exact.percentiles.p01,
              0.15 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p99, exact.percentiles.p99,
              0.15 * exact.stddev);
}

TEST(StreamingSeriesSummary, EmptySummaryIsZeroInitialized) {
  const StreamingSeriesSummary streaming;
  const auto s = streaming.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.percentiles.p50, 0.0);
}

}  // namespace
}  // namespace tscclock

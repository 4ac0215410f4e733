#include "pa/common/histogram.h"

#include <gtest/gtest.h>

#include "pa/common/error.h"
#include "pa/common/rng.h"
#include "pa/common/stats.h"

namespace pa {
namespace {

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(LatencyHistogram, SingleValue) {
  LatencyHistogram h;
  h.record(0.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 0.5);
  // Quantiles clamp to the observed range.
  EXPECT_DOUBLE_EQ(h.p50(), 0.5);
  EXPECT_DOUBLE_EQ(h.p99(), 0.5);
}

TEST(LatencyHistogram, MeanIsExact) {
  LatencyHistogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
}

TEST(LatencyHistogram, QuantileWithinRelativeError) {
  LatencyHistogram h;
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.lognormal(-3.0, 1.0);  // ~50ms scale latencies
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const double exact_p50 = values[values.size() / 2];
  const double exact_p99 = values[static_cast<std::size_t>(values.size() * 0.99)];
  EXPECT_NEAR(h.p50() / exact_p50, 1.0, 0.05);
  EXPECT_NEAR(h.p99() / exact_p99, 1.0, 0.05);
}

TEST(LatencyHistogram, QuantileInterpolatesBetweenRanks) {
  // The SampleSet::percentile order statistic: position q * (n - 1),
  // interpolated between the ranks on either side.
  LatencyHistogram h;
  h.record(1.0);
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.p50(), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
  SampleSet exact;
  exact.add(1.0);
  exact.add(3.0);
  EXPECT_DOUBLE_EQ(h.p99(), exact.percentile(99.0));
}

TEST(LatencyHistogram, ClampsOutOfRange) {
  LatencyHistogram h(1e-3, 10.0);
  h.record(1e-9);   // below range
  h.record(100.0);  // above range
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(LatencyHistogram, RecordNBatches) {
  LatencyHistogram h;
  h.record_n(2.0, 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  h.record_n(4.0, 0);  // zero-count is a no-op
  EXPECT_EQ(h.count(), 10u);
}

TEST(LatencyHistogram, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record(1.0);
  b.record(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(LatencyHistogram, MergeBoundsChecked) {
  LatencyHistogram a(1e-6, 10.0);
  LatencyHistogram b(1e-3, 10.0);
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

TEST(LatencyHistogram, MergeWithEmpty) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record(1.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.min(), 1.0);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, QuantileArgValidated) {
  LatencyHistogram h;
  h.record(1.0);
  EXPECT_THROW(h.quantile(-0.1), InvalidArgument);
  EXPECT_THROW(h.quantile(1.1), InvalidArgument);
}

TEST(LatencyHistogram, InvalidBoundsRejected) {
  EXPECT_THROW(LatencyHistogram(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(LatencyHistogram(1.0, 0.5), InvalidArgument);
}

}  // namespace
}  // namespace pa

#include "pa/common/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "pa/common/error.h"

namespace pa {

LatencyHistogram::LatencyHistogram(double min_value, double max_value)
    : min_value_(min_value), max_value_(max_value) {
  PA_REQUIRE_ARG(min_value > 0.0 && max_value > min_value,
                 "histogram bounds invalid: [" << min_value << ", " << max_value
                                               << "]");
  num_octaves_ =
      static_cast<int>(std::ceil(std::log2(max_value_ / min_value_))) + 1;
  // +1 bucket for overflow.
  buckets_.assign(static_cast<std::size_t>(num_octaves_ * kSubBuckets) + 1, 0);
}

int LatencyHistogram::bucket_index(double value) const {
  if (value <= min_value_) {
    return 0;
  }
  if (value >= max_value_) {
    return static_cast<int>(buckets_.size()) - 1;
  }
  const double ratio = value / min_value_;
  const int octave = static_cast<int>(std::log2(ratio));
  const double octave_lo = min_value_ * std::pow(2.0, octave);
  // Linear sub-bucket inside the octave [octave_lo, 2*octave_lo).
  int sub = static_cast<int>((value - octave_lo) / octave_lo *
                             static_cast<double>(kSubBuckets));
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  const int index = octave * kSubBuckets + sub;
  return std::clamp(index, 0, static_cast<int>(buckets_.size()) - 1);
}

double LatencyHistogram::bucket_midpoint(int index) const {
  if (index >= static_cast<int>(buckets_.size()) - 1) {
    return max_value_;
  }
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  const double octave_lo = min_value_ * std::pow(2.0, octave);
  const double width = octave_lo / static_cast<double>(kSubBuckets);
  return octave_lo + (static_cast<double>(sub) + 0.5) * width;
}

void LatencyHistogram::record(double value) { record_n(value, 1); }

void LatencyHistogram::record_n(double value, std::uint64_t count) {
  if (count == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  buckets_[static_cast<std::size_t>(bucket_index(value))] += count;
  count_ += count;
  sum_ += value * static_cast<double>(count);
}

double LatencyHistogram::value_at_rank(std::uint64_t rank) const {
  // The extreme ranks are known exactly; an inner rank reads its bucket's
  // midpoint, clamped to the observed extrema.
  if (rank == 0) {
    return min_;
  }
  if (rank + 1 >= count_) {
    return max_;
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      return std::clamp(bucket_midpoint(static_cast<int>(i)), min_, max_);
    }
  }
  return max_;
}

double LatencyHistogram::quantile(double q) const {
  PA_REQUIRE_ARG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  if (count_ == 0) {
    return 0.0;
  }
  // Same order statistic as SampleSet::percentile: linear interpolation
  // between the two ranks around q * (n - 1).
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double v = value_at_rank(lo);
  return frac > 0.0 ? v + frac * (value_at_rank(lo + 1) - v) : v;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  PA_REQUIRE_ARG(buckets_.size() == other.buckets_.size() &&
                     min_value_ == other.min_value_ &&
                     max_value_ == other.max_value_,
                 "merging histograms with different bounds");
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::string LatencyHistogram::summary() const {
  std::ostringstream oss;
  oss << "n=" << count_ << " mean=" << mean() << " p50=" << p50()
      << " p95=" << p95() << " p99=" << p99() << " max=" << max();
  return oss.str();
}

}  // namespace pa

#pragma once
/// \file histogram.h
/// \brief Log-bucketed latency histogram for high-rate recording.
///
/// The streaming benchmarks record millions of per-message latencies; a
/// `SampleSet` would store them all. `LatencyHistogram` uses
/// logarithmically spaced buckets (HdrHistogram-style, base-2 with linear
/// sub-buckets) giving <= ~3% relative quantile error at O(1) memory.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pa {

/// Fixed-range log-bucketed histogram over positive values.
class LatencyHistogram {
 public:
  /// Values below `min_value` clamp to the first bucket, above `max_value`
  /// to the overflow bucket. Defaults suit seconds-scale latencies from
  /// 1 microsecond to ~1 hour.
  explicit LatencyHistogram(double min_value = 1e-6, double max_value = 4096.0);

  void record(double value);
  /// Records `count` occurrences of `value` (batch ingestion).
  void record_n(double value, std::uint64_t count);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Approximate quantile, q in [0, 1]: the order statistic
  /// `SampleSet::percentile(100 * q)` computes, with each inner rank read
  /// as its bucket's midpoint (q = 0 and q = 1 are the exact extrema).
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Merge another histogram with identical bounds.
  void merge(const LatencyHistogram& other);

  void reset();

  /// "n=... mean=... p50=... p99=... max=..." one-liner.
  std::string summary() const;

 private:
  static constexpr int kSubBuckets = 16;  // linear sub-buckets per octave

  double min_value_;
  double max_value_;
  int num_octaves_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;

  int bucket_index(double value) const;
  double bucket_midpoint(int index) const;
  /// Estimated value of the `rank`-th smallest sample (0-based).
  double value_at_rank(std::uint64_t rank) const;
};

}  // namespace pa

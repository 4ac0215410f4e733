#pragma once
/// \file service_metrics.h
/// \brief Aggregated execution metrics (basis of E1/E2 tables).
///
/// Lives in its own header so both the sharded engine (service_shard.h)
/// and the facade (pilot_compute_service.h) can speak the same metrics
/// type without an include cycle. The state is fixed-size whatever the
/// number of units: each latency series is a `pa::LatencyHistogram`
/// (count, sum, mean, min and max exact; quantiles within the bucket
/// half-width, ~3%). With N shards the facade merges the per-shard
/// copies: histograms add bucket-wise, counters sum, first_submit takes
/// the earliest and last_finish the latest recorded time.

#include <cstddef>

#include "pa/common/histogram.h"

namespace pa::core {

/// Bounds of every service latency histogram (`ServiceMetrics` and the
/// `pcs.unit_wait`/`pcs.unit_exec`/`pcs.pilot_startup` registry series):
/// 1 µs, for wall-clock waits on a local pilot, up to 32 days, for
/// simulated campaigns.
inline constexpr double kLatencyMinSeconds = 1e-6;
inline constexpr double kLatencyMaxSeconds = 32.0 * 24.0 * 3600.0;

/// Aggregated execution metrics (basis of E1/E2 tables).
struct ServiceMetrics {
  /// Seconds from submit to active per pilot, and from submit to start
  /// and start to finish per unit.
  LatencyHistogram pilot_startup_times{kLatencyMinSeconds, kLatencyMaxSeconds};
  LatencyHistogram unit_wait_times{kLatencyMinSeconds, kLatencyMaxSeconds};
  LatencyHistogram unit_exec_times{kLatencyMinSeconds, kLatencyMaxSeconds};
  std::size_t units_done = 0;
  std::size_t units_failed = 0;
  std::size_t units_canceled = 0;
  std::size_t requeues = 0;           ///< pilot-failure recoveries
  double first_submit_time = -1.0;
  double last_finish_time = -1.0;

  /// Wall/sim span from first unit submission to last completion.
  double makespan() const {
    return (first_submit_time >= 0.0 && last_finish_time >= 0.0)
               ? last_finish_time - first_submit_time
               : 0.0;
  }

  /// Folds another shard's metrics into this one.
  void merge(const ServiceMetrics& other) {
    pilot_startup_times.merge(other.pilot_startup_times);
    unit_wait_times.merge(other.unit_wait_times);
    unit_exec_times.merge(other.unit_exec_times);
    units_done += other.units_done;
    units_failed += other.units_failed;
    units_canceled += other.units_canceled;
    requeues += other.requeues;
    if (other.first_submit_time >= 0.0 &&
        (first_submit_time < 0.0 ||
         other.first_submit_time < first_submit_time)) {
      first_submit_time = other.first_submit_time;
    }
    if (other.last_finish_time > last_finish_time) {
      last_finish_time = other.last_finish_time;
    }
  }
};

}  // namespace pa::core

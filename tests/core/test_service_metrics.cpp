/// ServiceMetrics: fixed-size per-shard state and the one fold that
/// merges the shards' copies.

#include <gtest/gtest.h>

#include <utility>

#include "pa/common/rng.h"
#include "pa/core/service_metrics.h"

namespace pa::core {
namespace {

TEST(ServiceMetrics, MergedPartsEqualOneHistogramFedEverySample) {
  constexpr int kParts = 3;
  ServiceMetrics parts[kParts];
  ServiceMetrics whole;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    // Microsecond waits next to day-long ones: one bounds constant
    // covers wall and simulated campaigns.
    const double wait = rng.lognormal(0.0, 4.0);
    const double exec = rng.uniform(1e-4, 600.0);
    ServiceMetrics& part = parts[i % kParts];
    part.unit_wait_times.record(wait);
    part.unit_exec_times.record(exec);
    ++part.units_done;
    whole.unit_wait_times.record(wait);
    whole.unit_exec_times.record(exec);
    ++whole.units_done;
  }
  parts[1].pilot_startup_times.record(2.0);
  parts[1].first_submit_time = 4.0;
  parts[2].first_submit_time = 1.0;
  parts[0].last_finish_time = 90.0;
  parts[2].last_finish_time = 80.0;
  parts[0].requeues = 2;
  parts[2].units_failed = 1;

  ServiceMetrics merged;
  for (const ServiceMetrics& part : parts) {
    merged.merge(part);
  }
  const std::pair<const LatencyHistogram*, const LatencyHistogram*> series[] =
      {{&merged.unit_wait_times, &whole.unit_wait_times},
       {&merged.unit_exec_times, &whole.unit_exec_times}};
  for (const auto& [m, w] : series) {
    EXPECT_EQ(m->count(), w->count());
    // Per-part sums add in another order than one running sum.
    EXPECT_NEAR(m->sum(), w->sum(), 1e-12 * w->sum());
    EXPECT_EQ(m->min(), w->min());
    EXPECT_EQ(m->max(), w->max());
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(m->quantile(q), w->quantile(q)) << "q=" << q;
    }
  }
  EXPECT_EQ(merged.units_done, whole.units_done);
  EXPECT_EQ(merged.pilot_startup_times.count(), 1u);
  EXPECT_EQ(merged.requeues, 2u);
  EXPECT_EQ(merged.units_failed, 1u);
  EXPECT_EQ(merged.first_submit_time, 1.0);
  EXPECT_EQ(merged.last_finish_time, 90.0);
  EXPECT_EQ(merged.makespan(), 89.0);
}

}  // namespace
}  // namespace pa::core

/// Integration of pa::obs with the full middleware stack: the service emits
/// lifecycle spans stamped with the *runtime's* clock — simulated time on
/// SimRuntime (the core acceptance criterion: a trace of a week-long
/// simulated run must show week-long spans even though the process ran for
/// milliseconds), wall time on LocalRuntime.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "pa/core/pilot_compute_service.h"
#include "pa/infra/batch_cluster.h"
#include "pa/obs/clock.h"
#include "pa/obs/export.h"
#include "pa/obs/metrics.h"
#include "pa/obs/tracer.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/sim_runtime.h"
#include "pa/saga/session.h"

namespace pa::obs {
namespace {

/// Simulated stack (mirrors tests/core/test_service_sim.cpp): 4-node,
/// 8-core cluster, 2 s pilot bootstrap, 0.02 s unit dispatch overhead.
class ObsSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    infra::BatchClusterConfig cfg;
    cfg.name = "hpc-a";
    cfg.num_nodes = 4;
    cfg.node.cores = 8;
    cluster_ = std::make_shared<infra::BatchCluster>(engine_, cfg);
    session_.register_resource("slurm://hpc-a", cluster_);
    runtime_ = std::make_unique<rt::SimRuntime>(engine_, session_);
    service_ =
        std::make_unique<core::PilotComputeService>(*runtime_, "backfill");
    clock_ = std::make_unique<SimClock>(engine_);
    tracer_ = std::make_unique<Tracer>(*clock_);
    service_->attach_observability(tracer_.get(), &registry_);
    cluster_->attach_metrics(&registry_);
  }

  core::PilotDescription pilot_desc(int nodes = 2) {
    core::PilotDescription d;
    d.resource_url = "slurm://hpc-a";
    d.nodes = nodes;
    d.walltime = 3600.0;
    return d;
  }

  core::ComputeUnitDescription unit_desc(double duration = 10.0) {
    core::ComputeUnitDescription d;
    d.duration = duration;
    return d;
  }

  // Sinks first: they must outlive the service and cluster, whose teardown
  // (pilot cancellation) still emits spans and counters.
  MetricsRegistry registry_;
  sim::Engine engine_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Tracer> tracer_;
  saga::Session session_;
  std::shared_ptr<infra::BatchCluster> cluster_;
  std::unique_ptr<rt::SimRuntime> runtime_;
  std::unique_ptr<core::PilotComputeService> service_;
};

TEST_F(ObsSimTest, PilotStartupSpanCarriesSimulatedTime) {
  core::Pilot pilot = service_->submit_pilot(pilot_desc());
  pilot.wait_active();

  const auto startups = tracer_->spans_named("pilot.startup");
  ASSERT_EQ(startups.size(), 1u);
  EXPECT_EQ(startups[0].entity, pilot.id());
  // Empty cluster: queue wait 0, agent bootstrap 2 s of *simulated* time.
  // A wall-clock-stamped span would be microseconds long and start at an
  // epoch-scale offset, so these checks pin the clock plumbing.
  EXPECT_DOUBLE_EQ(startups[0].start, 0.0);
  EXPECT_DOUBLE_EQ(startups[0].end, 2.0);
  EXPECT_LE(startups[0].end, engine_.now());
}

TEST_F(ObsSimTest, UnitSpansMatchSimulatedDurations) {
  service_->submit_pilot(pilot_desc());
  core::ComputeUnit unit = service_->submit_unit(unit_desc(10.0));
  EXPECT_EQ(unit.wait(), core::UnitState::kDone);

  const auto execs = tracer_->spans_named("unit.exec");
  ASSERT_EQ(execs.size(), 1u);
  EXPECT_EQ(execs[0].entity, unit.id());
  // 10 s payload + 0.02 s dispatch overhead, in simulated seconds.
  EXPECT_NEAR(execs[0].end - execs[0].start, 10.02, 1e-6);
  EXPECT_LE(execs[0].end, engine_.now());

  const auto waits = tracer_->spans_named("unit.wait");
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_GE(waits[0].end, waits[0].start);
}

TEST_F(ObsSimTest, LifecycleEventsAndCountersFlow) {
  service_->submit_pilot(pilot_desc());
  constexpr int kUnits = 8;
  for (int i = 0; i < kUnits; ++i) {
    service_->submit_unit(unit_desc(5.0));
  }
  service_->wait_all_units();

  EXPECT_EQ(registry_.counter("pcs.pilots_submitted").value(), 1u);
  EXPECT_EQ(registry_.counter("pcs.pilots_active").value(), 1u);
  EXPECT_EQ(registry_.counter("pcs.units_submitted").value(),
            static_cast<std::uint64_t>(kUnits));
  EXPECT_EQ(registry_.counter("pcs.units_done").value(),
            static_cast<std::uint64_t>(kUnits));
  EXPECT_GT(registry_.counter("wm.schedule_passes").value(), 0u);
  EXPECT_EQ(registry_.counter("wm.units_assigned").value(),
            static_cast<std::uint64_t>(kUnits));
  EXPECT_EQ(registry_.histogram("pcs.unit_exec").snapshot().count(),
            static_cast<std::uint64_t>(kUnits));
  // The batch cluster underneath exports through the same registry.
  EXPECT_GT(registry_.counter("batch.hpc-a.jobs_started").value(), 0u);

  // Pilot state events: SUBMITTED then ACTIVE, in simulated order.
  const auto events = tracer_->events();
  std::vector<std::string> pilot_states;
  for (const auto& e : events) {
    if (e.name == "pilot.state") {
      pilot_states.push_back(e.detail);
    }
  }
  ASSERT_GE(pilot_states.size(), 2u);
  EXPECT_EQ(pilot_states[0], "SUBMITTED");
  EXPECT_EQ(pilot_states[1], "ACTIVE");
  // Unit state events cover the full lifecycle for each unit.
  std::size_t running_events = 0;
  for (const auto& e : events) {
    if (e.name == "unit.state" && e.detail == "RUNNING") {
      ++running_events;
    }
  }
  EXPECT_EQ(running_events, static_cast<std::size_t>(kUnits));
}

TEST_F(ObsSimTest, ExporterProducesCombinedDocument) {
  service_->submit_pilot(pilot_desc());
  service_->submit_unit(unit_desc(10.0));
  service_->wait_all_units();

  std::ostringstream out;
  write_json(out, &registry_, tracer_.get());
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"pilot.startup\""), std::string::npos);
  EXPECT_NE(doc.find("\"pcs.units_done\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"batch.hpc-a.queue_wait\""), std::string::npos);
}

TEST_F(ObsSimTest, DetachedObservabilityIsInert) {
  service_->attach_observability(nullptr, nullptr);
  service_->submit_pilot(pilot_desc());
  service_->submit_unit(unit_desc(1.0));
  service_->wait_all_units();
  EXPECT_TRUE(tracer_->spans().empty());
  EXPECT_EQ(registry_.counter("pcs.units_done").value(), 0u);
}

// The same instrumentation on LocalRuntime stamps wall time: spans are tiny
// and anchored to the wall clock, not the (nonexistent) sim clock.
TEST(ObsLocalTest, LocalRuntimeSpansUseWallClock) {
  // Sinks declared before the service so they outlive its teardown.
  WallClock clock;
  Tracer tracer(clock);
  MetricsRegistry registry;
  rt::LocalRuntime runtime;
  core::PilotComputeService service(runtime, "backfill");
  service.attach_observability(&tracer, &registry);

  core::PilotDescription pd;
  pd.resource_url = "local://test";
  pd.nodes = 2;
  pd.walltime = 1e9;
  core::Pilot pilot = service.submit_pilot(pd);
  pilot.wait_active(10.0);

  core::ComputeUnitDescription ud;
  ud.duration = 0.05;
  core::ComputeUnit unit = service.submit_unit(ud);
  EXPECT_EQ(unit.wait(30.0), core::UnitState::kDone);
  service.shutdown();

  const auto execs = tracer.spans_named("unit.exec");
  ASSERT_EQ(execs.size(), 1u);
  // Wall-clock span: covers at least the 50 ms payload, well under a
  // minute, and bounded by the current wall clock.
  EXPECT_GE(execs[0].end - execs[0].start, 0.04);
  EXPECT_LT(execs[0].end - execs[0].start, 60.0);
  EXPECT_LE(execs[0].end, pa::wall_seconds());
  EXPECT_EQ(registry.counter("pcs.units_done").value(), 1u);
}

// Wall-clock waits on a local pilot are sub-millisecond to milliseconds.
// The registry's pcs.unit_wait and the service's own wait histogram share
// one bounds constant down to 1 µs, so both resolve those waits alike.
TEST(ObsLocalTest, RegistryWaitHistogramMatchesServiceMetrics) {
  MetricsRegistry registry;
  rt::LocalRuntime runtime;
  core::PilotComputeService service(runtime, "backfill");
  service.attach_observability(nullptr, &registry);

  core::PilotDescription pd;
  pd.resource_url = "local://test";
  pd.nodes = 2;
  pd.walltime = 1e9;
  service.submit_pilot(pd).wait_active(10.0);
  std::vector<core::ComputeUnitDescription> batch(256);
  for (auto& d : batch) {
    d.work = []() {};
  }
  service.submit_units(batch);
  service.wait_all_units(60.0);

  const LatencyHistogram reg = registry.histogram("pcs.unit_wait").snapshot();
  const LatencyHistogram own = service.metrics().unit_wait_times;
  service.shutdown();
  ASSERT_EQ(own.count(), 256u);
  EXPECT_EQ(reg.count(), own.count());
  EXPECT_EQ(reg.min(), own.min());
  EXPECT_EQ(reg.max(), own.max());
  EXPECT_EQ(reg.p50(), own.p50());
  EXPECT_EQ(reg.p99(), own.p99());
}

}  // namespace
}  // namespace pa::obs

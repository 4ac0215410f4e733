/// Direct tests of the two Runtime bindings, below the Pilot-API facade.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "pa/common/error.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/infra/batch_cluster.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/sim_runtime.h"
#include "pa/saga/session.h"

namespace pa::rt {
namespace {

class SimRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    infra::BatchClusterConfig cfg;
    cfg.name = "hpc";
    cfg.num_nodes = 4;
    cfg.node.cores = 8;
    session_.register_resource(
        "slurm://hpc", std::make_shared<infra::BatchCluster>(engine_, cfg));
    runtime_ = std::make_unique<SimRuntime>(engine_, session_);
  }

  core::PilotDescription pilot_desc() {
    core::PilotDescription d;
    d.resource_url = "slurm://hpc";
    d.nodes = 2;
    d.walltime = 1000.0;
    return d;
  }

  sim::Engine engine_;
  saga::Session session_;
  std::unique_ptr<SimRuntime> runtime_;
};

TEST_F(SimRuntimeTest, PilotActivationAfterBootstrap) {
  double active_at = -1.0;
  int cores = 0;
  std::string site;
  core::PilotRuntimeCallbacks cb;
  cb.on_active = [&](const std::string&, core::PilotCapacity c,
                    const std::string& s) {
    active_at = engine_.now();
    cores = c.cores;
    site = s;
  };
  runtime_->start_pilot("p1", pilot_desc(), std::move(cb));
  engine_.run_until(10.0);
  EXPECT_DOUBLE_EQ(active_at, 2.0);  // agent_bootstrap_time default
  EXPECT_EQ(cores, 16);
  EXPECT_EQ(site, "hpc");
}

TEST_F(SimRuntimeTest, PilotIdReuseRejected) {
  runtime_->start_pilot("p1", pilot_desc(), {});
  EXPECT_THROW(runtime_->start_pilot("p1", pilot_desc(), {}),
               pa::InvalidArgument);
}

TEST_F(SimRuntimeTest, WalltimeTerminatesAsDone) {
  core::PilotState final_state = core::PilotState::kNew;
  core::PilotRuntimeCallbacks cb;
  cb.on_terminated = [&](const std::string&, core::PilotState s) {
    final_state = s;
  };
  runtime_->start_pilot("p1", pilot_desc(), std::move(cb));
  engine_.run();
  EXPECT_EQ(final_state, core::PilotState::kDone);
  EXPECT_DOUBLE_EQ(engine_.now(), 1000.0);
}

TEST_F(SimRuntimeTest, CancelTerminatesAsCanceled) {
  core::PilotState final_state = core::PilotState::kNew;
  core::PilotRuntimeCallbacks cb;
  cb.on_terminated = [&](const std::string&, core::PilotState s) {
    final_state = s;
  };
  runtime_->start_pilot("p1", pilot_desc(), std::move(cb));
  engine_.run_until(10.0);
  runtime_->cancel_pilot("p1");
  engine_.run_until(20.0);
  EXPECT_EQ(final_state, core::PilotState::kCanceled);
  EXPECT_THROW(runtime_->cancel_pilot("ghost"), pa::NotFound);
}

TEST_F(SimRuntimeTest, UnitCompletionAfterDurationPlusOverhead) {
  bool active = false;
  core::PilotRuntimeCallbacks cb;
  cb.on_active = [&](const std::string&, core::PilotCapacity,
                    const std::string&) {
    active = true;
  };
  runtime_->start_pilot("p1", pilot_desc(), std::move(cb));
  engine_.run_until(5.0);
  ASSERT_TRUE(active);

  double done_at = -1.0;
  core::ComputeUnitDescription unit;
  unit.duration = 10.0;
  runtime_->execute_unit("p1", unit, "u1",
                         [&](bool ok) {
                           EXPECT_TRUE(ok);
                           done_at = engine_.now();
                         });
  engine_.run_until(100.0);
  EXPECT_NEAR(done_at, 5.0 + 10.0 + 0.02, 1e-9);
}

TEST_F(SimRuntimeTest, PilotDeathCancelsInFlightUnits) {
  core::PilotRuntimeCallbacks cb;
  runtime_->start_pilot("p1", pilot_desc(), std::move(cb));
  engine_.run_until(5.0);
  bool completed = false;
  core::ComputeUnitDescription unit;
  unit.duration = 100.0;
  runtime_->execute_unit("p1", unit, "u1",
                         [&](bool) { completed = true; });
  runtime_->cancel_pilot("p1");
  engine_.run();
  EXPECT_FALSE(completed);  // the completion event died with the pilot
}

TEST_F(SimRuntimeTest, DriveUntilThrowsOnDrainedQueue) {
  EXPECT_THROW(
      runtime_->drive_until([]() { return false; }, 100.0),
      pa::TimeoutError);
}

TEST(LocalRuntimeTest, NowAdvancesMonotonically) {
  LocalRuntime runtime;
  const double a = runtime.now();
  const double b = runtime.now();
  EXPECT_GE(b, a);
}

TEST(LocalRuntimeTest, UnknownPilotRejected) {
  LocalRuntime runtime;
  core::ComputeUnitDescription d;
  EXPECT_THROW(runtime.execute_unit("ghost", d, "u", [](bool) {}),
               pa::NotFound);
  EXPECT_THROW(runtime.cancel_pilot("ghost"), pa::NotFound);
}

TEST(LocalRuntimeTest, ActivationIsSynchronous) {
  LocalRuntime runtime;
  bool active = false;
  core::PilotRuntimeCallbacks cb;
  cb.on_active = [&](const std::string&, core::PilotCapacity cap,
                    const std::string&) {
    active = true;
    EXPECT_EQ(cap.cores, 3);
  };
  core::PilotDescription d;
  d.resource_url = "local://box";
  d.nodes = 3;
  d.walltime = 1e9;
  runtime.start_pilot("p1", d, std::move(cb));
  EXPECT_TRUE(active);
}

TEST(LocalRuntimeTest, ExecuteRunsPayloadOnWorker) {
  LocalRuntime runtime;
  core::PilotDescription d;
  d.resource_url = "local://box";
  d.nodes = 1;
  d.walltime = 1e9;
  runtime.start_pilot("p1", d, {});
  std::atomic<bool> ran{false};
  std::atomic<bool> done{false};
  core::ComputeUnitDescription unit;
  unit.work = [&ran]() { ran.store(true); };
  runtime.execute_unit("p1", unit, "u1", [&done](bool ok) {
    EXPECT_TRUE(ok);
    done.store(true);
  });
  runtime.drive_until([&]() { return done.load(); }, 10.0);
  EXPECT_TRUE(ran.load());
}

TEST(LocalRuntimeTest, DriveUntilTimesOut) {
  LocalRuntime runtime;
  EXPECT_THROW(runtime.drive_until([]() { return false; }, 0.05),
               pa::TimeoutError);
}

TEST(LocalRuntimeTest, CancelSuppressesLateCompletions) {
  LocalRuntime runtime;
  core::PilotDescription d;
  d.resource_url = "local://box";
  d.nodes = 1;
  d.walltime = 1e9;
  core::PilotState final_state = core::PilotState::kNew;
  core::PilotRuntimeCallbacks cb;
  cb.on_terminated = [&](const std::string&, core::PilotState s) {
    final_state = s;
  };
  runtime.start_pilot("p1", d, std::move(cb));
  std::atomic<bool> completed{false};
  std::atomic<bool> release{false};
  core::ComputeUnitDescription unit;
  unit.work = [&release]() {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  runtime.execute_unit("p1", unit, "u1",
                       [&completed](bool) { completed.store(true); });
  runtime.cancel_pilot("p1");
  EXPECT_EQ(final_state, core::PilotState::kCanceled);
  release.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(completed.load());  // stale completion was swallowed
}

TEST(LocalRuntimeTest, ActivationReportsCoresAndCapacity) {
  // LocalRuntime: one ready unit per core beyond the cores.
  for (const int cores : {1, 3}) {
    LocalRuntime runtime;
    core::PilotCapacity reported;
    core::PilotRuntimeCallbacks cb;
    cb.on_active = [&](const std::string&, core::PilotCapacity cap,
                       const std::string&) { reported = cap; };
    core::PilotDescription d;
    d.resource_url = "local://box";
    d.nodes = cores;
    d.walltime = 1e9;
    runtime.start_pilot("p1", d, std::move(cb));
    EXPECT_EQ(reported.cores, cores);
    EXPECT_EQ(reported.capacity, 2 * cores);
  }
  // SimRuntime: a simulated unit starts when it binds, so no ready slots.
  sim::Engine engine;
  saga::Session session;
  infra::BatchClusterConfig cfg;
  cfg.name = "hpc";
  cfg.num_nodes = 4;
  cfg.node.cores = 8;
  session.register_resource(
      "slurm://hpc", std::make_shared<infra::BatchCluster>(engine, cfg));
  SimRuntime sim_runtime(engine, session);
  core::PilotCapacity reported;
  core::PilotRuntimeCallbacks cb;
  cb.on_active = [&](const std::string&, core::PilotCapacity cap,
                     const std::string&) { reported = cap; };
  core::PilotDescription d;
  d.resource_url = "slurm://hpc";
  d.nodes = 2;
  d.walltime = 1000.0;
  sim_runtime.start_pilot("p1", d, std::move(cb));
  engine.run_until(10.0);
  EXPECT_EQ(reported.cores, 16);
  EXPECT_EQ(reported.capacity, 16);
}

TEST(LocalRuntimeTest, LaunchBiggerThanPilotFailsAtOnce) {
  LocalRuntime runtime;
  core::PilotDescription d;
  d.resource_url = "local://box";
  d.nodes = 2;
  d.walltime = 1e9;
  runtime.start_pilot("p1", d, {});
  bool ran = false;
  int completions = 0;
  bool success = true;
  core::ComputeUnitDescription unit;
  unit.cores = 3;
  unit.work = [&ran]() { ran = true; };
  runtime.execute_unit("p1", unit, "u1", [&](bool ok) {
    ++completions;
    success = ok;
  });
  EXPECT_EQ(completions, 1);  // synchronously, from execute_unit
  EXPECT_FALSE(success);
  EXPECT_FALSE(ran);
}

/// Opens its gate on every exit, so a failed assertion cannot leave a
/// worker blocked in teardown.
struct Gate {
  std::atomic<bool> open{false};
  ~Gate() { open.store(true); }
  void wait() const {
    while (!open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(LocalRuntimeTest, StoppedPilotStartsNoReadyUnit) {
  // Runtime level: one core, one running unit, two ready ones. After the
  // cancel neither ready payload runs and no completion fires.
  {
    Gate gate;
    std::atomic<bool> first_started{false};
    std::atomic<int> ready_ran{0};
    std::atomic<int> completions{0};
    LocalRuntime runtime;
    core::PilotDescription d;
    d.resource_url = "local://box";
    d.nodes = 1;
    d.walltime = 1e9;
    runtime.start_pilot("p1", d, {});
    core::ComputeUnitDescription blocking;
    blocking.work = [&]() {
      first_started.store(true);
      gate.wait();
    };
    core::ComputeUnitDescription ready;
    ready.work = [&ready_ran]() { ready_ran.fetch_add(1); };
    const auto count = [&completions](bool) { completions.fetch_add(1); };
    runtime.execute_unit("p1", blocking, "u1", count);
    runtime.execute_unit("p1", ready, "u2", count);
    runtime.execute_unit("p1", ready, "u3", count);
    runtime.drive_until([&]() { return first_started.load(); }, 10.0);
    runtime.cancel_pilot("p1");
    gate.open.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(ready_ran.load(), 0);
    EXPECT_EQ(completions.load(), 0);
  }
  // Service level: the ready unit was bound (RUNNING) when the pilot went;
  // the service requeues it exactly once and it stays PENDING.
  // Declared before the runtime and the service: payloads and observers
  // reference them until both are gone.
  Gate gate;
  std::atomic<bool> first_started{false};
  std::atomic<bool> ready_ran{false};
  std::atomic<int> requeued{0};
  LocalRuntime runtime;
  core::PilotComputeService service(runtime, "backfill");
  service.observe_units([&requeued](const std::string& id,
                                    core::UnitState from, core::UnitState to) {
    if (id == "unit-1" && from == core::UnitState::kRunning &&
        to == core::UnitState::kPending) {
      requeued.fetch_add(1);
    }
  });
  core::PilotDescription d;
  d.resource_url = "local://box";
  d.nodes = 1;
  d.walltime = 1e9;
  core::Pilot pilot = service.submit_pilot(d);
  pilot.wait_active(5.0);
  core::ComputeUnitDescription blocking;
  blocking.work = [&]() {
    first_started.store(true);
    gate.wait();
  };
  core::ComputeUnitDescription ready;
  ready.work = [&ready_ran]() { ready_ran.store(true); };
  core::ComputeUnit running = service.submit_unit(blocking);
  core::ComputeUnit held = service.submit_unit(ready);
  runtime.drive_until([&]() { return first_started.load(); }, 10.0);
  EXPECT_EQ(held.state(), core::UnitState::kRunning);  // in a ready slot
  pilot.cancel();
  gate.open.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(held.state(), core::UnitState::kPending);
  EXPECT_EQ(running.state(), core::UnitState::kPending);
  EXPECT_FALSE(ready_ran.load());
  EXPECT_EQ(requeued.load(), 1);
  EXPECT_EQ(service.metrics().requeues, 2u);
}

}  // namespace
}  // namespace pa::rt

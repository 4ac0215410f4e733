#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "pa/common/error.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/rt/local_runtime.h"

namespace pa::core {
namespace {

class LocalServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<rt::LocalRuntime>();
    service_ = std::make_unique<PilotComputeService>(*runtime_, "backfill");
  }

  PilotDescription pilot_desc(int cores = 4) {
    PilotDescription d;
    d.resource_url = "local://host";
    d.nodes = cores;  // 1 core per node by default
    d.walltime = 1e9;
    return d;
  }

  std::unique_ptr<rt::LocalRuntime> runtime_;
  std::unique_ptr<PilotComputeService> service_;
};

TEST_F(LocalServiceTest, PilotActivatesImmediately) {
  Pilot pilot = service_->submit_pilot(pilot_desc());
  pilot.wait_active(5.0);
  EXPECT_EQ(pilot.state(), PilotState::kActive);
}

TEST_F(LocalServiceTest, RealPayloadExecutes) {
  service_->submit_pilot(pilot_desc());
  std::atomic<int> executed{0};
  ComputeUnitDescription d;
  d.work = [&executed]() { executed.fetch_add(1); };
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
  EXPECT_EQ(executed.load(), 1);
}

TEST_F(LocalServiceTest, ManyUnitsAllExecute) {
  service_->submit_pilot(pilot_desc(8));
  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 200; ++i) {
    ComputeUnitDescription d;
    d.work = [&executed]() { executed.fetch_add(1); };
    units.push_back(service_->submit_unit(d));
  }
  service_->wait_all_units(60.0);
  EXPECT_EQ(executed.load(), 200);
  EXPECT_EQ(service_->metrics().units_done, 200u);
}

TEST_F(LocalServiceTest, ConcurrencyBoundedByPilotCores) {
  service_->submit_pilot(pilot_desc(4));
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 32; ++i) {
    ComputeUnitDescription d;
    d.work = [&]() {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < now && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    };
    units.push_back(service_->submit_unit(d));
  }
  service_->wait_all_units(60.0);
  EXPECT_LE(max_concurrent.load(), 4);
  EXPECT_GE(max_concurrent.load(), 2);  // parallelism actually happened
}

TEST_F(LocalServiceTest, ThrowingPayloadFailsUnit) {
  service_->submit_pilot(pilot_desc());
  ComputeUnitDescription d;
  d.work = []() { throw std::runtime_error("payload exploded"); };
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_EQ(unit.wait(30.0), UnitState::kFailed);
  EXPECT_EQ(service_->metrics().units_failed, 1u);
}

TEST_F(LocalServiceTest, MultiCoreUnitsReserveCores) {
  service_->submit_pilot(pilot_desc(4));
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 8; ++i) {
    ComputeUnitDescription d;
    d.cores = 2;  // only two of these fit concurrently on 4 cores
    d.work = [&]() {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < now && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    };
    units.push_back(service_->submit_unit(d));
  }
  service_->wait_all_units(60.0);
  EXPECT_LE(max_concurrent.load(), 2);
}

TEST_F(LocalServiceTest, ReadySlotsNeverIdleAnotherPilot) {
  // Each pilot takes two units beyond its cores, but a pass fills idle
  // cores on every pilot before any ready slot: all four run at once.
  service_->submit_pilot(pilot_desc(2)).wait_active(5.0);
  service_->submit_pilot(pilot_desc(2)).wait_active(5.0);
  constexpr double kUnitSeconds = 0.05;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::vector<ComputeUnitDescription> batch(4);
  for (auto& d : batch) {
    d.work = [&]() {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < now && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kUnitSeconds));
      concurrent.fetch_sub(1);
    };
  }
  const auto start = std::chrono::steady_clock::now();
  service_->submit_units(batch);
  service_->wait_all_units(60.0);
  const double makespan = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  // Two units per two-core pilot: four at once needs both pilots.
  EXPECT_EQ(max_concurrent.load(), 4);
  EXPECT_LT(makespan, 1.5 * kUnitSeconds);
  EXPECT_EQ(service_->metrics().units_done, 4u);
}

TEST_F(LocalServiceTest, UnitLargerThanPilotStaysPending) {
  // The pilot's capacity (4) would hold a 3-core unit, its cores (2) not.
  service_->submit_pilot(pilot_desc(2)).wait_active(5.0);
  std::atomic<bool> ran{false};
  ComputeUnitDescription big;
  big.cores = 3;
  big.work = [&ran]() { ran.store(true); };
  ComputeUnit unit = service_->submit_unit(big);
  ComputeUnitDescription small;
  small.work = []() {};
  // A later unit that fits runs: the pass did look at the queue.
  EXPECT_EQ(service_->submit_unit(small).wait(30.0), UnitState::kDone);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(unit.state(), UnitState::kPending);
  EXPECT_FALSE(ran.load());
}

TEST_F(LocalServiceTest, CoresPerNodeAttribute) {
  PilotDescription d;
  d.resource_url = "local://host?cores_per_node=4";
  d.nodes = 2;
  d.walltime = 1e9;
  Pilot pilot = service_->submit_pilot(d);
  pilot.wait_active(5.0);
  // An 8-core unit must fit (2 nodes * 4 cores).
  ComputeUnitDescription u;
  u.cores = 8;
  u.work = []() {};
  ComputeUnit unit = service_->submit_unit(u);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
}

TEST_F(LocalServiceTest, CancelPilotStopsFutureWork) {
  Pilot pilot = service_->submit_pilot(pilot_desc(1));
  pilot.wait_active(5.0);
  std::atomic<bool> second_ran{false};
  ComputeUnitDescription slow;
  slow.work = []() { std::this_thread::sleep_for(std::chrono::milliseconds(100)); };
  ComputeUnitDescription second;
  second.work = [&second_ran]() { second_ran.store(true); };
  service_->submit_unit(slow);
  ComputeUnit u2 = service_->submit_unit(second);
  pilot.cancel();
  EXPECT_EQ(pilot.state(), PilotState::kCanceled);
  // u2 was requeued (pilot gone) and stays pending.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(u2.state(), UnitState::kPending);
  EXPECT_FALSE(second_ran.load());
}

TEST_F(LocalServiceTest, WorkloadMovesToSecondPilotAfterCancel) {
  Pilot p1 = service_->submit_pilot(pilot_desc(1));
  p1.wait_active(5.0);
  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 4; ++i) {
    ComputeUnitDescription d;
    d.work = [&executed]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      executed.fetch_add(1);
    };
    units.push_back(service_->submit_unit(d));
  }
  p1.cancel();
  Pilot p2 = service_->submit_pilot(pilot_desc(2));
  service_->wait_all_units(60.0);
  // Every unit eventually completed, possibly re-executed after recovery.
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  EXPECT_GE(executed.load(), 4);
}

TEST_F(LocalServiceTest, WaitTimesOut) {
  // A pilot exists but the unit blocks forever -> timeout.
  service_->submit_pilot(pilot_desc(1));
  std::atomic<bool> release{false};
  ComputeUnitDescription d;
  d.work = [&release]() {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_THROW(unit.wait(0.2), pa::TimeoutError);
  release.store(true);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
}

TEST_F(LocalServiceTest, NonLocalUrlRejected) {
  PilotDescription d;
  d.resource_url = "slurm://hpc";
  d.nodes = 1;
  d.walltime = 10.0;
  EXPECT_THROW(service_->submit_pilot(d), pa::InvalidArgument);
}

TEST_F(LocalServiceTest, BurnCpuPayloadDefaultsFromDuration) {
  service_->submit_pilot(pilot_desc(2));
  ComputeUnitDescription d;
  d.duration = 0.05;  // no work payload: burns CPU for the duration
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
  EXPECT_GE(unit.times().exec_time(), 0.04);
}

}  // namespace
}  // namespace pa::core

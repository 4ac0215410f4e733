/// Integer-keyed unit state and submission bursts. A shard keys each unit
/// by the ordinal of its "unit-<n>" id and publishes dirty records from a
/// key list; these tests pin the cases that list must get right (a unit
/// dirtied, handed away and adopted back within one batch), the burst
/// contract of submit_units (a refusal mid-burst reaches the caller after
/// the earlier units were posted), and the reads of ids in another
/// spelling.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pa/common/error.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/obs/metrics.h"
#include "pa/rt/local_runtime.h"

namespace pa::core {
namespace {

/// A single-threaded runtime driven by hand: pilots come up or end and
/// units finish only when the test says so, at the time it sets.
class ScriptedRuntime : public Runtime {
 public:
  void start_pilot(const std::string& pilot_id,
                   const PilotDescription& /*description*/,
                   PilotRuntimeCallbacks callbacks) override {
    pilots_[pilot_id] = std::move(callbacks);
    if (on_start) {
      on_start(pilot_id);
    }
  }
  void cancel_pilot(const std::string& pilot_id) override {
    end(pilot_id, PilotState::kCanceled);
  }
  void execute_unit(const std::string& /*pilot_id*/,
                    const ComputeUnitDescription& /*description*/,
                    const std::string& unit_id,
                    std::function<void(bool success)> on_done) override {
    running_[unit_id] = std::move(on_done);
  }
  double now() const override { return now_; }
  bool single_threaded() const override { return true; }
  void drive_until(const std::function<bool()>& predicate,
                   double /*timeout_seconds*/) override {
    if (!predicate()) {
      throw TimeoutError("scripted runtime: nothing left to drive");
    }
  }

  void set_now(double now) { now_ = now; }
  void activate(const std::string& pilot_id, int cores) {
    pilots_.at(pilot_id).on_active(pilot_id, PilotCapacity{cores, cores},
                                   "site");
  }
  void end(const std::string& pilot_id, PilotState state) {
    const auto on_terminated = pilots_.at(pilot_id).on_terminated;
    on_terminated(pilot_id, state);
  }
  void finish(const std::string& unit_id) {
    const auto on_done = std::move(running_.at(unit_id));
    running_.erase(unit_id);
    on_done(true);
  }

  /// Runs inside start_pilot, on the apply thread that submits the pilot.
  std::function<void(const std::string& pilot_id)> on_start;

 private:
  double now_ = 0.0;
  std::map<std::string, PilotRuntimeCallbacks> pilots_;
  std::map<std::string, std::function<void(bool)>> running_;
};

PilotDescription pilot_desc(double walltime) {
  PilotDescription d;
  d.resource_url = "scripted://site";
  d.nodes = 1;
  d.walltime = walltime;
  return d;
}

ComputeUnitDescription unit_desc(double duration) {
  ComputeUnitDescription d;
  d.duration = duration;
  return d;
}

/// Final transitions per unit id, counted by a service-level observer.
class FinalLedger {
 public:
  void attach(PilotComputeService& service) {
    service.observe_units(
        [this](const std::string& unit_id, UnitState, UnitState to) {
          if (is_final(to)) {
            ++finals_[unit_id];
          }
        });
  }
  int finals(const std::string& unit_id) const {
    const auto it = finals_.find(unit_id);
    return it == finals_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, int> finals_;
};

TEST(UnitKeys, DirtiedHandedAwayAndBackInOneBatchPublishesOnce) {
  ScriptedRuntime runtime;
  obs::MetricsRegistry registry;
  FinalLedger ledger;  // both outlive the service's shutdown
  PilotComputeService::Options options;
  options.scheduler_policy = "fifo";
  options.shards = 2;
  PilotComputeService service(runtime, options);
  service.attach_observability(nullptr, &registry);
  service.set_pilot_restart_policy(1);
  ledger.attach(service);

  service.submit_pilot(pilot_desc(500.0));  // pilot-0 -> shard 0
  service.submit_pilot(pilot_desc(500.0));  // pilot-1 -> shard 1
  runtime.activate("pilot-0", 2);
  ComputeUnit x = service.submit_unit(unit_desc(10.0));  // unit-0, shard 0
  EXPECT_EQ(x.state(), UnitState::kRunning);
  service.advance_ids(0, 2);
  runtime.set_now(450.0);
  // unit-2, shard 0: pilot-0 has a free core but only 50 s left.
  ComputeUnit y = service.submit_unit(unit_desc(100.0));
  EXPECT_EQ(y.state(), UnitState::kPending);

  // pilot-0 fails. In one batch shard 0 requeues x (dirty), restarts the
  // pilot as pilot-2, whose submission brings pilot-1 up on shard 1 (two
  // free cores, 500 s of walltime) and cancels it at once. Shard 1 asked
  // for work while pilot-1 was up, so shard 0 hands x and y over; shard 1,
  // which now has no pilot, hands x back to the free core shard 0 still
  // advertises (50 s left: x fits, y does not) — all before shard 0's
  // batch end.
  runtime.on_start = [&runtime](const std::string& pilot_id) {
    if (pilot_id == "pilot-2") {
      runtime.activate("pilot-1", 2);
      runtime.end("pilot-1", PilotState::kCanceled);
    }
  };
  const std::uint64_t batches = registry.counter("ctrl.s0.batches").value();
  const std::uint64_t handed =
      registry.counter("pcs.units_handed_over").value();
  runtime.end("pilot-0", PilotState::kFailed);
  runtime.on_start = nullptr;
  EXPECT_EQ(registry.counter("ctrl.s0.batches").value(), batches + 1);
  EXPECT_EQ(registry.counter("pcs.units_handed_over").value(), handed + 3);
  EXPECT_EQ(service.shard_of(x.id()), 0);
  EXPECT_EQ(service.shard_of(y.id()), 1);
  EXPECT_EQ(x.state(), UnitState::kPending);
  EXPECT_EQ(y.state(), UnitState::kPending);
  EXPECT_EQ(service.unfinished_units(), 2u);
  EXPECT_EQ(service.total_units(), 2u);

  // pilot-2 comes up with enough walltime: shard 0 runs x and takes y.
  runtime.activate("pilot-2", 2);
  EXPECT_EQ(x.state(), UnitState::kRunning);
  EXPECT_EQ(y.state(), UnitState::kRunning);
  EXPECT_EQ(service.shard_of(y.id()), 0);
  runtime.finish(x.id());
  runtime.finish(y.id());
  EXPECT_EQ(x.state(), UnitState::kDone);
  EXPECT_EQ(y.state(), UnitState::kDone);
  EXPECT_EQ(service.unfinished_units(), 0u);
  EXPECT_EQ(service.total_units(), 2u);
  EXPECT_EQ(service.metrics().units_done, 2u);
  EXPECT_EQ(service.metrics().requeues, 1u);
  EXPECT_EQ(ledger.finals(x.id()), 1);
  EXPECT_EQ(ledger.finals(y.id()), 1);
}

TEST(UnitKeys, IdsInAnotherSpellingAreNotFound) {
  ScriptedRuntime runtime;
  PilotComputeService::Options options;
  options.shards = 2;
  PilotComputeService service(runtime, options);
  service.submit_pilot(pilot_desc(1e6));
  ComputeUnit live = service.submit_unit(unit_desc(1.0));  // unit-0
  ComputeUnit done = service.submit_unit(unit_desc(1.0));  // unit-1
  runtime.activate("pilot-0", 2);
  runtime.finish(done.id());  // final and retired
  for (const std::string id : {"unit-00", "unit-01", "unit-1x", "Unit-1"}) {
    EXPECT_THROW(service.unit_state(id), NotFound) << id;
    EXPECT_THROW(service.cancel_unit(id), NotFound) << id;
  }
  EXPECT_EQ(live.state(), UnitState::kRunning);
  EXPECT_EQ(done.state(), UnitState::kDone);
}

TEST(SubmitBurst, SubmitOnAShutDownServiceThrows) {
  ScriptedRuntime runtime;
  PilotComputeService::Options options;
  options.shards = 2;
  PilotComputeService service(runtime, options);
  service.shutdown();
  EXPECT_THROW(service.submit_unit(unit_desc(1.0)), InvalidArgument);
  EXPECT_THROW(service.submit_units({unit_desc(1.0), unit_desc(1.0)}),
               InvalidArgument);
  EXPECT_EQ(service.total_units(), 0u);
}

/// Admits `units` units, then rejects every further one.
class UnitQuota : public AdmissionInterface {
 public:
  explicit UnitQuota(int units) : left_(units) {}
  void admit_pilot(const std::string& /*tenant*/) override {}
  void admit_unit(const std::string& tenant) override {
    if (left_.fetch_sub(1) <= 0) {
      throw QuotaExceeded("unit quota of tenant " + tenant + " used up");
    }
  }
  void unit_dispatched(const std::string& /*tenant*/, int /*cores*/) override {}
  void unit_finalized(const std::string& /*tenant*/, UnitState /*state*/,
                      double /*wait_seconds*/) override {}
  void pilot_released(const std::string& /*tenant*/) override {}
  double tenant_weight(const std::string& /*tenant*/) const override {
    return 1.0;
  }

 private:
  std::atomic<int> left_;
};

TEST(SubmitBurst, QuotaRejectionMidBurstKeepsTheEarlierUnitsAcrossFourShards) {
  constexpr int kAdmitted = 10;
  rt::LocalRuntime runtime;
  PilotComputeService::Options options;
  options.scheduler_policy = "fifo";
  options.shards = 4;
  PilotComputeService service(runtime, options);
  UnitQuota quota(kAdmitted);
  service.attach_admission(&quota);
  std::vector<std::atomic<int>> finals(kAdmitted);
  service.observe_units(
      [&finals](const std::string& unit_id, UnitState, UnitState to) {
        if (is_final(to)) {
          finals.at(std::stoul(unit_id.substr(unit_id.rfind('-') + 1)))
              .fetch_add(1);
        }
      });
  PilotDescription pd;
  pd.resource_url = "local://host";
  pd.nodes = 2;
  pd.walltime = 1e9;
  service.submit_pilot(pd).wait_active(60.0);  // pilot-0 -> shard 0

  ComputeUnitDescription d;
  d.work = []() {};
  const std::vector<ComputeUnitDescription> burst(16, d);
  EXPECT_THROW(service.submit_units(burst), QuotaExceeded);
  service.wait_all_units(60.0);
  for (int i = 0; i < kAdmitted; ++i) {
    const std::string id = "unit-" + std::to_string(i);
    EXPECT_EQ(service.unit_state(id), UnitState::kDone) << id;
    EXPECT_EQ(finals[static_cast<std::size_t>(i)].load(), 1) << id;
  }
  // The rejected unit was never minted.
  EXPECT_THROW(service.unit_state("unit-" + std::to_string(kAdmitted)),
               NotFound);
  EXPECT_EQ(service.total_units(), static_cast<std::size_t>(kAdmitted));
  EXPECT_EQ(service.unfinished_units(), 0u);
  EXPECT_EQ(service.metrics().units_done, static_cast<std::size_t>(kAdmitted));
  service.shutdown();
}

}  // namespace
}  // namespace pa::core

/// Final units retire: once a unit's final state is published, its record
/// leaves the shard and only a (state, times) entry in the shard's final
/// table remains. Every read still answers exactly, a cancel of a retired
/// unit is a no-op, and a late completion for one changes nothing — on
/// SimRuntime and LocalRuntime, with one shard and with two shards where
/// units are handed over and finish on the thief. A heap probe bounds what
/// a finished unit still costs the manager.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/infra/batch_cluster.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/sim_runtime.h"
#include "pa/saga/session.h"

namespace pa::core {
namespace {

/// Forwards to a real runtime and keeps each unit's latest completion
/// callback, so a test can fire it again after the unit retired.
class RecordingRuntime : public Runtime {
 public:
  explicit RecordingRuntime(Runtime& inner) : inner_(inner) {}

  void start_pilot(const std::string& pilot_id,
                   const PilotDescription& description,
                   PilotRuntimeCallbacks callbacks) override {
    inner_.start_pilot(pilot_id, description, std::move(callbacks));
  }
  void cancel_pilot(const std::string& pilot_id) override {
    inner_.cancel_pilot(pilot_id);
  }
  void execute_unit(const std::string& pilot_id,
                    const ComputeUnitDescription& description,
                    const std::string& unit_id,
                    std::function<void(bool success)> on_done) override {
    {
      check::MutexLock lock(mu_);
      on_done_[unit_id] = on_done;
    }
    inner_.execute_unit(pilot_id, description, unit_id, std::move(on_done));
  }
  double now() const override { return inner_.now(); }
  bool single_threaded() const override { return inner_.single_threaded(); }
  void drive_until(const std::function<bool()>& predicate,
                   double timeout_seconds) override {
    inner_.drive_until(predicate, timeout_seconds);
  }

  /// Fires `unit_id`'s recorded completion again.
  void complete_again(const std::string& unit_id, bool success) {
    std::function<void(bool)> done;
    {
      check::MutexLock lock(mu_);
      done = on_done_.at(unit_id);
    }
    done(success);
  }

 private:
  Runtime& inner_;
  check::Mutex mu_{check::LockRank::kLeaf, "test.recording_runtime"};
  std::map<std::string, std::function<void(bool)>> on_done_
      PA_GUARDED_BY(mu_);
};

enum class Substrate { kSim, kLocal };

/// (substrate, shards).
using RetirementParam = std::tuple<Substrate, int>;

class UnitRetirementTest : public ::testing::TestWithParam<RetirementParam> {
 protected:
  void SetUp() override {
    const auto [substrate, shards] = GetParam();
    if (substrate == Substrate::kSim) {
      infra::BatchClusterConfig cfg;
      cfg.name = "hpc-a";
      cfg.num_nodes = 2;
      cfg.node.cores = 4;
      cluster_ = std::make_shared<infra::BatchCluster>(engine_, cfg);
      session_.register_resource("slurm://hpc-a", cluster_);
      inner_ = std::make_unique<rt::SimRuntime>(engine_, session_);
      pilot_url_ = "slurm://hpc-a";
    } else {
      inner_ = std::make_unique<rt::LocalRuntime>();
      pilot_url_ = "local://host";
    }
    runtime_ = std::make_unique<RecordingRuntime>(*inner_);
    PilotComputeService::Options options;
    options.scheduler_policy = "fifo";
    options.shards = shards;
    service_ = std::make_unique<PilotComputeService>(*runtime_, options);
  }

  void TearDown() override {
    release_.store(true);  // a held payload must end before the pool joins
    service_.reset();
  }

  bool sim() const { return std::get<0>(GetParam()) == Substrate::kSim; }

  /// One pilot: pilot-0 (shard 0) on the first submit.
  Pilot submit_pilot() {
    PilotDescription d;
    d.resource_url = pilot_url_;
    d.nodes = sim() ? 1 : 2;  // 4 simulated cores, 2 local threads
    d.walltime = sim() ? 1e6 : 1e9;
    return service_->submit_pilot(d);
  }

  /// A short unit: 10 simulated seconds, or a no-op payload.
  ComputeUnitDescription short_unit() {
    ComputeUnitDescription d;
    d.duration = 10.0;
    if (!sim()) {
      d.work = []() {};
    }
    return d;
  }

  /// A unit that runs until released (simulated: for 1e5 s).
  ComputeUnitDescription held_unit() {
    ComputeUnitDescription d;
    d.duration = 1e5;
    if (!sim()) {
      d.work = [this]() {
        while (!release_.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
    }
    return d;
  }

  void drive_until(const std::function<bool()>& predicate) {
    service_->runtime().drive_until(predicate, 60.0);
  }

  /// Applies everything posted so far on every shard (a config command
  /// is a synchronous fan-out, and each queue is FIFO per producer).
  void fence() { service_->set_requeue_on_pilot_failure(false); }

  /// Ends one unit of each final state, then checks every read against
  /// the ledger: unit-1 CANCELED while queued, unit-0 and unit-2 DONE,
  /// unit-3 FAILED with its pilot, units 4..11 DONE on a second pilot.
  /// With two shards unit-n is submitted to shard n % 2, pilot-0 lives
  /// on shard 0 and pilot-1 on shard 1: unit-3 fails on shard 0 and the
  /// even units from unit-4 on finish on shard 1, all handed over.
  void run_mixed_campaign() {
    service_->set_requeue_on_pilot_failure(false);
    std::vector<ComputeUnit> units;
    for (int i = 0; i < 3; ++i) {
      units.push_back(service_->submit_unit(short_unit()));
    }
    units[1].cancel();  // no pilot yet: still queued
    EXPECT_EQ(units[1].state(), UnitState::kCanceled);
    Pilot first = submit_pilot();
    first.wait_active(60.0);
    EXPECT_EQ(units[0].wait(60.0), UnitState::kDone);
    EXPECT_EQ(units[2].wait(60.0), UnitState::kDone);
    units.push_back(service_->submit_unit(held_unit()));
    drive_until([&]() { return units[3].state() == UnitState::kRunning; });
    first.cancel();  // no requeue: the running unit fails with its pilot
    EXPECT_EQ(units[3].wait(60.0), UnitState::kFailed);
    Pilot second = submit_pilot();  // pilot-1 -> shard 1 with two shards
    for (int i = 4; i < 12; ++i) {
      units.push_back(service_->submit_unit(short_unit()));
    }
    service_->wait_all_units(60.0);

    const ServiceMetrics m = service_->metrics();
    EXPECT_EQ(m.units_done, 10u);
    EXPECT_EQ(m.units_failed, 1u);
    EXPECT_EQ(m.units_canceled, 1u);
    EXPECT_EQ(service_->total_units(), 12u);
    EXPECT_EQ(service_->unfinished_units(), 0u);
    for (std::size_t i = 0; i < units.size(); ++i) {
      const ComputeUnit& u = units[i];
      const UnitState want = i == 1   ? UnitState::kCanceled
                             : i == 3 ? UnitState::kFailed
                                      : UnitState::kDone;
      EXPECT_EQ(u.state(), want) << u.id();
      EXPECT_EQ(service_->wait_unit(u.id(), 1.0), want) << u.id();
      const UnitTimes t = u.times();
      EXPECT_GE(t.submitted, 0.0) << u.id();
      EXPECT_GE(t.finished, t.submitted) << u.id();
      if (want == UnitState::kCanceled) {
        EXPECT_LT(t.started, 0.0) << u.id();  // never ran
      } else {
        EXPECT_GE(t.scheduled, t.submitted) << u.id();
        EXPECT_GE(t.started, t.scheduled) << u.id();
        EXPECT_GE(t.finished, t.started) << u.id();
      }
      if (sim() && want == UnitState::kDone) {
        EXPECT_GE(t.finished - t.started, 10.0) << u.id();
      }
    }
    if (std::get<1>(GetParam()) == 2) {
      // Handed over, finished and retired on the thief.
      EXPECT_EQ(service_->shard_of(units[3].id()), 0);
      EXPECT_EQ(service_->shard_of(units[4].id()), 1);
    }
    second.cancel();
  }

  sim::Engine engine_;
  saga::Session session_;
  std::shared_ptr<infra::BatchCluster> cluster_;
  std::atomic<bool> release_{false};
  std::string pilot_url_;
  std::unique_ptr<Runtime> inner_;
  std::unique_ptr<RecordingRuntime> runtime_;
  std::unique_ptr<PilotComputeService> service_;
};

TEST_P(UnitRetirementTest, RetiredUnitsAnswerEveryReadExactly) {
  run_mixed_campaign();
}

TEST_P(UnitRetirementTest, CancelOfRetiredUnitReturnsWithoutThrowing) {
  Pilot pilot = submit_pilot();
  pilot.wait_active(60.0);
  ComputeUnit a = service_->submit_unit(short_unit());  // shard 0
  ComputeUnit b = service_->submit_unit(short_unit());  // shard 1 of two
  EXPECT_EQ(a.wait(60.0), UnitState::kDone);
  EXPECT_EQ(b.wait(60.0), UnitState::kDone);
  const UnitTimes before = b.times();
  EXPECT_NO_THROW(a.cancel());
  EXPECT_NO_THROW(service_->cancel_unit(b.id()));
  EXPECT_EQ(a.state(), UnitState::kDone);
  EXPECT_EQ(b.state(), UnitState::kDone);
  EXPECT_EQ(b.times().finished, before.finished);
  EXPECT_EQ(service_->metrics().units_canceled, 0u);
  EXPECT_EQ(service_->metrics().units_done, 2u);
  // Unknown ids stay unknown, including spellings that share a retired
  // unit's ordinal.
  EXPECT_THROW(service_->cancel_unit("unit-99"), NotFound);
  EXPECT_THROW(service_->unit_state("unit-01"), NotFound);
  EXPECT_THROW(service_->unit_state("pilot-1"), NotFound);
  EXPECT_THROW(service_->unit_state("unit-x-1"), NotFound);
  EXPECT_THROW(service_->unit_times("unit-"), NotFound);
}

TEST_P(UnitRetirementTest, StaleCompletionOfRetiredUnitChangesNothing) {
  Pilot pilot = submit_pilot();
  pilot.wait_active(60.0);
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 6; ++i) {
    units.push_back(service_->submit_unit(short_unit()));
  }
  service_->wait_all_units(60.0);
  std::vector<UnitTimes> before;
  for (const auto& u : units) {
    before.push_back(u.times());
  }
  for (const auto& u : units) {
    runtime_->complete_again(u.id(), /*success=*/false);
  }
  fence();
  const ServiceMetrics m = service_->metrics();
  EXPECT_EQ(m.units_done, 6u);
  EXPECT_EQ(m.units_failed, 0u);
  EXPECT_EQ(service_->total_units(), 6u);
  EXPECT_EQ(service_->unfinished_units(), 0u);
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].state(), UnitState::kDone) << units[i].id();
    EXPECT_EQ(units[i].times().started, before[i].started);
    EXPECT_EQ(units[i].times().finished, before[i].finished);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, UnitRetirementTest,
    ::testing::Combine(::testing::Values(Substrate::kSim, Substrate::kLocal),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<RetirementParam>& info) {
      return std::string(std::get<0>(info.param) == Substrate::kSim
                             ? "Sim"
                             : "Local") +
             std::to_string(std::get<1>(info.param)) + "Shards";
    });

// ---------------------------------------------------------------------------
// Heap retention: what a finished unit still costs the manager.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif
#else
constexpr bool kSanitizedAllocator = false;
#endif

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
/// Bytes of heap in use after handing free pages back.
std::size_t heap_in_use() {
  malloc_trim(0);
  return mallinfo2().uordblks;
}
constexpr bool kHeapProbe = true;
#else
std::size_t heap_in_use() { return 0; }
constexpr bool kHeapProbe = false;
#endif

constexpr std::size_t kRoundUnits = 256;

/// Closed-loop rounds of 256 no-op units: each round waits for all of its
/// units before the next is submitted.
void run_rounds(PilotComputeService& service, std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<ComputeUnitDescription> round(kRoundUnits);
    for (auto& d : round) {
      d.work = []() {};
    }
    service.submit_units(round);
    service.wait_all_units(60.0);
  }
}

TEST(UnitRetirementHeap, FinishedUnitsKeepAtMost96Bytes) {
  if (kSanitizedAllocator || !kHeapProbe) {
    GTEST_SKIP() << "needs glibc's own allocator statistics";
  }
  constexpr std::size_t kWarmRounds = 79;  // ~20k units
  constexpr std::size_t kRounds = 391;     // ~100k units
  constexpr double kMaxBytesPerUnit = 96.0;
  rt::LocalRuntime runtime;
  PilotComputeService service(runtime, "backfill");
  PilotDescription pd;
  pd.resource_url = "local://host";
  pd.nodes = 2;
  pd.walltime = 1e9;
  service.submit_pilot(pd).wait_active(30.0);
  run_rounds(service, kWarmRounds);
  const std::size_t warm = heap_in_use();
  run_rounds(service, kRounds);
  const std::size_t end = heap_in_use();
  const std::size_t units = kRounds * kRoundUnits;
  const double per_unit =
      (static_cast<double>(end) - static_cast<double>(warm)) /
      static_cast<double>(units);
  RecordProperty("bytes_per_unit", std::to_string(per_unit));
  EXPECT_LE(per_unit, kMaxBytesPerUnit)
      << "heap " << warm << " -> " << end << " bytes over " << units
      << " finished units";
  EXPECT_EQ(service.total_units(), (kWarmRounds + kRounds) * kRoundUnits);
  EXPECT_EQ(service.metrics().units_done,
            (kWarmRounds + kRounds) * kRoundUnits);
}

}  // namespace
}  // namespace pa::core

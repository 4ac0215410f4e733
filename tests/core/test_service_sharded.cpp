/// Sharded control plane: routing, cross-shard reads, and late binding
/// across shards — PENDING units handed to the shard whose pilot has idle
/// cores, with exactly-once unit accounting, on SimRuntime and under real
/// threads (the LocalRuntime tests here are part of the sanitizer smoke
/// set — TSan must see clean mid-burst hand-overs).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pa/common/error.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/core/shard_router.h"
#include "pa/infra/batch_cluster.h"
#include "pa/journal/journal.h"
#include "pa/journal/service_journal.h"
#include "pa/obs/metrics.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/sim_runtime.h"
#include "pa/saga/session.h"

namespace pa::core {
namespace {

TEST(ShardRouter, DefaultShardIsTrailingOrdinalModuloShards) {
  ShardRouter router(4);
  EXPECT_EQ(router.default_shard("pilot-0"), 0);
  EXPECT_EQ(router.default_shard("pilot-5"), 1);
  EXPECT_EQ(router.default_shard("unit-7"), 3);
  EXPECT_EQ(router.shard_for_id("unit-7"), 3);
}

TEST(ShardRouter, PinOverridesAndForgetRestoresDefault) {
  ShardRouter router(4);
  router.pin("pilot-1", 3);
  EXPECT_EQ(router.shard_for_id("pilot-1"), 3);
  EXPECT_EQ(router.default_shard("pilot-1"), 1);  // default unchanged
  router.forget("pilot-1");
  EXPECT_EQ(router.shard_for_id("pilot-1"), 1);
}

TEST(ShardRouter, NewerPinWinsWhateverTheOrder) {
  // A unit handed on by its thief before the victim's repin landed: the
  // hand-over count, not the arrival order, names the owner.
  ShardRouter router(4);
  router.pin("unit-5", 2, /*version=*/2);
  router.pin("unit-5", 3, /*version=*/1);
  EXPECT_EQ(router.shard_for_id("unit-5"), 2);
  router.pin("unit-5", 0, /*version=*/3);
  EXPECT_EQ(router.shard_for_id("unit-5"), 0);
}

TEST(ShardRouter, NonOrdinalIdsRouteToShardZero) {
  ShardRouter router(4);
  EXPECT_EQ(router.shard_for_id("no-ordinal-here-x"), 0);
  EXPECT_EQ(router.default_shard("unit-"), 0);
}

/// Terminal-transition ledger: the observer fires on the apply thread of
/// whichever shard holds the unit; each unit must reach a final state
/// exactly once, wherever it was handed.
class TerminalLedger {
 public:
  explicit TerminalLedger(std::size_t units) : counts_(units) {}

  void attach(PilotComputeService& service) {
    service.observe_units([this](const std::string& unit_id,
                                 UnitState /*from*/, UnitState to) {
      if (!is_final(to)) {
        return;
      }
      const auto dash = unit_id.rfind('-');
      counts_.at(std::stoul(unit_id.substr(dash + 1))).fetch_add(1);
    });
  }

  void expect_exactly_once() const {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      EXPECT_EQ(counts_[i].load(), 1) << "unit-" << i;
    }
  }

 private:
  std::vector<std::atomic<int>> counts_;
};

/// Full simulated stack with a shard-count knob.
class ShardedSimTest : public ::testing::Test {
 protected:
  void make_service(int shards, const std::string& policy = "backfill") {
    infra::BatchClusterConfig cfg;
    cfg.name = "hpc-a";
    cfg.num_nodes = 8;
    cfg.node.cores = 8;
    cluster_ = std::make_shared<infra::BatchCluster>(engine_, cfg);
    session_.register_resource("slurm://hpc-a", cluster_);
    runtime_ = std::make_unique<rt::SimRuntime>(engine_, session_);
    PilotComputeService::Options options;
    options.scheduler_policy = policy;
    options.shards = shards;
    service_ = std::make_unique<PilotComputeService>(*runtime_, options);
  }

  PilotDescription pilot_desc(int nodes = 2) {
    PilotDescription d;
    d.resource_url = "slurm://hpc-a";
    d.nodes = nodes;
    d.walltime = 3600.0;
    return d;
  }

  ComputeUnitDescription unit_desc(double duration = 10.0) {
    ComputeUnitDescription d;
    d.duration = duration;
    d.cores = 1;
    return d;
  }

  /// One pilot, `shards` shards: every unit runs on the pilot's shard,
  /// each exactly once (without the hand-over, the units on the other
  /// shards stay PENDING forever).
  void run_one_pilot(int shards) {
    make_service(shards, "fifo");
    constexpr int kUnits = 48;
    TerminalLedger ledger(kUnits);
    ledger.attach(*service_);
    Pilot pilot = service_->submit_pilot(pilot_desc(1));
    pilot.wait_active();
    std::vector<ComputeUnit> units;
    for (int i = 0; i < kUnits; ++i) {
      units.push_back(service_->submit_unit(unit_desc(10.0)));
    }
    service_->wait_all_units();
    const int home = service_->shard_of(pilot.id());
    for (const auto& u : units) {
      EXPECT_EQ(u.state(), UnitState::kDone) << u.id();
      EXPECT_EQ(service_->shard_of(u.id()), home) << u.id();
    }
    EXPECT_EQ(service_->metrics().units_done,
              static_cast<std::size_t>(kUnits));
    EXPECT_EQ(service_->unfinished_units(), 0u);
    EXPECT_EQ(service_->total_units(), static_cast<std::size_t>(kUnits));
    ledger.expect_exactly_once();
  }

  sim::Engine engine_;
  saga::Session session_;
  std::shared_ptr<infra::BatchCluster> cluster_;
  std::unique_ptr<rt::SimRuntime> runtime_;
  std::unique_ptr<PilotComputeService> service_;
};

TEST_F(ShardedSimTest, WorkloadCompletesAcrossShards) {
  make_service(4);
  EXPECT_EQ(service_->shards(), 4);
  std::vector<Pilot> pilots;
  for (int i = 0; i < 4; ++i) {
    pilots.push_back(service_->submit_pilot(pilot_desc(2)));
  }
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 64; ++i) {
    units.push_back(service_->submit_unit(unit_desc()));
  }
  // Ids round-robin across all four shards.
  std::set<int> shards_used;
  for (const auto& u : units) {
    shards_used.insert(service_->shard_of(u.id()));
  }
  EXPECT_EQ(shards_used.size(), 4u);
  service_->wait_all_units();
  for (const auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);  // read resolves on any shard
  }
  EXPECT_EQ(service_->metrics().units_done, 64u);
  EXPECT_EQ(service_->unfinished_units(), 0u);
  EXPECT_EQ(service_->total_units(), 64u);
}

TEST_F(ShardedSimTest, UnknownIdsThrowAcrossShards) {
  make_service(3);
  EXPECT_THROW(service_->pilot_state("pilot-99"), NotFound);
  EXPECT_THROW(service_->unit_state("unit-99"), NotFound);
  EXPECT_THROW(service_->cancel_unit("unit-99"), NotFound);
}

TEST_F(ShardedSimTest, ShardedServiceRejectsSingleJournalAttach) {
  make_service(2);
  journal::Journal journal(::testing::TempDir() + "/wal_reject");
  journal::ServiceJournal sink(journal);
  EXPECT_THROW(service_->attach_journal(&sink), InvalidArgument);
}

TEST_F(ShardedSimTest, OnePilotTwoShardsFinishesEveryUnitOnce) {
  run_one_pilot(2);
}

TEST_F(ShardedSimTest, OnePilotFourShardsFinishesEveryUnitOnce) {
  run_one_pilot(4);
}

TEST_F(ShardedSimTest, UnitsQueuedBeforeThePilotIsActiveHandOver) {
  // Capacity appears after the units queued: the pilot's shard asks the
  // other shard for work when the pilot goes ACTIVE.
  make_service(2, "fifo");
  TerminalLedger ledger(4);
  ledger.attach(*service_);
  Pilot pilot = service_->submit_pilot(pilot_desc(1));  // pilot-0 -> shard 0
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 4; ++i) {
    units.push_back(service_->submit_unit(unit_desc(10.0)));
  }
  EXPECT_EQ(pilot.state(), PilotState::kSubmitted);
  EXPECT_EQ(service_->unfinished_units(), 4u);
  service_->wait_all_units();
  for (const auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
    EXPECT_EQ(service_->shard_of(u.id()), 0) << u.id();
  }
  // All four started together when the pilot came up.
  EXPECT_DOUBLE_EQ(units[1].times().started, units[0].times().started);
  ledger.expect_exactly_once();
}

TEST_F(ShardedSimTest, LastPilotCanceledMidBurstHandsRequeuedUnitsOver) {
  make_service(2, "fifo");
  TerminalLedger ledger(32);
  ledger.attach(*service_);
  service_->submit_pilot(pilot_desc(1));                // pilot-0 -> shard 0
  Pilot doomed = service_->submit_pilot(pilot_desc(1));  // pilot-1 -> shard 1
  doomed.wait_active();
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 32; ++i) {
    units.push_back(service_->submit_unit(unit_desc(10.0)));
  }
  engine_.run_until(engine_.now() + 5.0);  // first wave running everywhere
  doomed.cancel();  // shard 1 keeps its units but loses its only pilot
  service_->wait_all_units();
  for (const auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone) << u.id();
    EXPECT_EQ(service_->shard_of(u.id()), 0) << u.id();
  }
  EXPECT_EQ(service_->metrics().units_done, 32u);
  EXPECT_EQ(service_->metrics().requeues, 8u);  // pilot-1's first wave
  ledger.expect_exactly_once();
}

TEST_F(ShardedSimTest, HandedOverUnitsKeepTheirRequeueBudget) {
  make_service(2, "fifo");
  service_->set_max_unit_requeues(1);
  TerminalLedger ledger(16);
  ledger.attach(*service_);
  Pilot first = service_->submit_pilot(pilot_desc(1));   // pilot-0 -> shard 0
  Pilot doomed = service_->submit_pilot(pilot_desc(1));  // pilot-1 -> shard 1
  doomed.wait_active();
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 16; ++i) {
    units.push_back(service_->submit_unit(unit_desc(100.0)));
  }
  engine_.run_until(engine_.now() + 10.0);
  // Shard 1's eight running units requeue (one requeue each, the whole
  // budget) and wait: shard 0's only pilot is busy.
  doomed.cancel();
  EXPECT_EQ(service_->metrics().requeues, 8u);
  // pilot-2 lands on shard 0; when it comes up, shard 0 takes the eight.
  Pilot second = service_->submit_pilot(pilot_desc(1));
  second.wait_active();
  engine_.run_until(engine_.now() + 10.0);
  for (int i = 1; i < 16; i += 2) {
    EXPECT_EQ(service_->shard_of(units[static_cast<std::size_t>(i)].id()), 0);
    EXPECT_EQ(units[static_cast<std::size_t>(i)].state(), UnitState::kRunning);
  }
  // Their budget crossed shards with them: a second requeue is refused.
  second.cancel();
  service_->wait_all_units();
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].state(),
              i % 2 == 0 ? UnitState::kDone : UnitState::kFailed)
        << units[i].id();
  }
  EXPECT_EQ(service_->metrics().units_failed, 8u);
  EXPECT_EQ(service_->metrics().requeues, 8u);
  ledger.expect_exactly_once();
  first.cancel();
}

TEST_F(ShardedSimTest, CancelAfterMoveReachesNewOwner) {
  // The unit moves by hand-over; the cancel follows the owner table.
  make_service(2);
  Pilot pilot = service_->submit_pilot(pilot_desc(1));  // pilot-0 -> shard 0
  pilot.wait_active();
  ComputeUnit home = service_->submit_unit(unit_desc(100.0));  // shard 0
  ComputeUnit away = service_->submit_unit(unit_desc(100.0));  // shard 1
  engine_.run_until(engine_.now() + 5.0);
  EXPECT_EQ(service_->shard_of(away.id()), 0);  // handed over
  EXPECT_EQ(away.state(), UnitState::kRunning);
  away.cancel();  // routes through the router's owner table
  EXPECT_EQ(away.wait(), UnitState::kCanceled);
  EXPECT_EQ(home.wait(), UnitState::kDone);
  EXPECT_THROW(service_->cancel_unit("unit-99"), NotFound);
}

TEST(ShardedSimDeterminism, HandOverRunsRepeatBitForBit) {
  const auto run = []() {
    sim::Engine engine;
    saga::Session session;
    infra::BatchClusterConfig cfg;
    cfg.name = "hpc-a";
    cfg.num_nodes = 4;
    cfg.node.cores = 4;
    auto cluster = std::make_shared<infra::BatchCluster>(engine, cfg);
    session.register_resource("slurm://hpc-a", cluster);
    rt::SimRuntime runtime(engine, session);
    PilotComputeService::Options options;
    options.scheduler_policy = "backfill";
    options.shards = 4;
    PilotComputeService service(runtime, options);
    PilotDescription pd;
    pd.resource_url = "slurm://hpc-a";
    pd.nodes = 1;
    pd.walltime = 3600.0;
    service.submit_pilot(pd);
    std::vector<ComputeUnit> units;
    for (int i = 0; i < 40; ++i) {
      ComputeUnitDescription d;
      d.cores = 1 + i % 3;
      d.duration = 5.0 + static_cast<double>(i % 7);
      units.push_back(service.submit_unit(d));
    }
    service.wait_all_units();
    std::vector<UnitTimes> times;
    for (const auto& u : units) {
      EXPECT_EQ(u.state(), UnitState::kDone);
      EXPECT_EQ(service.shard_of(u.id()), 0);
      times.push_back(u.times());
    }
    return times;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submitted, b[i].submitted) << "unit-" << i;
    EXPECT_EQ(a[i].scheduled, b[i].scheduled) << "unit-" << i;
    EXPECT_EQ(a[i].started, b[i].started) << "unit-" << i;
    EXPECT_EQ(a[i].finished, b[i].finished) << "unit-" << i;
  }
}

TEST_F(ShardedSimTest, SingleShardMatchesClassicBehavior) {
  make_service(1);
  Pilot pilot = service_->submit_pilot(pilot_desc());
  ComputeUnit unit = service_->submit_unit(unit_desc(10.0));
  EXPECT_EQ(unit.wait(), UnitState::kDone);
  const auto metrics = service_->metrics();
  EXPECT_EQ(metrics.units_done, 1u);
  EXPECT_NEAR(metrics.pilot_startup_times.max(), 2.0, 1e-9);
  pilot.wait_active();
}

/// Real threads: producers, shard apply threads, and LocalRuntime pool
/// workers all running — the TSan target for the hand-over.
class ShardedLocalTest : public ::testing::Test {
 protected:
  void SetUp() override { make_service(4); }

  void make_service(int shards) {
    service_.reset();
    runtime_ = std::make_unique<rt::LocalRuntime>();
    PilotComputeService::Options options;
    options.scheduler_policy = "fifo";
    options.shards = shards;
    service_ = std::make_unique<PilotComputeService>(*runtime_, options);
  }

  /// One pilot, a burst over every shard: the pilot's shard takes the
  /// other shards' units while completions race in.
  void run_one_pilot_burst(int shards) {
    make_service(shards);
    constexpr int kUnits = 400;
    TerminalLedger ledger(kUnits);
    ledger.attach(*service_);
    Pilot pilot = service_->submit_pilot(pilot_desc(4));
    std::atomic<int> executed{0};
    std::vector<ComputeUnitDescription> batch(kUnits);
    for (auto& d : batch) {
      d.work = [&executed]() { executed.fetch_add(1); };
    }
    const auto units = service_->submit_units(batch);
    service_->wait_all_units(60.0);
    EXPECT_EQ(executed.load(), kUnits);
    EXPECT_EQ(service_->metrics().units_done,
              static_cast<std::size_t>(kUnits));
    EXPECT_EQ(service_->unfinished_units(), 0u);
    const int home = service_->shard_of(pilot.id());
    for (const auto& u : units) {
      EXPECT_EQ(service_->shard_of(u.id()), home) << u.id();
    }
    ledger.expect_exactly_once();
  }

  PilotDescription pilot_desc(int cores = 4) {
    PilotDescription d;
    d.resource_url = "local://host";
    d.nodes = cores;
    d.walltime = 1e9;
    return d;
  }

  // Sinks outlive the service: shard apply threads and the control
  // planes keep instrument pointers into the registry until teardown.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<rt::LocalRuntime> runtime_;
  std::unique_ptr<PilotComputeService> service_;
};

TEST_F(ShardedLocalTest, BurstAcrossShardsAllExecuteExactlyOnce) {
  // One pilot per shard: units land on their home shard's queue and bind
  // to the pilot that lives there.
  for (int i = 0; i < 4; ++i) {
    service_->submit_pilot(pilot_desc(2));
  }
  std::atomic<int> executed{0};
  std::vector<ComputeUnitDescription> batch(200);
  for (auto& d : batch) {
    d.work = [&executed]() { executed.fetch_add(1); };
  }
  service_->submit_units(batch);
  service_->wait_all_units(60.0);
  EXPECT_EQ(executed.load(), 200);
  EXPECT_EQ(service_->metrics().units_done, 200u);
}

TEST_F(ShardedLocalTest, MetricsReaderRacesApplyThreads) {
  // metrics() merges each shard's fixed-size metrics under its snapshot
  // mutex while the apply threads record into them (the TSan target for
  // the read path). Each shard's done count and wait histogram move
  // together under that mutex, so every merged read agrees with itself.
  for (int i = 0; i < 4; ++i) {
    service_->submit_pilot(pilot_desc(2));
  }
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> torn{0};
  std::thread reader([&]() {
    std::size_t last_done = 0;
    while (!done.load()) {
      const ServiceMetrics m = service_->metrics();
      if (m.unit_wait_times.count() != m.units_done ||
          m.unit_exec_times.count() != m.units_done ||
          m.units_done < last_done) {
        torn.fetch_add(1);
      }
      last_done = m.units_done;
      reads.fetch_add(1);
    }
  });
  constexpr int kUnits = 2000;
  std::vector<ComputeUnitDescription> batch(kUnits);
  for (auto& d : batch) {
    d.work = []() {};
  }
  try {
    service_->submit_units(batch);
    service_->wait_all_units(120.0);
  } catch (...) {
    done.store(true);
    reader.join();
    throw;
  }
  done.store(true);
  reader.join();

  const ServiceMetrics m = service_->metrics();
  EXPECT_EQ(m.units_done, static_cast<std::size_t>(kUnits));
  EXPECT_EQ(m.unit_wait_times.count(), static_cast<std::uint64_t>(kUnits));
  EXPECT_EQ(m.unit_exec_times.count(), static_cast<std::uint64_t>(kUnits));
  EXPECT_EQ(m.pilot_startup_times.count(), 4u);
  EXPECT_EQ(m.units_failed + m.units_canceled, 0u);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(torn.load(), 0);
}

TEST_F(ShardedLocalTest, OnePilotTwoShardsBurstKeepsExactlyOnceAccounting) {
  run_one_pilot_burst(2);
}

TEST_F(ShardedLocalTest, OnePilotFourShardsBurstKeepsExactlyOnceAccounting) {
  run_one_pilot_burst(4);
}

TEST_F(ShardedLocalTest, LastPilotCanceledMidBurstHandsRequeuedUnitsOver) {
  make_service(2);
  constexpr int kUnits = 400;
  TerminalLedger ledger(kUnits);
  ledger.attach(*service_);
  service_->submit_pilot(pilot_desc(2));                // pilot-0 -> shard 0
  Pilot doomed = service_->submit_pilot(pilot_desc(2));  // pilot-1 -> shard 1
  std::atomic<int> executed{0};
  std::vector<ComputeUnitDescription> batch(kUnits);
  for (auto& d : batch) {
    d.work = [&executed]() {
      executed.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
  }
  service_->submit_units(batch);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (executed.load() < kUnits / 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  doomed.cancel();  // mid-burst: shard 1's units requeue, then hand over
  service_->wait_all_units(60.0);
  // A canceled pilot's payloads are not interrupted, so a requeued unit
  // may execute twice; it still finishes exactly once.
  EXPECT_GE(executed.load(), kUnits);
  EXPECT_EQ(service_->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  EXPECT_EQ(service_->unfinished_units(), 0u);
  ledger.expect_exactly_once();
}

TEST_F(ShardedLocalTest, ObserversAndMetricsSurviveShutdownWithShards) {
  service_->attach_observability(nullptr, &metrics_);
  for (int i = 0; i < 4; ++i) {
    service_->submit_pilot(pilot_desc(2));
  }
  std::atomic<int> executed{0};
  std::vector<ComputeUnitDescription> batch(40);
  for (auto& d : batch) {
    d.work = [&executed]() { executed.fetch_add(1); };
  }
  service_->submit_units(batch);
  service_->wait_all_units(60.0);
  service_->shutdown();
  // Per-shard control-plane series materialized for every shard.
  int shard_series = 0;
  for (const auto& [name, value] : metrics_.counters()) {
    if (name.rfind("ctrl.s", 0) == 0 &&
        name.find(".commands") != std::string::npos) {
      ++shard_series;
      EXPECT_GT(value, 0u) << name;
    }
  }
  EXPECT_EQ(shard_series, 4);
}

}  // namespace
}  // namespace pa::core

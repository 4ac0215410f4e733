/// Sharded control plane: routing, cross-shard reads, pilot moves with
/// exactly-once unit accounting, and the move protocol under real
/// threads (the LocalRuntime tests here are part of the sanitizer smoke
/// set — TSan must see a clean mid-burst migration).

#include <gtest/gtest.h>

#include <atomic>
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
  EXPECT_EQ(router.pinned("pilot-1"), -1);
  router.pin("pilot-1", 3);
  EXPECT_EQ(router.pinned("pilot-1"), 3);
  EXPECT_EQ(router.shard_for_id("pilot-1"), 3);
  EXPECT_EQ(router.default_shard("pilot-1"), 1);  // default unchanged
  router.forget("pilot-1");
  EXPECT_EQ(router.shard_for_id("pilot-1"), 1);
}

TEST(ShardRouter, NonOrdinalIdsAndTenantsHashStably) {
  ShardRouter router(4);
  const int shard = router.shard_for_id("no-ordinal-here-x");
  EXPECT_GE(shard, 0);
  EXPECT_LT(shard, 4);
  EXPECT_EQ(router.shard_for_id("no-ordinal-here-x"), shard);
  const int tenant_shard = router.shard_for_tenant("astro");
  EXPECT_EQ(router.shard_for_tenant("astro"), tenant_shard);
}

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

TEST_F(ShardedSimTest, MovePilotMigratesBoundUnits) {
  make_service(2, "fifo");
  Pilot pilot = service_->submit_pilot(pilot_desc(1));  // pilot-0 -> shard 0
  pilot.wait_active();
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 12; ++i) {
    units.push_back(service_->submit_unit(unit_desc(50.0)));
  }
  engine_.run_until(engine_.now() + 5.0);  // first wave running
  const int before = service_->shard_of(pilot.id());
  const int target = 1 - before;
  service_->move_pilot_to_shard(pilot.id(), target);
  EXPECT_EQ(service_->shard_of(pilot.id()), target);
  EXPECT_EQ(service_->pilot_state(pilot.id()), PilotState::kActive);
  // The whole workload still completes, each unit exactly once.
  service_->wait_all_units();
  std::size_t done = 0;
  for (const auto& u : units) {
    done += u.state() == UnitState::kDone ? 1 : 0;
  }
  EXPECT_EQ(done, units.size());
  EXPECT_EQ(service_->metrics().units_done, units.size());
}

TEST_F(ShardedSimTest, MoveToOwnShardAndFinalPilotAreNoops) {
  make_service(2);
  Pilot pilot = service_->submit_pilot(pilot_desc(1));
  pilot.wait_active();
  const int own = service_->shard_of(pilot.id());
  service_->move_pilot_to_shard(pilot.id(), own);
  EXPECT_EQ(service_->shard_of(pilot.id()), own);
  pilot.cancel();
  EXPECT_EQ(pilot.state(), PilotState::kCanceled);
  service_->move_pilot_to_shard(pilot.id(), 1 - own);  // final: ignored
  EXPECT_EQ(service_->pilot_state(pilot.id()), PilotState::kCanceled);
}

TEST_F(ShardedSimTest, MovedSubmittedPilotActivatesOnTargetShard) {
  make_service(2);
  Pilot pilot = service_->submit_pilot(pilot_desc(1));
  const int before = service_->shard_of(pilot.id());
  service_->move_pilot_to_shard(pilot.id(), 1 - before);
  pilot.wait_active();  // activation callback forwards to the new owner
  EXPECT_EQ(pilot.state(), PilotState::kActive);
  EXPECT_EQ(service_->shard_of(pilot.id()), 1 - before);
}

TEST_F(ShardedSimTest, CancelAfterMoveReachesNewOwner) {
  make_service(2);
  Pilot pilot = service_->submit_pilot(pilot_desc(1));
  pilot.wait_active();
  ComputeUnit unit = service_->submit_unit(unit_desc(100.0));
  engine_.run_until(engine_.now() + 5.0);
  service_->move_pilot_to_shard(pilot.id(), 1 - service_->shard_of(pilot.id()));
  unit.cancel();  // routes through the router override
  EXPECT_EQ(unit.wait(), UnitState::kCanceled);
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
/// workers all running — the TSan target for the move protocol.
class ShardedLocalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<rt::LocalRuntime>();
    PilotComputeService::Options options;
    options.scheduler_policy = "fifo";
    options.shards = 4;
    service_ = std::make_unique<PilotComputeService>(*runtime_, options);
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

TEST_F(ShardedLocalTest, MovePilotMidBurstKeepsExactlyOnceAccounting) {
  // The migrating pilot, plus one stationary pilot per other shard so no
  // home queue starves while pilot-0 hops around the ring.
  Pilot pilot = service_->submit_pilot(pilot_desc(4));
  for (int i = 1; i < 4; ++i) {
    service_->submit_pilot(pilot_desc(2));
  }
  pilot.wait_active(10.0);

  // Terminal-transition ledger: the observer fires on apply threads of
  // whichever shard owns the unit at the time; each unit may reach a
  // final state at most once even while its pilot migrates.
  constexpr int kUnits = 160;
  std::vector<std::atomic<int>> terminal_counts(kUnits);
  for (auto& c : terminal_counts) {
    c.store(0);
  }
  std::atomic<int> executed{0};
  service_->observe_units(
      [&terminal_counts](const std::string& unit_id, UnitState /*from*/,
                         UnitState to) {
        if (!is_final(to)) {
          return;
        }
        const auto dash = unit_id.rfind('-');
        const int ordinal = std::stoi(unit_id.substr(dash + 1));
        terminal_counts[static_cast<std::size_t>(ordinal)].fetch_add(1);
      });

  std::vector<ComputeUnitDescription> batch(kUnits);
  for (auto& d : batch) {
    d.work = [&executed]() { executed.fetch_add(1); };
  }
  service_->submit_units(batch);

  // Migrate the pilot around the ring while completions race in.
  for (int hop = 0; hop < 8; ++hop) {
    service_->move_pilot_to_shard(pilot.id(), (hop + 1) % 4);
  }
  service_->wait_all_units(120.0);

  EXPECT_EQ(executed.load(), kUnits);
  EXPECT_EQ(service_->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(terminal_counts[static_cast<std::size_t>(i)].load(), 1)
        << "unit-" << i;
  }
  EXPECT_EQ(service_->unfinished_units(), 0u);
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

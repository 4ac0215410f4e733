/// Recovery across per-shard journal streams: directory discovery, the
/// terminal-wins / latest-attempt-wins merge, a full round trip whose
/// units are handed between shards mid-run, and crash-injection kills
/// truncating every stream at independent random offsets with an
/// exactly-once ledger across both lives.

#include "pa/journal/sharded_recovery.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pa/common/rng.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/infra/batch_cluster.h"
#include "pa/journal/journal.h"
#include "pa/journal/reader.h"
#include "pa/journal/recovery.h"
#include "pa/journal/service_journal.h"
#include "pa/rt/sim_runtime.h"
#include "pa/saga/session.h"

#include "journal_test_util.h"

namespace pa::journal {
namespace {

using testing::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Merge rules on hand-built images.
// ---------------------------------------------------------------------------

Record rec(RecordType type, const std::string& entity,
           std::map<std::string, std::string> fields) {
  Record r;
  r.type = type;
  r.entity = entity;
  r.fields = std::move(fields);
  return r;
}

void submit_unit(ManagerImage& img, const std::string& id, double duration) {
  img.apply(rec(RecordType::kUnitSubmit, id,
                {{"cores", "1"}, {"duration", format_double(duration)}}));
}

void unit_state(ManagerImage& img, const std::string& id,
                core::UnitState to) {
  img.apply(rec(RecordType::kUnitState, id, {{"state", core::to_string(to)}}));
}

void submit_pilot(ManagerImage& img, const std::string& id) {
  img.apply(rec(RecordType::kPilotSubmit, id,
                {{"resource_url", "slurm://hpc-a"},
                 {"nodes", "1"},
                 {"walltime", "3600"},
                 {"priority", "0"},
                 {"cost_per_core_hour", "0"},
                 {"restarts_used", "0"}}));
}

TEST(ShardedRecoveryMerge, TerminalInAnyStreamWins) {
  // Victim stream: the unit's records stop mid-flight (at kRunning).
  ManagerImage source;
  submit_unit(source, "unit-1", 30.0);
  unit_state(source, "unit-1", core::UnitState::kPending);
  unit_state(source, "unit-1", core::UnitState::kScheduled);
  unit_state(source, "unit-1", core::UnitState::kRunning);
  // Thief stream: the adoption chain ran it to completion.
  ManagerImage target;
  submit_unit(target, "unit-1", 30.0);
  unit_state(target, "unit-1", core::UnitState::kPending);
  unit_state(target, "unit-1", core::UnitState::kScheduled);
  unit_state(target, "unit-1", core::UnitState::kRunning);
  unit_state(target, "unit-1", core::UnitState::kDone);

  for (const auto& images :
       {std::vector<const ManagerImage*>{&source, &target},
        std::vector<const ManagerImage*>{&target, &source}}) {
    const ResumePlan plan = merge_resume_plans(images);
    ASSERT_EQ(plan.completed_units.size(), 1u);
    EXPECT_EQ(plan.completed_units[0], "unit-1");
    EXPECT_TRUE(plan.units.empty());  // never re-run acknowledged work
    EXPECT_EQ(plan.in_flight_requeued, 0u);
  }
}

TEST(ShardedRecoveryMerge, MostAttemptsHoldsTheFreshestDescription) {
  // Stream A journaled a requeue (attempts = 1); its description wins
  // regardless of merge order.
  ManagerImage a;
  submit_unit(a, "unit-2", 5.0);
  unit_state(a, "unit-2", core::UnitState::kPending);
  a.apply(rec(RecordType::kUnitRequeue, "unit-2", {}));
  ManagerImage b;
  submit_unit(b, "unit-2", 9.0);
  unit_state(b, "unit-2", core::UnitState::kPending);

  for (const auto& images : {std::vector<const ManagerImage*>{&a, &b},
                             std::vector<const ManagerImage*>{&b, &a}}) {
    const ResumePlan plan = merge_resume_plans(images);
    ASSERT_EQ(plan.units.size(), 1u);
    EXPECT_EQ(plan.units[0].first, "unit-2");
    EXPECT_DOUBLE_EQ(plan.units[0].second.duration, 5.0);
  }

  // Equal attempts: the later stream wins.
  ManagerImage c;
  submit_unit(c, "unit-2", 7.0);
  unit_state(c, "unit-2", core::UnitState::kPending);
  const ResumePlan plan = merge_resume_plans({&b, &c});
  ASSERT_EQ(plan.units.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.units[0].second.duration, 7.0);
}

TEST(ShardedRecoveryMerge, OrdinalsAdvancePastEveryStream) {
  ManagerImage a;
  submit_pilot(a, "pilot-3");
  submit_unit(a, "unit-7", 1.0);
  ManagerImage b;
  submit_unit(b, "unit-9", 1.0);
  const ResumePlan plan = merge_resume_plans({&a, &b});
  EXPECT_EQ(plan.next_pilot_ordinal, 4u);
  EXPECT_EQ(plan.next_unit_ordinal, 10u);
  // pilot-3 is non-terminal in its only stream: resubmitted once.
  EXPECT_EQ(plan.pilots.size(), 1u);
}

TEST(ShardedRecoveryMerge, PilotSeenByBothStreamsResubmitsOnce) {
  ManagerImage source;
  submit_pilot(source, "pilot-0");
  ManagerImage target;
  submit_pilot(target, "pilot-0");  // e.g. a stream merged twice
  const ResumePlan plan = merge_resume_plans({&source, &target});
  EXPECT_EQ(plan.pilots.size(), 1u);
}

// ---------------------------------------------------------------------------
// Live sharded world: layout, round trip, crash injection.
// ---------------------------------------------------------------------------

struct ShardedSimWorld {
  static constexpr int kShards = 2;

  sim::Engine engine;
  saga::Session session;
  std::shared_ptr<infra::BatchCluster> cluster;
  std::unique_ptr<rt::SimRuntime> runtime;
  std::unique_ptr<core::PilotComputeService> service;

  ShardedSimWorld() {
    infra::BatchClusterConfig cfg;
    cfg.name = "hpc-a";
    cfg.num_nodes = 4;
    cfg.node.cores = 8;
    cluster = std::make_shared<infra::BatchCluster>(engine, cfg);
    session.register_resource("slurm://hpc-a", cluster);
    runtime = std::make_unique<rt::SimRuntime>(engine, session);
    core::PilotComputeService::Options options;
    options.scheduler_policy = "backfill";
    options.shards = kShards;
    service = std::make_unique<core::PilotComputeService>(*runtime, options);
  }

  core::PilotDescription pilot_desc(int nodes = 1) {
    core::PilotDescription d;
    d.resource_url = "slurm://hpc-a";
    d.nodes = nodes;
    d.walltime = 3600.0;
    return d;
  }
};

/// Journals an eventful sharded run — one pilot per shard, shard 1's pilot
/// canceled mid-flight so its requeued units are handed to shard 0 — and
/// returns each closed wal's bytes.
std::vector<std::string> record_sharded_reference_run(
    const std::string& base) {
  ShardedSimWorld w;
  std::vector<std::unique_ptr<Journal>> journals;
  std::vector<std::unique_ptr<ServiceJournal>> sinks;
  std::vector<core::JournalSink*> sink_ptrs;
  for (int k = 0; k < ShardedSimWorld::kShards; ++k) {
    journals.push_back(std::make_unique<Journal>(shard_journal_dir(base, k)));
    sinks.push_back(std::make_unique<ServiceJournal>(*journals.back()));
    sink_ptrs.push_back(sinks.back().get());
  }
  w.service->attach_journal_shards(sink_ptrs);

  w.service->submit_pilot(w.pilot_desc(1));            // pilot-0 -> shard 0
  auto p1 = w.service->submit_pilot(w.pilot_desc(1));  // pilot-1 -> shard 1
  for (int i = 0; i < 12; ++i) {
    core::ComputeUnitDescription d;
    d.cores = 1;
    d.duration = 30.0;
    w.service->submit_unit(d);
  }
  p1.wait_active();
  w.engine.run_until(20.0);  // everything bound and running
  p1.cancel();  // shard 1's six units requeue; shard 0 takes them over
  w.engine.run_until(25.0);
  w.service->wait_all_units();
  w.service->attach_journal_shards(
      std::vector<core::JournalSink*>(ShardedSimWorld::kShards, nullptr));
  std::vector<std::string> wals;
  for (int k = 0; k < ShardedSimWorld::kShards; ++k) {
    journals[static_cast<std::size_t>(k)]->flush();
    journals[static_cast<std::size_t>(k)]->close();
    wals.push_back(slurp(Journal::wal_path(shard_journal_dir(base, k))));
  }
  return wals;
}

TEST(ShardedRecovery, DirLayoutAndDiscovery) {
  TempDir base;
  EXPECT_EQ(shard_journal_dir("/j", 3), "/j/wal.3");
  EXPECT_EQ(discover_shard_count(base.path()), 0);
  std::filesystem::create_directories(shard_journal_dir(base.path(), 0));
  std::filesystem::create_directories(shard_journal_dir(base.path(), 1));
  EXPECT_EQ(discover_shard_count(base.path()), 2);
  // A gap ends the count: wal.3 without wal.2 is not discovered.
  std::filesystem::create_directories(shard_journal_dir(base.path(), 3));
  EXPECT_EQ(discover_shard_count(base.path()), 2);

  const ShardedRecoveryResult empty = recover_sharded(base.path(), 0);
  EXPECT_TRUE(empty.shards.empty());
  EXPECT_TRUE(empty.plan.units.empty());
  EXPECT_TRUE(empty.plan.pilots.empty());
}

TEST(ShardedRecovery, RoundTripWithMidRunMoveCompletesEverything) {
  // Units move between shards by hand-over (record_sharded_reference_run).
  TempDir base;
  const auto wals = record_sharded_reference_run(base.path());
  for (const auto& wal : wals) {
    ASSERT_GT(wal.size(), 0u);
  }

  const ShardedRecoveryResult result = recover_sharded(base.path());
  ASSERT_EQ(result.shards.size(), 2u);
  for (const auto& shard : result.shards) {
    EXPECT_FALSE(shard.torn_tail);
    for (const auto& [unit_id, unit] : shard.image.units()) {
      EXPECT_LE(unit.terminal_count, 1) << unit_id;
    }
  }
  // The handed-over units appear in both streams: shard 1's records stop
  // at the requeue, shard 0's adoption chain finishes the run.
  EXPECT_EQ(result.shards[0].image.units().size(), 12u)
      << "no adopted units in the thief's stream";
  EXPECT_EQ(result.shards[1].image.units().size(), 6u);
  for (const auto& [unit_id, unit] : result.shards[1].image.units()) {
    EXPECT_EQ(unit.state, core::UnitState::kPending) << unit_id;
  }

  EXPECT_EQ(result.plan.completed_units.size(), 12u);
  EXPECT_TRUE(result.plan.units.empty());
  // pilot-0 stayed active to the end; pilot-1 was canceled.
  EXPECT_EQ(result.plan.pilots.size(), 1u);
  EXPECT_EQ(result.plan.next_unit_ordinal, 12u);
  EXPECT_EQ(result.plan.next_pilot_ordinal, 2u);
}

TEST(ShardedRecovery, UnitHandedBackResumesItsOwnRecord) {
  // unit-1 and unit-3 start on shard 1, run on shard 0's pilot, requeue
  // when it is canceled and return to shard 1, whose stream already
  // holds them: the return must not journal a second submission.
  TempDir base;
  {
    ShardedSimWorld w;
    std::vector<std::unique_ptr<Journal>> journals;
    std::vector<std::unique_ptr<ServiceJournal>> sinks;
    std::vector<core::JournalSink*> sink_ptrs;
    for (int k = 0; k < ShardedSimWorld::kShards; ++k) {
      journals.push_back(
          std::make_unique<Journal>(shard_journal_dir(base.path(), k)));
      sinks.push_back(std::make_unique<ServiceJournal>(*journals.back()));
      sink_ptrs.push_back(sinks.back().get());
    }
    w.service->attach_journal_shards(sink_ptrs);
    auto p0 = w.service->submit_pilot(w.pilot_desc(1));  // pilot-0 -> shard 0
    p0.wait_active();
    std::vector<core::ComputeUnit> units;
    for (int i = 0; i < 4; ++i) {
      core::ComputeUnitDescription d;
      d.cores = 1;
      d.duration = 100.0;
      units.push_back(w.service->submit_unit(d));
    }
    EXPECT_EQ(w.service->shard_of("unit-1"), 0);
    auto p1 = w.service->submit_pilot(w.pilot_desc(1));  // pilot-1 -> shard 1
    p1.wait_active();
    p0.cancel();
    w.service->wait_all_units();
    for (const auto& u : units) {
      EXPECT_EQ(u.state(), core::UnitState::kDone) << u.id();
      EXPECT_EQ(w.service->shard_of(u.id()), 1) << u.id();
    }
    w.service->attach_journal_shards(
        std::vector<core::JournalSink*>(ShardedSimWorld::kShards, nullptr));
    for (auto& j : journals) {
      j->flush();
      j->close();
    }
  }
  const ShardedRecoveryResult result = recover_sharded(base.path());
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_EQ(result.shards[1].image.units().size(), 4u);
  for (const auto& [unit_id, unit] : result.shards[1].image.units()) {
    EXPECT_EQ(unit.state, core::UnitState::kDone) << unit_id;
    EXPECT_EQ(unit.terminal_count, 1) << unit_id;
  }
  EXPECT_EQ(result.plan.completed_units.size(), 4u);
  EXPECT_TRUE(result.plan.units.empty());
}

/// One kill point: install independent wal prefixes as the crashed
/// per-shard streams, recover + merge, resume on a fresh sharded world
/// and verify the exactly-once ledger across both lives.
void run_sharded_kill_point(const std::string& wal0, const std::string& wal1,
                            std::uint64_t off0, std::uint64_t off1) {
  TempDir crash;
  const std::string dir0 = shard_journal_dir(crash.path(), 0);
  const std::string dir1 = shard_journal_dir(crash.path(), 1);
  std::filesystem::create_directories(dir0);
  std::filesystem::create_directories(dir1);
  spit(Journal::wal_path(dir0), wal0.substr(0, off0));
  spit(Journal::wal_path(dir1), wal1.substr(0, off1));

  const ShardedRecoveryResult result = recover_sharded(crash.path());
  std::set<std::string> all_units;
  for (const auto& shard : result.shards) {
    for (const auto& [unit_id, unit] : shard.image.units()) {
      EXPECT_LE(unit.terminal_count, 1)
          << unit_id << " double-completed (offsets " << off0 << "/" << off1
          << ")";
      all_units.insert(unit_id);
    }
  }
  const ResumePlan& plan = result.plan;
  std::set<std::string> completed(plan.completed_units.begin(),
                                  plan.completed_units.end());
  EXPECT_EQ(completed.size() + plan.units.size(), all_units.size())
      << "units lost in the merge (offsets " << off0 << "/" << off1 << ")";

  // Second life on a fresh sharded service.
  ShardedSimWorld w2;
  const auto resumed = resume(*w2.service, plan);
  EXPECT_EQ(resumed.size(), plan.units.size());
  for (const auto& [journaled_id, unit] : resumed) {
    EXPECT_EQ(completed.count(journaled_id), 0u)
        << journaled_id << " re-ran despite a surviving terminal record";
  }
  if (!plan.units.empty()) {
    // The truncated plan may resubmit no pilot at all; one pilot serves
    // the units of every shard (they are handed to its shard).
    w2.service->submit_pilot(w2.pilot_desc());
    w2.service->wait_all_units();
  }
  std::size_t terminal_total = completed.size();
  for (const auto& [journaled_id, unit] : resumed) {
    EXPECT_EQ(unit.state(), core::UnitState::kDone)
        << journaled_id << " (offsets " << off0 << "/" << off1 << ")";
    terminal_total += core::is_final(unit.state()) ? 1 : 0;
  }
  EXPECT_EQ(terminal_total, all_units.size())
      << "offsets " << off0 << "/" << off1;
}

TEST(ShardedRecovery, CrashKillPointsAcrossStreamsPreserveExactlyOnce) {
  TempDir reference;
  const auto wals = record_sharded_reference_run(reference.path());
  ASSERT_EQ(wals.size(), 2u);
  for (int k = 0; k < 2; ++k) {
    const ReadResult full = read_journal(
        Journal::wal_path(shard_journal_dir(reference.path(), k)));
    ASSERT_FALSE(full.torn);
    ASSERT_GT(full.records.size(), 10u) << "stream " << k << " too quiet";
  }

  pa::Rng rng(20260809);
  for (int k = 0; k < 16; ++k) {
    const auto off0 = static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(wals[0].size())));
    const auto off1 = static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(wals[1].size())));
    run_sharded_kill_point(wals[0], wals[1], off0, off1);
  }
}

}  // namespace
}  // namespace pa::journal

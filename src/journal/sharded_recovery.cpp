#include "pa/journal/sharded_recovery.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <utility>

#include "pa/common/log.h"

namespace pa::journal {

namespace {

/// Parses the trailing "-N" ordinal of an id ("unit-17" -> 17); returns
/// false for ids that do not follow the generator's naming scheme.
bool id_ordinal(const std::string& id, std::uint64_t* out) {
  const auto dash = id.rfind('-');
  if (dash == std::string::npos || dash + 1 >= id.size()) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = dash + 1; i < id.size(); ++i) {
    const char c = id[i];
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::string shard_journal_dir(const std::string& base, int shard) {
  return base + "/wal." + std::to_string(shard);
}

int discover_shard_count(const std::string& base) {
  int count = 0;
  while (std::filesystem::is_directory(shard_journal_dir(base, count))) {
    ++count;
  }
  return count;
}

ResumePlan merge_resume_plans(const std::vector<const ManagerImage*>& images) {
  // Fold every stream's view of each entity, then derive the plan from
  // the merged views with the same rules make_resume_plan uses on one.
  struct PilotMerge {
    const PilotImage* best = nullptr;
    bool terminal = false;
  };
  struct UnitMerge {
    const UnitImage* best = nullptr;
    bool terminal = false;
    bool in_flight = false;
  };
  std::map<std::string, PilotMerge> pilots;
  std::map<std::string, UnitMerge> units;
  ResumePlan plan;

  for (const ManagerImage* image : images) {
    for (const auto& [pilot_id, pilot] : image->pilots()) {
      std::uint64_t ordinal = 0;
      if (id_ordinal(pilot_id, &ordinal)) {
        plan.next_pilot_ordinal =
            std::max(plan.next_pilot_ordinal, ordinal + 1);
      }
      PilotMerge& m = pilots[pilot_id];
      if (core::is_final(pilot.state)) {
        m.terminal = true;  // terminal-wins across streams
      }
      // The stream that journaled the most restarts saw the pilot last
      // (a move re-journals the lineage's restart count on the target).
      if (m.best == nullptr ||
          pilot.restarts_used > m.best->restarts_used) {
        m.best = &pilot;
      }
    }
    for (const auto& [unit_id, unit] : image->units()) {
      std::uint64_t ordinal = 0;
      if (id_ordinal(unit_id, &ordinal)) {
        plan.next_unit_ordinal = std::max(plan.next_unit_ordinal, ordinal + 1);
      }
      UnitMerge& m = units[unit_id];
      if (core::is_final(unit.state)) {
        m.terminal = true;
      }
      if (unit.state == core::UnitState::kScheduled ||
          unit.state == core::UnitState::kStagingIn ||
          unit.state == core::UnitState::kRunning) {
        m.in_flight = true;
      }
      // Latest-attempt-wins: the adoption chain on a move target carries
      // the unit's accumulated attempts, so >= prefers the later stream.
      if (m.best == nullptr || unit.attempts >= m.best->attempts) {
        m.best = &unit;
      }
    }
  }

  for (const auto& [pilot_id, m] : pilots) {
    if (!m.terminal) {
      plan.pilots.push_back(m.best->description());
    }
  }
  for (const auto& [unit_id, m] : units) {
    if (m.terminal) {
      plan.completed_units.push_back(unit_id);
      continue;
    }
    if (m.in_flight) {
      ++plan.in_flight_requeued;
    }
    plan.units.emplace_back(unit_id, m.best->description());
  }
  return plan;
}

ShardedRecoveryResult recover_sharded(const std::string& base, int shard_count,
                                      RecoveryOptions options,
                                      obs::MetricsRegistry* metrics) {
  if (shard_count < 0) {
    shard_count = discover_shard_count(base);
  }
  ShardedRecoveryResult result;
  result.shards.reserve(static_cast<std::size_t>(shard_count));
  for (int shard = 0; shard < shard_count; ++shard) {
    RecoveryCoordinator coordinator(shard_journal_dir(base, shard), options);
    if (metrics != nullptr) {
      coordinator.set_metrics(metrics);
    }
    result.shards.push_back(coordinator.recover());
  }
  // Merge over the images the shard results already hold: each image
  // exists once.
  std::vector<const ManagerImage*> images;
  images.reserve(result.shards.size());
  for (const RecoveryResult& shard : result.shards) {
    images.push_back(&shard.image);
  }
  result.plan = merge_resume_plans(images);
  PA_LOG(kInfo, "journal")
      << "sharded recovery: " << shard_count << " streams, "
      << result.plan.pilots.size() << " pilots and "
      << result.plan.units.size() << " units to resume, "
      << result.plan.completed_units.size() << " already completed";
  return result;
}

}  // namespace pa::journal

#include "pa/journal/recovery.h"

#include <algorithm>
#include <chrono>

#include "pa/common/error.h"
#include "pa/common/log.h"
#include "pa/journal/journal.h"
#include "pa/journal/reader.h"
#include "pa/journal/snapshot.h"

namespace pa::journal {

RecoveryCoordinator::RecoveryCoordinator(std::string dir,
                                         RecoveryOptions options)
    : dir_(std::move(dir)), options_(options) {}

void RecoveryCoordinator::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
}

RecoveryResult RecoveryCoordinator::recover() {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryResult result;

  result.snapshot_loaded =
      Snapshot::load(Journal::snapshot_path(dir_), &result.image);

  // Apply each wal record as it decodes; only the torn-tail repair waits
  // for the end of the scan, so a replay that throws leaves the file as
  // it found it.
  const std::string wal = Journal::wal_path(dir_);
  const ScanSummary scan = scan_file(wal, [&result](Record&& record) {
    if (record.seq <= result.image.last_seq()) {
      // Stale wal entry already folded into the snapshot (crash between
      // snapshot publish and wal truncation).
      ++result.records_skipped;
      return;
    }
    result.image.apply(record);
    ++result.records_replayed;
  });
  if (scan.torn) {
    result.torn_tail = true;
    result.truncated_bytes = scan.torn_bytes();
    if (options_.truncate_torn_tail) {
      truncate_file(wal, scan.valid_bytes);
      PA_LOG(kWarn, "journal")
          << "truncated torn tail of " << wal << ": dropped "
          << result.truncated_bytes << " bytes after " << scan.record_count
          << " valid records";
    }
  }

  result.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (metrics_ != nullptr) {
    metrics_->gauge("journal.recovery_seconds").set(result.recovery_seconds);
    metrics_->gauge("journal.recovered_units")
        .set(static_cast<double>(result.image.units().size()));
    metrics_->counter("journal.records_replayed")
        .inc(result.records_replayed);
    if (result.torn_tail) {
      metrics_->counter("journal.torn_tails_truncated").inc();
    }
  }
  PA_LOG(kInfo, "journal") << "recovered " << dir_ << ": "
                           << result.image.pilots().size() << " pilots, "
                           << result.image.units().size() << " units ("
                           << result.image.terminal_units()
                           << " terminal), snapshot="
                           << (result.snapshot_loaded ? "yes" : "no")
                           << ", replayed=" << result.records_replayed;
  return result;
}

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

ResumePlan make_resume_plan(const ManagerImage& image) {
  ResumePlan plan;
  for (const auto& [pilot_id, pilot] : image.pilots()) {
    std::uint64_t ordinal = 0;
    if (id_ordinal(pilot_id, &ordinal)) {
      plan.next_pilot_ordinal =
          std::max(plan.next_pilot_ordinal, ordinal + 1);
    }
  }
  for (const auto& [unit_id, unit] : image.units()) {
    std::uint64_t ordinal = 0;
    if (id_ordinal(unit_id, &ordinal)) {
      plan.next_unit_ordinal = std::max(plan.next_unit_ordinal, ordinal + 1);
    }
  }
  for (const auto& [pilot_id, pilot] : image.pilots()) {
    if (!core::is_final(pilot.state)) {
      plan.pilots.push_back(pilot.description());
    }
  }
  for (const auto& [unit_id, unit] : image.units()) {
    if (core::is_final(unit.state)) {
      plan.completed_units.push_back(unit_id);
      continue;
    }
    if (unit.state == core::UnitState::kScheduled ||
        unit.state == core::UnitState::kStagingIn ||
        unit.state == core::UnitState::kRunning) {
      ++plan.in_flight_requeued;
    }
    plan.units.emplace_back(unit_id, unit.description());
  }
  return plan;
}

std::map<std::string, core::ComputeUnit> resume(
    core::PilotComputeService& service, const ResumePlan& plan,
    const WorkFactory& work_factory) {
  service.advance_ids(plan.next_pilot_ordinal, plan.next_unit_ordinal);
  for (const auto& description : plan.pilots) {
    service.submit_pilot(description);
  }
  std::map<std::string, core::ComputeUnit> resumed;
  for (const auto& [journaled_id, description] : plan.units) {
    core::ComputeUnitDescription d = description;
    if (work_factory != nullptr) {
      d.work = work_factory(description);
    }
    resumed.emplace(journaled_id, service.submit_unit(d));
  }
  PA_LOG(kInfo, "journal") << "resumed workload: " << plan.pilots.size()
                           << " pilots, " << plan.units.size() << " units ("
                           << plan.in_flight_requeued
                           << " were in flight), "
                           << plan.completed_units.size()
                           << " already complete";
  return resumed;
}

}  // namespace pa::journal

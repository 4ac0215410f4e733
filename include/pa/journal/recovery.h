#pragma once
/// \file recovery.h
/// \brief Crash recovery: torn-tail repair, snapshot+wal replay, and
/// workload resumption on a fresh service.
///
/// On startup the coordinator (1) loads the newest valid snapshot if one
/// exists, (2) streams the wal, replaying every record newer than the
/// snapshot through `ManagerImage::apply` as it decodes, (3) truncates the
/// torn tail the crashed writer left, once the scan has found where it
/// starts, and (4) derives a `ResumePlan`: pilots that were
/// alive are resubmitted, units that never reached a terminal state are
/// re-enqueued as fresh pending work (in-flight units become requeued
/// work — the journal is the source of truth, not the vanished agent),
/// and units whose terminal record survived are *not* re-run, preserving
/// exactly-once completion for acknowledged work. The plan is runtime
/// agnostic: `resume()` drives any `PilotComputeService`, whether it sits
/// on SimRuntime or LocalRuntime.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pa/core/pilot_compute_service.h"
#include "pa/journal/replayer.h"
#include "pa/obs/metrics.h"

namespace pa::journal {

struct RecoveryOptions {
  /// Physically truncate a detected torn tail (recommended: later appends
  /// must not follow garbage). False = read-only analysis.
  bool truncate_torn_tail = true;
};

struct RecoveryResult {
  ManagerImage image;
  bool snapshot_loaded = false;
  bool torn_tail = false;            ///< wal ended in an invalid frame
  std::uint64_t truncated_bytes = 0; ///< torn bytes dropped (or found)
  std::size_t records_replayed = 0;  ///< wal records applied after snapshot
  std::size_t records_skipped = 0;   ///< wal records older than the snapshot
  double recovery_seconds = 0.0;     ///< wall time of the whole recover()
};

/// What a fresh service must do to continue the journaled workload.
struct ResumePlan {
  /// Pilots to resubmit: every journaled pilot not in a final state.
  std::vector<core::PilotDescription> pilots;
  /// Units to resubmit, keyed by their journaled id (non-terminal units,
  /// including in-flight ones — re-attached as requeued work).
  std::vector<std::pair<std::string, core::ComputeUnitDescription>> units;
  /// Units whose terminal record survived; they must NOT run again.
  std::vector<std::string> completed_units;
  /// How many resubmitted units were bound/running when the manager died.
  std::size_t in_flight_requeued = 0;
  /// Ordinals one past the largest numeric "-N" suffix seen among the
  /// journaled pilot/unit ids; resume() advances the target service's id
  /// generators so new ids cannot collide with journaled ones (which the
  /// resumed journal's image still remembers).
  std::uint64_t next_pilot_ordinal = 0;
  std::uint64_t next_unit_ordinal = 0;
};

class RecoveryCoordinator {
 public:
  explicit RecoveryCoordinator(std::string dir, RecoveryOptions options = {});

  /// Exports "journal.recovery_seconds" / "journal.recovered_units"
  /// gauges and "journal.torn_tails_truncated" /
  /// "journal.records_replayed" counters.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Replays snapshot + wal, then repairs the torn tail. A missing or
  /// empty journal yields an empty image (nothing to recover is a result,
  /// not an error); malformed-but-valid frames that replay into illegal
  /// transitions throw pa::Error and leave the wal untouched, since they
  /// indicate a journal not produced by a validated run.
  RecoveryResult recover();

 private:
  const std::string dir_;
  const RecoveryOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Derives the resumption work-list from a recovered image.
ResumePlan make_resume_plan(const ManagerImage& image);

/// Builds real payloads for resubmitted units (LocalRuntime); the journal
/// cannot persist closures, so the application re-derives them from the
/// unit's description. Null = duration-driven execution (SimRuntime, or
/// LocalRuntime busy-wait payloads).
using WorkFactory =
    std::function<std::function<void()>(const core::ComputeUnitDescription&)>;

/// Submits the plan's pilots and units to `service`. Returns journaled
/// unit id -> fresh ComputeUnit handle, so callers can track the resumed
/// work under its original identity.
std::map<std::string, core::ComputeUnit> resume(
    core::PilotComputeService& service, const ResumePlan& plan,
    const WorkFactory& work_factory = nullptr);

}  // namespace pa::journal

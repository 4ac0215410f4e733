#pragma once
/// \file replayer.h
/// \brief Deterministic reconstruction of manager state from journal
/// records.
///
/// `ManagerImage` is the journal's materialized view of the
/// WorkloadManager + PilotComputeService state: every record is `apply`-ed
/// through the *same* transition-legality functions the live state
/// machines use (`pa::core::detail::*_transition_allowed`), so replaying a
/// journal produced by a validated run can never take an edge the live
/// run could not — the replay-equivalence property tests in
/// tests/journal/ pin this down. The image is also what snapshots
/// serialize: the Journal facade materializes its image by replaying the
/// wal it wrote (a deferred drain, see journal.h), never from the records
/// in memory, making a compacted snapshot byte-equivalent to a full-log
/// replay.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pa/core/types.h"
#include "pa/journal/record.h"

namespace pa::journal {

/// Last journaled state of one pilot.
struct PilotImage {
  core::PilotState state = core::PilotState::kNew;
  std::string resource_url;
  int nodes = 1;
  double walltime = 3600.0;
  int priority = 0;
  double cost_per_core_hour = 0.0;
  std::string attributes;  ///< Config::to_string rendering
  std::string site;        ///< known once ACTIVE
  int total_cores = 0;     ///< known once ACTIVE
  int restarts_used = 0;

  core::PilotDescription description() const;
  bool operator==(const PilotImage& other) const = default;
};

/// Last journaled state of one compute unit.
struct UnitImage {
  core::UnitState state = core::UnitState::kNew;
  std::string name;
  int cores = 1;
  double duration = 1.0;
  std::vector<std::string> input_data;
  std::vector<std::string> output_data;
  std::string attributes;  ///< Config::to_string rendering
  std::string pilot_id;    ///< current binding; empty while queued
  int attempts = 0;        ///< requeues observed
  int terminal_count = 0;  ///< terminal transitions journaled (must be <= 1)

  /// Reconstructed description. `work` cannot be journaled (it is a
  /// closure); resume passes descriptions through a work factory when the
  /// target runtime executes real payloads.
  core::ComputeUnitDescription description() const;
  bool operator==(const UnitImage& other) const = default;
};

/// Materialized journal state; `apply` is the single replay semantic.
class ManagerImage {
 public:
  /// Applies one record. Throws pa::InvalidStateError on a transition the
  /// live state machines would have rejected, pa::NotFound for an unknown
  /// entity, pa::Error on malformed fields — a journal written by a
  /// validated run replays without exceptions.
  void apply(const Record& record);

  const std::map<std::string, PilotImage>& pilots() const { return pilots_; }
  const std::map<std::string, UnitImage>& units() const { return units_; }
  /// site -> data units registered there (kDataPlacement records).
  const std::map<std::string, std::set<std::string>>& placements() const {
    return placements_;
  }
  /// Highest wal sequence number applied (snapshot restores seed this).
  std::uint64_t last_seq() const { return last_seq_; }

  std::size_t terminal_units() const;
  std::size_t live_units() const { return units_.size() - terminal_units(); }

  bool operator==(const ManagerImage& other) const = default;

 private:
  void apply_pilot_submit(const Record& record);
  void apply_pilot_state(const Record& record);
  void apply_unit_submit(const Record& record);
  void apply_unit_state(const Record& record);

  std::map<std::string, PilotImage> pilots_;
  std::map<std::string, UnitImage> units_;
  std::map<std::string, std::set<std::string>> placements_;
  std::uint64_t last_seq_ = 0;

  friend class Snapshot;  // serializes/restores the private maps wholesale
};

/// Field-level encoding helpers shared by the core hooks, the snapshot
/// writer and the tests (doubles round-trip exactly via %.17g).
std::string format_double(double v);
double parse_double(const std::string& s, const std::string& context);
int parse_int(const std::string& s, const std::string& context);
core::PilotState parse_pilot_state(const std::string& name);
core::UnitState parse_unit_state(const std::string& name);

}  // namespace pa::journal

#pragma once
/// \file service_journal.h
/// \brief Adapter from the core `JournalSink` hook points to journal
/// records.
///
/// Attach with `service.attach_journal(&adapter)` *before* submitting any
/// pilots or units, so every lifecycle event of the workload is captured.
/// The adapter encodes each typed hook straight into the payload bytes of
/// the corresponding record (one reused buffer; no `Record`, no field
/// map), with exactly the fields `ManagerImage::apply` consumes on replay.
/// Fields go out in ascending key order, so every frame is byte-identical
/// to `append_frame` of the equivalent `Record`.

#include <string>

#include "pa/core/journal_hook.h"
#include "pa/journal/journal.h"
#include "pa/journal/record.h"

namespace pa::journal {

class ServiceJournal final : public core::JournalSink {
 public:
  explicit ServiceJournal(Journal& journal) : journal_(journal) {}

  void pilot_submitted(const std::string& pilot_id,
                       const core::PilotDescription& description,
                       int restarts_used, double time) override;
  void pilot_state(const std::string& pilot_id, core::PilotState to,
                   int total_cores, const std::string& site,
                   double time) override;
  void unit_submitted(const std::string& unit_id,
                      const core::ComputeUnitDescription& description,
                      double time) override;
  void unit_bound(const std::string& unit_id, const std::string& pilot_id,
                  double time) override;
  void unit_state(const std::string& unit_id, core::UnitState to,
                  double time) override;
  void unit_requeued(const std::string& unit_id, double time) override;
  void data_placed(const std::string& data_unit, const std::string& site,
                   double time) override;

  Journal& journal() { return journal_; }

 private:
  /// Starts a payload for `entity` in `payload_` (cleared first).
  PayloadBuilder begin(RecordType type, const std::string& entity,
                       double time);
  /// Finishes `payload` and appends it to the journal.
  void commit(PayloadBuilder& payload);

  Journal& journal_;
  /// Hooks fire on one thread (journal_hook.h), so one buffer serves all.
  std::string payload_;
};

}  // namespace pa::journal

#pragma once
/// \file command.h
/// \brief The service command taxonomy: every mutation of
/// PilotComputeService state, reified as a value.
///
/// The event-driven control plane (control_plane.h) admits exactly these
/// commands. Producers — the facade's public mutators, the three runtimes'
/// callbacks, the stage-in barrier, peer shards handing units over —
/// construct one and post it; only the apply context executes middleware
/// logic. Grouping:
///
///   lifecycle   CmdSubmitPilot, CmdSubmitUnit, CmdPilotActive,
///               CmdPilotTerminated, CmdUnitDone, CmdStageInDone
///   control     CmdCancelUnit, CmdShutdown, CmdFence
///   config      CmdAttachData, CmdAttachObservability, CmdAttachJournal,
///               CmdSetRequeuePolicy, CmdSetRestartPolicy,
///               CmdSetMaxRequeues, CmdObserveUnits, CmdAttachAdmission
///   sharding    CmdRequestUnits, CmdAdoptUnits (the PENDING-unit hand-over)
///
/// Pilot cancellation has no command: the facade passes it to the
/// runtime (which may need to synchronize with its own workers) and the
/// runtime's on_terminated callback posts CmdPilotTerminated; a trailing
/// CmdFence then flushes any synchronously-fired termination, because the
/// queue preserves per-producer FIFO order.
///
/// Ids are allocated by the *caller* (IdGenerator is atomic), so a submit
/// can return its handle after one queue round-trip and a restart can
/// mint ids on the apply thread without coordination.

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "pa/core/types.h"

namespace pa::obs {
class Tracer;
class MetricsRegistry;
}  // namespace pa::obs

namespace pa::core {
class AdmissionInterface;
class DataServiceInterface;
class JournalSink;
}  // namespace pa::core

namespace pa::core::cmd {

/// No-op barrier: waiting on it flushes everything posted before it from
/// the same thread, and its batch end republishes the read snapshot.
struct CmdFence {};

struct CmdSubmitPilot {
  std::string pilot_id;
  PilotDescription description;
  int restarts_used = 0;
};

struct CmdSubmitUnit {
  std::string unit_id;
  ComputeUnitDescription description;
};

/// Runtime callback: the pilot's allocation came up.
struct CmdPilotActive {
  std::string pilot_id;
  int total_cores = 0;
  std::string site;
};

/// Runtime callback: the allocation ended (walltime/cancel/failure).
struct CmdPilotTerminated {
  std::string pilot_id;
  PilotState state = PilotState::kFailed;
};

/// Runtime callback: a unit's payload finished. `attempt` tags the
/// completion so a stale callback from a superseded attempt is ignored.
struct CmdUnitDone {
  std::string unit_id;
  bool success = false;
  int attempt = 0;
};

/// Stage-in barrier tripped: all of the unit's input data reached its
/// pilot's site; the unit may move STAGING_IN -> SCHEDULED and execute.
/// `attempt` tags the barrier's dispatch so a stale completion (the unit
/// was requeued and re-dispatched while data moved) is ignored.
struct CmdStageInDone {
  std::string unit_id;
  int attempt = 0;
};

struct CmdCancelUnit {
  std::string unit_id;
};

/// Marks the service shut down and reports which pilots are still
/// non-final; the facade cancels those on the runtime *outside* the apply
/// context (runtimes may block on their own workers).
struct CmdShutdown {
  std::shared_ptr<std::vector<std::string>> pilots_to_cancel;
};

struct CmdAttachData {
  DataServiceInterface* data = nullptr;
};

struct CmdAttachObservability {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct CmdAttachJournal {
  JournalSink* journal = nullptr;
};

struct CmdSetRequeuePolicy {
  bool requeue_on_pilot_failure = true;
};

struct CmdSetRestartPolicy {
  int max_restarts = 0;
};

struct CmdSetMaxRequeues {
  int max_requeues = 0;
};

struct CmdObserveUnits {
  std::function<void(const std::string& unit_id, UnitState from,
                     UnitState to)>
      observer;
};

struct CmdAttachAdmission {
  AdmissionInterface* admission = nullptr;
  /// Drive the workload manager's weighted fair-share (deficit round
  /// robin) pass from the admission interface's tenant weights.
  bool fair_share = false;
};

/// Hand-over request: an idle shard (empty queue, free cores on an ACTIVE
/// pilot) asks a peer with queued units for work. The peer answers with a
/// CmdAdoptUnits, empty when nothing it holds fits `free_cores`.
struct CmdRequestUnits {
  int thief_shard = 0;
  int free_cores = 0;
};

/// One queued unit handed between shards. Only PENDING, unbound units
/// move, so the record is the unit's whole apply-side state plus the
/// requeue budget it already consumed (a poison unit cannot reset its
/// bound by changing shard).
struct HandedOverUnit {
  std::string unit_id;
  ComputeUnitDescription description;
  std::string tenant;
  int attempts = 0;
  UnitTimes times;
  int requeues = 0;
  int handovers = 0;  ///< shard changes including this one
};

/// Hand-over: `units` leave a peer shard and join the receiving shard's
/// late-binding queue.
struct CmdAdoptUnits {
  std::vector<HandedOverUnit> units;
};

/// CmdFence first: the variant (and thus a queue envelope) is cheaply
/// default-constructible.
using Command =
    std::variant<CmdFence, CmdSubmitPilot, CmdSubmitUnit, CmdPilotActive,
                 CmdPilotTerminated, CmdUnitDone, CmdStageInDone,
                 CmdCancelUnit, CmdShutdown, CmdAttachData,
                 CmdAttachObservability, CmdAttachJournal,
                 CmdSetRequeuePolicy, CmdSetRestartPolicy, CmdSetMaxRequeues,
                 CmdObserveUnits, CmdAttachAdmission, CmdRequestUnits,
                 CmdAdoptUnits>;

}  // namespace pa::core::cmd

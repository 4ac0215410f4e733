#pragma once
/// \file service_shard.h
/// \brief One shard of the sharded control plane: a single-writer engine
/// owning a partition of the service's pilots and units.
///
/// `PilotComputeService` (the facade) partitions its state across N
/// `ServiceShard`s. Each shard is the old single-plane engine verbatim —
/// its own bounded MPSC command queue, its own apply context, its own
/// workload manager, journal sink, and lock-guarded read model —
/// so shards scale the apply path without sharing a lock.
///
/// Cross-shard traffic travels as *forwarded commands* on the very same
/// queues: a shard that receives a command for an entity it does not own
/// consults the ShardRouter and re-posts the command, wrapped in
/// `cmd::CmdForward`, onto the owner's queue (`ControlPlane::post_forward`
/// bypasses backpressure so two full planes can never deadlock forwarding
/// to each other). Entity placement is computable (trailing id ordinal %
/// N), so the router only stores overrides — pilots moved between shards
/// and the units that traveled with them.
///
/// Moving a pilot (CmdMovePilot -> CmdInstallPilot) is a fence-based
/// protocol driven by the facade; the transfer payload carries *raw*
/// record state, never live state machines (machines hold observers bound
/// to the source shard), and the target rebuilds machines at the moved
/// state and re-journals an adoption chain into its own WAL. Stale
/// runtime/staging callbacks still post to the source shard's queue after
/// a move; the source finds the record gone, asks the router, and
/// forwards — the attempt tags that already guard against superseded
/// completions make delivery exactly-once regardless of the extra hop.
///
/// Only the sharding layer may name this class or call post_forward
/// (tools/lint.py rule 5b); everything else goes through the facade.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/core/admission.h"
#include "pa/core/command.h"
#include "pa/core/control_plane.h"
#include "pa/core/journal_hook.h"
#include "pa/core/runtime.h"
#include "pa/core/service_metrics.h"
#include "pa/core/shard_router.h"
#include "pa/core/state_machine.h"
#include "pa/core/types.h"
#include "pa/core/workload_manager.h"
#include "pa/obs/metrics.h"
#include "pa/obs/tracer.h"

namespace pa::core {

class ServiceShard {
 public:
  using Ctrl = ControlPlane<cmd::Command>;
  using UnitObserver =
      std::function<void(const std::string& unit_id, UnitState from,
                         UnitState to)>;

  /// What readers may see of a unit.
  struct UnitSnap {
    UnitState state = UnitState::kNew;
    UnitTimes times;
  };

  /// `shut_down` and `in_transit_units` are facade-owned: the former
  /// suppresses restarts service-wide, the latter keeps the aggregated
  /// unfinished count from dipping while units are between shards.
  /// `next_pilot_id` mints from the facade's atomic generator (restarts
  /// allocate pilot ids on shard apply threads).
  ServiceShard(Runtime& runtime, int index,
               const std::string& scheduler_policy, ShardRouter& router,
               std::atomic<bool>& shut_down,
               std::atomic<std::int64_t>& in_transit_units,
               std::function<std::string()> next_pilot_id);

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Wires the shard fan-out (including this shard at its own index).
  /// Must be called before any command is posted.
  void set_peers(std::vector<ServiceShard*> peers);

  Ctrl& ctrl() { return *ctrl_; }
  int index() const { return index_; }
  void stop() { ctrl_->stop(); }

  // ---- read side: served from this shard's published snapshot ----
  bool try_pilot_state(const std::string& pilot_id, PilotState* out) const;
  bool try_unit(const std::string& unit_id, UnitSnap* out) const;
  std::size_t total_units() const;
  std::size_t unfinished_units() const;
  /// Folds this shard's metrics into `out`.
  void merge_metrics(ServiceMetrics* out) const;

 private:
  struct PilotRecord {
    PilotDescription description;
    std::string tenant;  ///< normalized owner (see core::tenant_of)
    PilotStateMachine sm{PilotState::kNew};
    double submit_time = -1.0;
    double active_time = -1.0;
    int total_cores = 0;
    std::string site;
    int restarts_used = 0;  ///< restarts consumed by this lineage
    /// True when the router holds an override for this pilot (created on
    /// or moved to a non-default shard); lets finalize skip the router
    /// lock on the common un-pinned path.
    bool router_pinned = false;
  };

  struct UnitRecord {
    ComputeUnitDescription description;
    std::string tenant;
    UnitStateMachine sm{UnitState::kNew};
    UnitTimes times;
    std::string pilot_id;  ///< current binding, empty while queued
    bool cancel_requested = false;
    int attempts = 0;
    bool router_pinned = false;
  };

  /// What readers see (pilot_compute_service.h "Reads"). The apply
  /// thread flushes records at batch end and records `metrics` per event.
  struct ReadModel {
    std::map<std::string, PilotState> pilot_states;
    std::map<std::string, UnitSnap> units;
    ServiceMetrics metrics;
    std::size_t unfinished = 0;
  };

  // ---- apply side. Everything below runs only on this shard's apply
  // context and touches the apply-confined state lock-free. ----
  void apply_command(cmd::Command& command);
  void apply(cmd::CmdFence& c);
  void apply(cmd::CmdSubmitPilot& c);
  void apply(cmd::CmdSubmitUnit& c);
  void apply(cmd::CmdPilotActive& c);
  void apply(cmd::CmdPilotTerminated& c);
  void apply(cmd::CmdUnitDone& c);
  void apply(cmd::CmdStageInDone& c);
  void apply(cmd::CmdCancelUnit& c);
  void apply(cmd::CmdShutdown& c);
  void apply(cmd::CmdAttachData& c);
  void apply(cmd::CmdAttachObservability& c);
  void apply(cmd::CmdAttachJournal& c);
  void apply(cmd::CmdSetRequeuePolicy& c);
  void apply(cmd::CmdSetRestartPolicy& c);
  void apply(cmd::CmdSetMaxRequeues& c);
  void apply(cmd::CmdObserveUnits& c);
  void apply(cmd::CmdAttachAdmission& c);
  void apply(cmd::CmdForward& c);
  void apply(cmd::CmdMovePilot& c);
  void apply(cmd::CmdInstallPilot& c);

  void on_batch_end();
  void run_schedule_cycle();
  void publish_snapshot();

  void submit_pilot_apply(const std::string& pilot_id,
                          const PilotDescription& description,
                          int restarts_used);
  void dispatch_unit_apply(const std::string& unit_id,
                           const std::string& pilot_id);
  void execute_unit_apply(const std::string& unit_id);
  void finalize_unit_apply(UnitRecord& unit, const std::string& unit_id,
                           UnitState final_state);

  /// Wraps `command` in a CmdForward envelope and posts it onto
  /// `target_shard`'s queue, propagating this apply's hop depth. Drops
  /// (with a warning) past kMaxForwardHops.
  void forward_to(int target_shard, cmd::Command command);
  /// Routes `id`; forwards `command` and returns true when another shard
  /// owns it. Returns false when this shard is (or defaults to) the owner.
  bool forward_if_remote(const std::string& id, cmd::Command command);

  PilotRecord& pilot_record(const std::string& pilot_id);
  UnitRecord& unit_record(const std::string& unit_id);
  UnitStateMachine::Observer make_unit_observer(const std::string& unit_id);
  /// Journals the legal transition chain that brings a freshly adopted
  /// record from NEW to its moved state in this shard's WAL.
  void journal_adopted_pilot(const std::string& pilot_id,
                             const PilotRecord& rec);
  void journal_adopted_unit(const std::string& unit_id,
                            const UnitRecord& rec);

  Runtime& runtime_;
  const int index_;

  // ---- apply-confined state (single writer, no lock) ----
  WorkloadManager workload_;
  DataServiceInterface* data_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* obs_metrics_ = nullptr;
  JournalSink* journal_ = nullptr;
  AdmissionInterface* admission_ = nullptr;
  bool requeue_on_pilot_failure_ = true;
  int pilot_max_restarts_ = 0;
  std::vector<UnitObserver> unit_observers_;
  std::map<std::string, PilotRecord> pilots_;
  std::map<std::string, UnitRecord> units_;
  std::set<std::string> dirty_pilots_;
  std::set<std::string> dirty_units_;
  /// Entities detached by a move this batch: publish erases them from the
  /// read model (fixing the unfinished count) before flushing dirty sets.
  std::set<std::string> removed_pilots_;
  std::set<std::string> removed_units_;
  bool first_submit_recorded_ = false;
  /// Units adopted this batch; released from the facade's in-transit
  /// counter only *after* the publish that makes them visible here.
  std::int64_t pending_transit_release_ = 0;
  /// Hop depth of the command currently being applied (0 for direct
  /// commands; CmdForward saves/sets/restores it around the inner apply).
  int forward_hops_ = 0;
  /// Local shutdown idempotence: the shared flag alone would make every
  /// shard after the first return an empty cancel list.
  bool local_shut_down_ = false;

  ShardRouter& router_;
  std::atomic<bool>& shut_down_;
  std::atomic<std::int64_t>& in_transit_units_;
  std::function<std::string()> next_pilot_id_;
  std::vector<ServiceShard*> peers_;

  mutable check::Mutex snapshot_mutex_{check::LockRank::kService,
                                       "core::ServiceShard"};
  ReadModel model_ PA_GUARDED_BY(snapshot_mutex_);

  /// Declared last: destroyed first, joining the apply thread while the
  /// state it references is still alive.
  std::unique_ptr<Ctrl> ctrl_;
};

}  // namespace pa::core

namespace pa::core::cmd {

/// Raw state of a pilot (and its bound, non-final units) in flight
/// between shards. Deliberately machine-free: state machines carry
/// observers bound to the source shard's `this`, so the target rebuilds
/// fresh machines at the carried states and re-observes.
struct PilotTransfer {
  std::string pilot_id;
  PilotDescription description;
  PilotState state = PilotState::kNew;
  double submit_time = -1.0;
  double active_time = -1.0;
  int total_cores = 0;
  std::string site;
  int restarts_used = 0;

  struct Unit {
    std::string unit_id;
    ComputeUnitDescription description;
    UnitState state = UnitState::kNew;
    UnitTimes times;
    bool cancel_requested = false;
    int attempts = 0;
    int cores = 1;     ///< cores reserved on the pilot
    int requeues = 0;  ///< consumed requeue budget (survives the move)
  };
  std::vector<Unit> units;
  int source_shard = 0;
};

}  // namespace pa::core::cmd

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
/// Late binding across shards. Pilots never change shard, and a unit
/// changes shard only while it is PENDING and unbound: an idle shard (no
/// queued units, free cores on an ACTIVE pilot) takes queued units from
/// a peer in one `cmd::CmdAdoptUnits` *hand-over*. Every shard publishes
/// two relaxed atomics at batch end — its queued-unit count and the
/// largest free-core count on any one of its pilots — and the hand-over
/// runs when
///   1. a shard still has queued units after its schedule pass and a
///      peer advertises free cores with an empty queue (the victim
///      pushes: SimRuntime has no timer tick, so the idle peer may never
///      get another batch), or
///   2. an idle shard asks a peer with queued units with a
///      `cmd::CmdRequestUnits` (capacity appeared after the units
///      queued, e.g. a pilot went ACTIVE).
/// Each shard has at most one incoming hand-over (or request) in flight,
/// so the `ControlPlane::post_forward` traffic — which bypasses
/// backpressure, because a peer apply thread must never block on another
/// shard's bound — stays bounded. The receiving shard journals an
/// adoption chain into its own stream; the victim repins the unit in the
/// router after posting, so a routed write that finds the unit gone
/// re-routes to a queue that already holds the hand-over. Dispatched
/// units never move, so every runtime and stage-in callback lands on the
/// shard that holds its unit or pilot; one for a unit the shard no longer
/// holds comes from a superseded attempt and is dropped.
///
/// Only the sharding layer may name this class or call post_forward
/// (tools/lint.py rule 5b); everything else goes through the facade.
/// A single-shard service never runs any of the hand-over code.

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
  /// suppresses restarts and hand-overs service-wide, the latter keeps
  /// the aggregated unfinished count from dipping while units are between
  /// shards.
  /// `next_pilot_id` mints from the facade's atomic generator (restarts
  /// allocate pilot ids on shard apply threads).
  ServiceShard(Runtime& runtime, int index,
               const std::string& scheduler_policy, ShardRouter& router,
               std::atomic<bool>& shut_down,
               std::atomic<std::int64_t>& in_transit_units,
               std::function<std::string()> next_pilot_id);

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Wires the shard fan-out (including this shard at its own index)
  /// and starts the apply context. Call once, before posting anything.
  void start(std::vector<ServiceShard*> peers);

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
    /// True when the router holds an owner-table entry for this pilot (a
    /// restart minted an id whose default is another shard).
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
    int handovers = 0;  ///< shard changes so far (orders router pins)
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
  void apply(cmd::CmdRequestUnits& c);
  void apply(cmd::CmdAdoptUnits& c);

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

  /// Hand-over, victim side: removes queued units that fit one pilot
  /// with `free_cores` free and counts them in transit.
  cmd::CmdAdoptUnits take_for_hand_over(int free_cores);
  /// Posts `adopt` to `thief` (whose hand-over slot the caller holds),
  /// then repins its units to the thief.
  void post_adopt(ServiceShard& thief, cmd::CmdAdoptUnits adopt);
  /// Batch end of a multi-shard service: republish the two advertised
  /// figures, then push queued units to an idle peer or ask a busy one.
  void balance_with_peers();

  PilotRecord& pilot_record(const std::string& pilot_id);
  UnitRecord& unit_record(const std::string& unit_id);
  UnitStateMachine::Observer make_unit_observer(const std::string& unit_id);

  /// The instruments of the fixed-name pcs.* series; all null while no
  /// registry is attached.
  struct Instruments {
    obs::Counter* pilots_submitted = nullptr;
    obs::Counter* pilots_active = nullptr;
    obs::Histogram* pilot_startup = nullptr;
    obs::Counter* units_submitted = nullptr;
    obs::Counter* units_done = nullptr;
    obs::Counter* units_failed = nullptr;
    obs::Counter* units_canceled = nullptr;
    obs::Counter* unit_requeues = nullptr;
    obs::Counter* units_failed_requeue_limit = nullptr;
    obs::Counter* units_handed_over = nullptr;
    obs::Histogram* unit_wait = nullptr;
    obs::Histogram* unit_exec = nullptr;
  };

  Runtime& runtime_;
  const int index_;

  // ---- apply-confined state (single writer, no lock) ----
  WorkloadManager workload_;
  DataServiceInterface* data_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* obs_metrics_ = nullptr;
  Instruments instruments_;
  JournalSink* journal_ = nullptr;
  AdmissionInterface* admission_ = nullptr;
  bool requeue_on_pilot_failure_ = true;
  int pilot_max_restarts_ = 0;
  std::vector<UnitObserver> unit_observers_;
  std::map<std::string, PilotRecord> pilots_;
  std::map<std::string, UnitRecord> units_;
  std::set<std::string> dirty_pilots_;
  std::set<std::string> dirty_units_;
  /// Units handed away this batch: publish erases them from the read
  /// model (fixing the unfinished count) before flushing dirty sets.
  std::set<std::string> removed_units_;
  /// Units this shard's journal stream already holds that were handed
  /// away: one coming back resumes its existing record instead of being
  /// journaled as a fresh submission.
  std::set<std::string> departed_units_;
  bool first_submit_recorded_ = false;
  /// Units adopted this batch; released from the facade's in-transit
  /// counter only *after* the publish that makes them visible here.
  std::int64_t pending_transit_release_ = 0;
  /// Free-core count of this shard's last request a peer answered with
  /// nothing: it asks again only once more cores are free (0 = no such
  /// request outstanding).
  int declined_free_cores_ = 0;
  /// Local shutdown idempotence: the shared flag alone would make every
  /// shard after the first return an empty cancel list.
  bool local_shut_down_ = false;

  ShardRouter& router_;
  std::atomic<bool>& shut_down_;
  std::atomic<std::int64_t>& in_transit_units_;
  std::function<std::string()> next_pilot_id_;
  std::vector<ServiceShard*> peers_;

  // ---- hand-over adverts, written by this shard's batch end and read
  // by peers (relaxed: a stale figure costs one empty hand-over) ----
  std::atomic<std::size_t> advert_queued_{0};
  std::atomic<int> advert_free_cores_{0};
  /// Set while a hand-over to this shard (or its request for one) is in
  /// flight; whoever sets it owes exactly one CmdAdoptUnits here.
  std::atomic<bool> adopt_pending_{false};

  mutable check::Mutex snapshot_mutex_{check::LockRank::kService,
                                       "core::ServiceShard"};
  ReadModel model_ PA_GUARDED_BY(snapshot_mutex_);

  /// Declared last: destroyed first, joining the apply thread while the
  /// state it references is still alive.
  std::unique_ptr<Ctrl> ctrl_;
};

}  // namespace pa::core

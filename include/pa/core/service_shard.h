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
/// relaxed atomics at batch end — its queued-unit count, and the biggest
/// unit any one of its pilots can bind now with that pilot's walltime end
/// (`WorkloadManager::Offer`) — and the hand-over runs when
///   1. a shard still has queued units after its schedule pass and a
///      peer advertises free cores with an empty queue (the victim
///      pushes: SimRuntime has no timer tick, so the idle peer may never
///      get another batch), or
///   2. an idle shard asks a peer with queued units with a
///      `cmd::CmdRequestUnits` (capacity appeared after the units
///      queued, e.g. a pilot went ACTIVE).
/// Only units that fit the offered pilot move, by the strategies' own fit
/// predicate (cores and remaining walltime), so a unit that fits no pilot
/// stays PENDING where it is instead of bouncing between shards.
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
/// Unit keys. The apply path keys a unit by the ordinal n of its
/// "unit-<n>" id (`UnitKey`), parsed once when the unit reaches the shard
/// (submit or adopt). The record keeps the id string for the edges: journal
/// hooks, unit observers, runtime launches and logs. A transition marks the
/// record dirty and appends its key to a dirty list; publish flushes each
/// dirty record once and skips keys whose record was handed away.
///
/// Retirement. A unit's full record (description, work closure, name
/// strings, state machine) lives in `units_` and its published snap in
/// `ReadModel::units` only while it is live. The batch end that publishes
/// a final state — after its observers, journal records and metrics ran —
/// moves the snap (state + times, 40 B) into `ReadModel::final_units` and
/// erases both live entries. Reads answer a retired unit from that table;
/// a cancel of one is a no-op, and a late completion for one is dropped
/// like any other for a unit the shard does not hold.
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
#include <unordered_map>
#include <unordered_set>
#include <utility>
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
    UnitKey key = 0;
    std::string id;  ///< "unit-<n>", for the journal, observers and logs
    ComputeUnitDescription description;
    std::string tenant;
    UnitStateMachine sm{UnitState::kNew};
    UnitTimes times;
    std::string pilot_id;  ///< current binding, empty while queued
    bool cancel_requested = false;
    bool dirty = false;  ///< in dirty_units_, not yet published
    int attempts = 0;
    int handovers = 0;  ///< shard changes so far (orders router pins)
  };

  /// What readers see (pilot_compute_service.h "Reads"). The apply
  /// thread flushes records at batch end and records `metrics` per event.
  struct ReadModel {
    std::map<std::string, PilotState> pilot_states;
    /// Live units.
    std::unordered_map<UnitKey, UnitSnap> units;
    /// Retired units; every entry is final.
    std::unordered_map<UnitKey, UnitSnap> final_units;
    ServiceMetrics metrics;
    std::size_t unfinished = 0;
  };

  // ---- apply side. Everything below runs only on this shard's apply
  // context and touches the apply-confined state lock-free. ----
  void apply_command(cmd::Command& command);
  void apply(cmd::CmdFence& c);
  void apply(cmd::CmdSubmitPilot& c);
  void apply(cmd::CmdSubmitUnits& c);
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
  /// Flushes dirty records into the read model and retires the units
  /// that reached a final state.
  void publish_snapshot();

  void submit_pilot_apply(const std::string& pilot_id,
                          const PilotDescription& description,
                          int restarts_used);
  void submit_unit_apply(cmd::SubmittedUnit& submitted);
  void dispatch_unit_apply(UnitKey key, const std::string& pilot_id);
  void execute_unit_apply(UnitRecord& unit);
  void finalize_unit_apply(UnitRecord& unit, UnitState final_state);

  /// Hand-over, victim side: removes queued units that fit the thief's
  /// offered pilot and counts them in transit.
  cmd::CmdAdoptUnits take_for_hand_over(const WorkloadManager::Offer& offer);
  /// Posts `adopt` to `thief` (whose hand-over slot the caller holds),
  /// then repins its units to the thief.
  void post_adopt(ServiceShard& thief, cmd::CmdAdoptUnits adopt);
  /// Batch end of a multi-shard service: republish the two advertised
  /// figures, then push queued units to an idle peer or ask a busy one.
  void balance_with_peers();

  PilotRecord& pilot_record(const std::string& pilot_id);
  /// Attaches the shard's observer to `unit`'s machine. It captures only
  /// `this` and the record, so it fits std::function's small buffer.
  void observe_unit(UnitRecord& unit);
  /// Every validated transition of a unit: journal, tracer, the
  /// service-level observers, then the dirty list.
  void unit_transitioned(UnitRecord& unit, UnitState from, UnitState to);
  void mark_dirty(UnitRecord& unit);

  /// The instruments of the fixed-name pcs.* series; all null while no
  /// registry is attached.
  struct Instruments {
    obs::Counter* pilots_submitted = nullptr;
    obs::Counter* pilots_active = nullptr;
    /// pcs.pilots_terminated.<state>, one per final pilot state.
    obs::Counter* pilots_terminated_done = nullptr;
    obs::Counter* pilots_terminated_failed = nullptr;
    obs::Counter* pilots_terminated_canceled = nullptr;
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
  /// `runtime_.batches_launches()`: launches wait in `launches_` for the
  /// end of the schedule pass instead of going out one by one at bind.
  const bool batch_launches_;

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
  /// Live units only. Node-based: observers hold record pointers.
  std::unordered_map<UnitKey, UnitRecord> units_;
  /// Records retired by this publish, erased once the snapshot lock is
  /// released (publish_snapshot).
  std::vector<std::unordered_map<UnitKey, UnitRecord>::iterator> retiring_;
  std::set<std::string> dirty_pilots_;
  /// Keys of records marked dirty this batch, in marking order; a key
  /// may repeat after a hand-over and back (the flag dedupes).
  std::vector<UnitKey> dirty_units_;
  /// This pass's launches grouped by pilot (batching runtimes only);
  /// handed to the runtime and emptied at the end of every pass.
  std::vector<std::pair<std::string, std::vector<UnitLaunch>>> launches_;
  /// Units handed away this batch: publish erases them from the read
  /// model (fixing the unfinished count) before flushing dirty records.
  std::vector<UnitKey> removed_units_;
  /// Units this shard's journal stream already holds that were handed
  /// away: one coming back resumes its existing record instead of being
  /// journaled as a fresh submission.
  std::unordered_set<UnitKey> departed_units_;
  bool first_submit_recorded_ = false;
  /// Units adopted this batch; released from the facade's in-transit
  /// counter only *after* the publish that makes them visible here.
  std::int64_t pending_transit_release_ = 0;
  /// Offer of this shard's last request a peer answered with nothing: it
  /// asks again only once more cores are free or a pilot with a later
  /// walltime end offers them ({0, 0.0} = no such request outstanding).
  WorkloadManager::Offer declined_;
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
  /// Walltime end (runtime clock) of the pilot advert_free_cores_ is on.
  std::atomic<double> advert_walltime_end_{0.0};
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

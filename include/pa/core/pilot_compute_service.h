#pragma once
/// \file pilot_compute_service.h
/// \brief The Pilot-API (the waist of the hourglass, paper Fig. 4).
///
/// `PilotComputeService` is the user-facing facade of the middleware: the
/// application describes pilots and compute units; the service runs the
/// P* machinery (pilot manager, late-binding workload manager, scheduler,
/// agents) on whichever `Runtime` it was constructed with.
///
/// Threading model (sharded event-driven control plane, see
/// service_shard.h, control_plane.h and DESIGN.md "Control plane"):
///
///  * **Shards.** State is partitioned across `Options::shards`
///    single-writer engines. Pilots and units land on shard
///    (trailing id ordinal % N) — lock-free round-robin — and every
///    shard owns its own bounded MPSC queue, apply context, journal
///    stream, and read snapshot. One shard (the default) reproduces the
///    classic single-apply-thread service exactly.
///  * **Writes.** Every mutation is a command posted to the owning
///    shard's queue. Cross-shard traffic (stale callbacks after a pilot
///    move) travels as forwarded commands on the same queues.
///  * **Reads.** Accessors read each shard's read model under that
///    shard's snapshot mutex (LockRank::kService) and merge the results.
///    The mutex guards the reads themselves: a lookup copies one entry,
///    and `metrics()` merges a fixed-size `ServiceMetrics` per shard.
///    Nothing is cloned.
///  * **Admission.** With an `AdmissionInterface` attached (see
///    pa::tenant::TenantRegistry), submissions are admitted on the
///    producer thread *before* consuming queue space and throw
///    `pa::QuotaExceeded` when the tenant is over quota; shards report
///    grants/finalizations back through the same interface, and the
///    workload managers run a weighted fair-share (deficit round robin)
///    pass across tenants.
///  * **Determinism.** On a `Runtime::single_threaded()` substrate
///    (SimRuntime) every queue drains inline on the posting thread, so
///    simulations stay bit-identical run to run — cross-shard forwards
///    become nested inline drains.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pa/common/id.h"
#include "pa/core/admission.h"
#include "pa/core/command.h"
#include "pa/core/runtime.h"
#include "pa/core/service_metrics.h"
#include "pa/core/service_shard.h"
#include "pa/core/shard_router.h"
#include "pa/core/types.h"
#include "pa/obs/metrics.h"
#include "pa/obs/tracer.h"

namespace pa::core {

class PilotComputeService;

/// Handle to a pilot. Cheap value type; all state lives in the service.
class Pilot {
 public:
  Pilot() = default;
  const std::string& id() const { return id_; }
  bool valid() const { return service_ != nullptr; }
  PilotState state() const;
  /// Cancels the pilot's allocation (bound units are requeued or failed
  /// according to the service's requeue policy).
  void cancel();
  /// Blocks/drives until the pilot is ACTIVE (throws pa::TimeoutError).
  void wait_active(double timeout_seconds = 3600.0);

 private:
  friend class PilotComputeService;
  Pilot(std::string id, PilotComputeService* service)
      : id_(std::move(id)), service_(service) {}
  std::string id_;
  PilotComputeService* service_ = nullptr;
};

/// Handle to a compute unit.
class ComputeUnit {
 public:
  ComputeUnit() = default;
  const std::string& id() const { return id_; }
  bool valid() const { return service_ != nullptr; }
  UnitState state() const;
  UnitTimes times() const;
  void cancel();
  /// Blocks/drives until the unit reaches a final state; returns it.
  UnitState wait(double timeout_seconds = 3600.0);

 private:
  friend class PilotComputeService;
  ComputeUnit(std::string id, PilotComputeService* service)
      : id_(std::move(id)), service_(service) {}
  std::string id_;
  PilotComputeService* service_ = nullptr;
};

class PilotComputeService {
 public:
  struct Options {
    /// See pa::core::make_scheduler.
    std::string scheduler_policy = "backfill";
    /// Control-plane shards (apply threads / journal streams). 1 keeps
    /// the classic single-writer service.
    int shards = 1;
  };

  explicit PilotComputeService(Runtime& runtime, Options options);
  /// Back-compat: a single-shard service.
  explicit PilotComputeService(Runtime& runtime,
                               const std::string& scheduler_policy = "backfill");
  ~PilotComputeService();

  PilotComputeService(const PilotComputeService&) = delete;
  PilotComputeService& operator=(const PilotComputeService&) = delete;

  /// Connects Pilot-Data so schedulers see locality and stage-in happens
  /// automatically for units with input_data.
  void attach_data_service(DataServiceInterface* data);

  /// Connects the observability layer. Either argument may be null.
  /// With a tracer attached the service records pilot lifecycle spans
  /// ("pilot.startup" submit->active, "pilot.active" active->terminated),
  /// unit spans ("unit.wait" submit->start, "unit.exec" start->finish) and
  /// per-transition "pilot.state"/"unit.state" events — all stamped with
  /// the *runtime's* clock (simulated time on SimRuntime, wall time on
  /// LocalRuntime). With a registry attached the service, its workload
  /// managers and its control planes export lifecycle counters, scheduler-
  /// decision metrics and per-shard queue telemetry ("pcs.*", "wm.*",
  /// "ctrl.<shard>.*"). Both sinks must outlive their attachment.
  void attach_observability(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics);

  /// Connects the write-ahead state journal (single-shard services only —
  /// a sharded service has one journal stream per shard, see
  /// attach_journal_shards). Every validated lifecycle event is emitted
  /// through the sink at the point it is applied in memory. Attach
  /// *before* submitting work. Pass nullptr to detach; the sink must
  /// outlive its attachment.
  void attach_journal(JournalSink* journal);

  /// Connects one journal sink per shard (size must equal
  /// Options::shards; entries may be null). Shard k journals exactly the
  /// entities it owns; a pilot moved between shards is re-journaled on
  /// the target as an adoption chain, and
  /// pa::journal::recover_sharded merges the per-shard streams.
  void attach_journal_shards(const std::vector<JournalSink*>& journals);

  /// Connects admission control (quotas + fair-share weights; see
  /// pa::tenant::TenantRegistry). Submissions from over-quota tenants
  /// throw pa::QuotaExceeded at this boundary, before consuming any
  /// queue space. `fair_share` additionally orders the late-binding
  /// queues across tenants by weighted deficit round robin. Pass nullptr
  /// to detach; the interface must outlive its attachment and be
  /// internally synchronized (shards report from their apply threads).
  void attach_admission(AdmissionInterface* admission,
                        bool fair_share = true);

  /// Submits a pilot; it proceeds NEW -> SUBMITTED -> ACTIVE asynchronously.
  Pilot submit_pilot(const PilotDescription& description);

  /// Submits a unit into the late-binding queue.
  ComputeUnit submit_unit(const ComputeUnitDescription& description);
  /// Batch submission: posts every unit fire-and-forget and waits once,
  /// so a large burst costs one queue round-trip per shard, not N. On a
  /// quota rejection mid-burst, units admitted earlier stay submitted.
  std::vector<ComputeUnit> submit_units(
      const std::vector<ComputeUnitDescription>& descriptions);

  /// If true (default), units bound to a failing pilot go back to the
  /// queue; if false they are marked FAILED.
  void set_requeue_on_pilot_failure(bool requeue);

  /// Fault tolerance: when a pilot FAILS (preemption, infrastructure
  /// fault — not cancellation or normal walltime end), automatically
  /// resubmit an identical pilot, up to `max_restarts` times per original
  /// pilot (0 disables; default 0). Together with unit requeueing this
  /// gives at-least-once task execution on unreliable pools.
  void set_pilot_restart_policy(int max_restarts);

  /// Bounds how often a single unit may be requeued after pilot failures
  /// before it is marked FAILED instead (guards against a poison unit
  /// ping-ponging forever across dying pilots). -1 = unbounded; default
  /// see WorkloadManager::kDefaultMaxRequeues.
  void set_max_unit_requeues(int max_requeues);

  /// Observer for every unit state transition (in addition to per-unit
  /// waits). Called on the owning shard's apply context — with several
  /// shards the observer fires on several apply threads (never
  /// concurrently for the same unit); it must be thread-safe across
  /// units. Keep callbacks short and do not call back into the service
  /// from them.
  using UnitObserver = ServiceShard::UnitObserver;
  void observe_units(UnitObserver observer);

  PilotState pilot_state(const std::string& pilot_id) const;
  UnitState unit_state(const std::string& unit_id) const;
  UnitTimes unit_times(const std::string& unit_id) const;

  void cancel_pilot(const std::string& pilot_id);
  /// Cancels a unit. Queued units are dropped immediately; a running unit
  /// finishes its payload but records CANCELED.
  void cancel_unit(const std::string& unit_id);

  /// Cancels all pilots (shutdown); queued units are canceled.
  void shutdown();

  /// Drives the runtime until all submitted units are final.
  void wait_all_units(double timeout_seconds = 3600.0);
  void wait_pilot_active(const std::string& pilot_id,
                         double timeout_seconds = 3600.0);
  UnitState wait_unit(const std::string& unit_id,
                      double timeout_seconds = 3600.0);

  /// Rebalancing: migrates a pilot (and its bound, in-flight units) to
  /// `target_shard` with the fence protocol — when this returns, the
  /// target owns the pilot and has published it. Unit completions in
  /// flight during the move are forwarded and stay exactly-once (attempt
  /// tags are carried). No-op when the pilot already lives there or is
  /// final. Concurrent moves of the *same* pilot are not linearizable;
  /// serialize them in the caller.
  void move_pilot_to_shard(const std::string& pilot_id, int target_shard);

  /// Which shard currently owns `id` (routing view; for tests/tools).
  int shard_of(const std::string& id) const {
    return router_.shard_for_id(id);
  }
  int shards() const { return static_cast<int>(shards_.size()); }

  /// Advances the internal "pilot-N"/"unit-N" id generators to at least
  /// the given ordinals. A recovered journal's ids must never be reissued
  /// by the resumed service (pa::journal::resume calls this with the
  /// ordinals past the journaled history).
  void advance_ids(std::uint64_t next_pilot, std::uint64_t next_unit);

  std::size_t total_units() const;
  std::size_t unfinished_units() const;
  /// Copy of current metrics (per-shard snapshots, merged).
  ServiceMetrics metrics() const;
  Runtime& runtime() { return runtime_; }

 private:
  ServiceShard& owner_of(const std::string& id) const {
    return *shards_[static_cast<std::size_t>(router_.shard_for_id(id))];
  }
  /// Posts `command` to every shard synchronously (attach/config fan-out).
  void post_all_and_wait(const cmd::Command& command);
  /// Normalizes the tenant into attributes (survives journal replay) and
  /// returns it.
  template <typename Description>
  static std::string normalize_tenant(Description& description);
  bool try_unit_snap(const std::string& unit_id,
                     ServiceShard::UnitSnap* out) const;
  ServiceShard::UnitSnap unit_snap(const std::string& unit_id) const;

  Runtime& runtime_;

  /// Producer-side admission; swapped by attach_admission, read on every
  /// submit. The apply-side copies (per shard) are authoritative for
  /// accounting hooks.
  std::atomic<AdmissionInterface*> admission_{nullptr};

  /// Set by the apply side (CmdShutdown); read by producer-side argument
  /// validation so post-shutdown submits fail fast, and by the shards'
  /// restart policy. The apply-side check is authoritative.
  std::atomic<bool> shut_down_{false};

  /// Units currently between shards (detached from the source's read
  /// model, not yet published by the target). unfinished_units() adds
  /// this so wait_all_units can never observe a transient zero mid-move.
  std::atomic<std::int64_t> in_transit_units_{0};

  /// Atomic: ids are minted at the call site, before posting.
  pa::IdGenerator pilot_ids_{"pilot"};
  pa::IdGenerator unit_ids_{"unit"};

  /// Declared before shards_ (shards hold a reference).
  mutable ShardRouter router_;
  std::vector<std::unique_ptr<ServiceShard>> shards_;
};

}  // namespace pa::core

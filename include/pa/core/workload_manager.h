#pragma once
/// \file workload_manager.h
/// \brief Late-binding workload manager: the P* "Pilot-Manager" component
/// that holds the unit queue and invokes the scheduling strategy.
///
/// Pure bookkeeping, no runtime dependencies — the facade drives it and a
/// test can drive it by hand. Capacity accounting lives here so the
/// "never oversubscribe" invariant has a single owner.
///
/// Scheduling is *incremental*: the manager keeps persistent scheduler
/// views (pilot views refreshed in O(pilots) per pass, unit views built
/// once at enqueue and kept in the policy's order by sorted insertion)
/// and a dirty flag that turns a pass over unchanged state into an
/// immediate return. Events that can enable a placement — capacity
/// growth, enqueue/requeue, removal of a queued unit (it may have been
/// blocking a FIFO head) — set the flag; time passing alone never does,
/// because remaining walltime only shrinks.
///
/// Thread-safety: none of its own. The manager is externally serialized —
/// it is owned by PilotComputeService's control-plane apply context (one
/// writer, see control_plane.h); standalone tests drive it
/// single-threaded.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pa/core/admission.h"
#include "pa/core/runtime.h"
#include "pa/core/scheduler.h"
#include "pa/core/types.h"
#include "pa/obs/metrics.h"

namespace pa::core {

class WorkloadManager {
 public:
  explicit WorkloadManager(std::unique_ptr<Scheduler> scheduler);

  /// Registers an ACTIVE pilot with its capacity.
  /// `walltime_end` is absolute (runtime clock).
  void add_pilot(const std::string& pilot_id, const std::string& site,
                 int total_cores, int priority, double cost_per_core_hour,
                 double walltime_end);

  /// Removes a pilot (terminated). Returns the units that were bound to it
  /// and must be requeued or failed by the caller.
  std::vector<std::string> remove_pilot(const std::string& pilot_id);

  bool has_pilot(const std::string& pilot_id) const;
  std::size_t pilot_count() const { return pilots_.size(); }

  /// Enqueues a unit (FCFS position = call order; policies with a
  /// unit_order() place it by sorted insertion instead, after its equals).
  /// `requeues` seeds the requeue budget a unit handed over from another
  /// shard already consumed.
  void enqueue_unit(const std::string& unit_id,
                    const ComputeUnitDescription& description,
                    int requeues = 0);

  /// A queued unit taken for hand-over to another shard, with the
  /// requeue budget it already consumed.
  struct TakenUnit {
    std::string unit_id;
    int requeues = 0;
  };

  /// Queue entries a hand-over inspects, from the front: bounds the cost
  /// when the head of a deep queue does not fit the receiving pilot.
  static constexpr std::size_t kHandOverScan = 256;

  /// Removes queued units for hand-over: front first (the oldest waits),
  /// each small enough for one pilot with `free_cores` free, until their
  /// cores sum to at most `free_cores`. Units that do not fit keep their
  /// place. Only the first kHandOverScan entries are inspected.
  std::vector<TakenUnit> take_queued_units(int free_cores);

  /// Units may requeue this often before the manager refuses; see
  /// set_max_requeues. High enough that legitimate fault-tolerance churn
  /// (pilot preemption storms) never trips it, low enough that a poison
  /// unit cannot cycle forever.
  static constexpr int kDefaultMaxRequeues = 1000;

  /// Re-enqueues a previously bound unit (pilot failure recovery) at the
  /// front of the queue — before its equals, under a unit_order() policy —
  /// preserving its original priority. Returns false — and drops the
  /// unit's requeue bookkeeping — when the unit has already been requeued
  /// max_requeues times; the caller must then fail the unit instead.
  bool requeue_unit_front(const std::string& unit_id,
                          const ComputeUnitDescription& description);

  /// Bounds per-unit requeues (-1 = unbounded). Takes effect for
  /// subsequent requeue_unit_front calls; existing counts are kept.
  void set_max_requeues(int max_requeues);
  int max_requeues() const { return max_requeues_; }
  /// How often `unit_id` has been requeued so far (0 if never/forgotten).
  int requeue_count(const std::string& unit_id) const;

  /// Drops a queued unit (cancellation). Returns false if not queued.
  bool remove_queued_unit(const std::string& unit_id);

  std::size_t queued_units() const { return queue_.size(); }
  /// Queued unit ids in the order the strategy sees them (O(queued);
  /// for tests and diagnostics).
  std::vector<std::string> queued_unit_ids() const;
  int free_cores(const std::string& pilot_id) const;
  int total_free_cores() const;
  /// Largest free-core count on any one pilot (0 without pilots).
  int max_free_cores() const;

  /// True when something changed since the last executed pass, i.e. the
  /// next schedule_pass will actually run the strategy.
  bool dirty() const { return dirty_; }

  /// Runs the scheduling strategy over the current queue and capacity.
  /// Accepted assignments are applied (cores reserved, unit dequeued).
  /// `data` may be null (no locality info). Returns immediately — without
  /// invoking the strategy — when nothing changed since the last pass
  /// (the "wm.schedule_passes_skipped" counter tracks these;
  /// "wm.schedule_passes" counts executed passes only).
  ///
  /// Cost: the apply step is O(deepest accepted queue position) — only
  /// the scanned prefix is compacted, units behind it are never touched —
  /// so with the strategies' exhausted-capacity early exit a pass over a
  /// deep backlog costs O(units scanned), not O(queue depth). Three parts
  /// still walk the whole queue: the locality refresh (only when `data`
  /// is set), the sortedness check of the ordered policies
  /// (largest-first, shortest-first), and the fair-share interleave
  /// (only while two or more tenants have queued units).
  std::vector<Assignment> schedule_pass(double now,
                                        const DataServiceInterface* data);

  /// Releases a finished/failed unit's cores on its pilot.
  void unit_finished(const std::string& unit_id);

  /// Which pilot a bound unit is on; throws pa::NotFound if not bound.
  const std::string& bound_pilot(const std::string& unit_id) const;

  const Scheduler& scheduler() const { return *scheduler_; }

  /// Emits scheduler-decision counters ("wm.schedule_passes",
  /// "wm.schedule_passes_skipped", "wm.units_assigned") and queue/capacity
  /// gauges into `metrics`; the instruments are resolved here, once.
  /// Pass nullptr to detach; the registry must outlive its attachment.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Source of tenant weights for the fair-share pass. Pass nullptr to
  /// detach; the interface must outlive its attachment.
  void set_admission(const AdmissionInterface* admission) {
    admission_ = admission;
  }

  /// Enables the weighted fair-share (deficit round robin) ordering pass.
  /// Active only while an admission interface is attached and more than
  /// one distinct tenant has queued units — a single-tenant queue keeps
  /// the exact policy-ordered fast path.
  void set_fair_share(bool enabled) {
    fair_share_ = enabled;
    dirty_ = true;  // the presented order may change
  }
  bool fair_share() const { return fair_share_; }

 private:
  struct PilotRecord {
    std::string site;
    int total_cores = 0;
    int free_cores = 0;
    int priority = 0;
    double cost_per_core_hour = 0.0;
    double walltime_end = 0.0;
  };

  struct QueuedUnit {
    std::string unit_id;
    int cores = 1;
    double expected_duration = 1.0;
    std::vector<std::string> input_data;
    std::string preferred_site;
    std::string tenant;  ///< normalized owner (see core::tenant_of)
  };

  struct BoundUnit {
    std::string pilot_id;
    int cores = 1;
  };

  static QueuedUnit make_queued(const std::string& unit_id,
                                const ComputeUnitDescription& description);
  /// View without locality info (filled per pass for units that have
  /// input data — see refresh_locality).
  static UnitView make_base_view(const QueuedUnit& unit);
  /// Recomputes input_bytes_by_site/total_input_bytes. Sites with no free
  /// cores are skipped: none of their pilots can take the unit this pass
  /// (fits() excludes them), so their byte counts cannot matter.
  void refresh_locality(UnitView& view, const QueuedUnit& unit,
                        const DataServiceInterface* data) const;
  /// Inserts into queue_ and queue_views_ at the policy's position:
  /// append/prepend under FCFS, upper/lower bound of the unit_order()
  /// comparator otherwise (front = before equals, back = after equals).
  void insert_queued(QueuedUnit unit, bool front);
  /// Drops one unit from `tenant`'s queued count (the entry goes at 0).
  void unqueue_tenant(const std::string& tenant);
  /// Removes the queue entries marked in `taken` (a prefix of the queue,
  /// indexed by position), keeping the survivors' order.
  void erase_taken(const std::vector<char>& taken);

  /// Weighted fair-share ordering (deficit round robin): credits every
  /// tenant with queued units (weight x quantum), then interleaves the
  /// queue across tenants by accumulated credit, filling `order` with
  /// original queue positions. Returns false (order untouched, no credit
  /// granted) when fewer than two tenants have queued units.
  bool fair_share_order(std::vector<std::size_t>* order);

  /// The wm.* instruments; all null while no registry is attached.
  struct Instruments {
    obs::Counter* passes = nullptr;
    obs::Counter* passes_skipped = nullptr;
    obs::Counter* units_assigned = nullptr;
    obs::Gauge* queued_units = nullptr;
    obs::Gauge* free_cores = nullptr;
  };

  std::unique_ptr<Scheduler> scheduler_;
  Instruments metrics_;
  int max_requeues_ = kDefaultMaxRequeues;
  std::map<std::string, PilotRecord> pilots_;
  /// Persistent scheduler input, in registration order (the stable view
  /// order policies rely on). site/total/priority/cost are immutable;
  /// free_cores and remaining_walltime are refreshed each executed pass.
  std::vector<PilotView> pilot_views_;
  /// Free cores per site — lets the locality refresh skip sites that
  /// cannot accept work this pass.
  std::map<std::string, int> site_free_cores_;
  /// queue_ and queue_views_ are parallel: same units, same positions.
  std::deque<QueuedUnit> queue_;
  std::deque<UnitView> queue_views_;
  std::map<std::string, BoundUnit> bound_;
  std::map<std::string, int> requeue_counts_;  ///< per live unit
  /// Set by every mutation that could enable a placement; cleared when a
  /// pass executes. Starts clean: an empty manager has nothing to place.
  bool dirty_ = false;

  const AdmissionInterface* admission_ = nullptr;
  bool fair_share_ = false;
  /// Persistent fair-share credit per tenant ("deficit"): grows by
  /// weight x quantum each pass the tenant has queued units, shrinks by
  /// the cores actually granted, and is dropped when the tenant's queue
  /// empties (fresh start when it returns).
  std::map<std::string, double> drr_deficit_;
  /// Queued units per tenant; only tenants with queued units have an
  /// entry. Kept by the places that change the queue: insert_queued,
  /// remove_queued_unit, take_queued_units and the apply step
  /// (remove_pilot leaves the queue alone). The deficit cleanup and the
  /// single-tenant fast path read it in O(tenants) instead of scanning
  /// the queue.
  std::map<std::string, std::size_t> queued_per_tenant_;
};

}  // namespace pa::core

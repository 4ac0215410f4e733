#include "pa/core/workload_manager.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "pa/common/error.h"

namespace pa::core {

WorkloadManager::WorkloadManager(std::unique_ptr<Scheduler> scheduler)
    : scheduler_(std::move(scheduler)) {
  PA_REQUIRE_ARG(scheduler_ != nullptr, "null scheduler");
}

void WorkloadManager::add_pilot(const std::string& pilot_id,
                                const std::string& site, int total_cores,
                                int priority, double cost_per_core_hour,
                                double walltime_end) {
  PA_REQUIRE_ARG(total_cores > 0, "pilot without cores: " << pilot_id);
  PA_REQUIRE_ARG(pilots_.find(pilot_id) == pilots_.end(),
                 "pilot already registered: " << pilot_id);
  PilotRecord rec;
  rec.site = site;
  rec.total_cores = total_cores;
  rec.free_cores = total_cores;
  rec.priority = priority;
  rec.cost_per_core_hour = cost_per_core_hour;
  rec.walltime_end = walltime_end;
  pilots_.emplace(pilot_id, std::move(rec));

  PilotView pv;
  pv.pilot_id = pilot_id;
  pv.site = site;
  pv.total_cores = total_cores;
  pv.free_cores = total_cores;
  pv.priority = priority;
  pv.cost_per_core_hour = cost_per_core_hour;
  pv.remaining_walltime = 0.0;  // refreshed each pass
  pilot_views_.push_back(std::move(pv));
  site_free_cores_[site] += total_cores;
  dirty_ = true;  // new capacity: queued units may fit now
}

std::vector<std::string> WorkloadManager::remove_pilot(
    const std::string& pilot_id) {
  const auto it = pilots_.find(pilot_id);
  if (it == pilots_.end()) {
    return {};
  }
  site_free_cores_[it->second.site] -= it->second.free_cores;
  pilots_.erase(it);
  pilot_views_.erase(
      std::find_if(pilot_views_.begin(), pilot_views_.end(),
                   [&](const PilotView& pv) {
                     return pv.pilot_id == pilot_id;
                   }));
  std::vector<std::string> orphans;
  for (auto bit = bound_.begin(); bit != bound_.end();) {
    if (bit->second.pilot_id == pilot_id) {
      orphans.push_back(bit->first);
      bit = bound_.erase(bit);
    } else {
      ++bit;
    }
  }
  // Shrinking capacity cannot enable a placement, but policy choices
  // (rotation, affinity) change with the pilot set — cheap to re-run.
  dirty_ = true;
  return orphans;
}

std::vector<WorkloadManager::DetachedUnit> WorkloadManager::detach_pilot(
    const std::string& pilot_id) {
  const auto it = pilots_.find(pilot_id);
  if (it == pilots_.end()) {
    return {};
  }
  site_free_cores_[it->second.site] -= it->second.free_cores;
  pilots_.erase(it);
  pilot_views_.erase(
      std::find_if(pilot_views_.begin(), pilot_views_.end(),
                   [&](const PilotView& pv) {
                     return pv.pilot_id == pilot_id;
                   }));
  std::vector<DetachedUnit> detached;
  for (auto bit = bound_.begin(); bit != bound_.end();) {
    if (bit->second.pilot_id == pilot_id) {
      DetachedUnit d;
      d.unit_id = bit->first;
      d.cores = bit->second.cores;
      d.requeues = requeue_count(bit->first);
      requeue_counts_.erase(bit->first);
      detached.push_back(std::move(d));
      bit = bound_.erase(bit);
    } else {
      ++bit;
    }
  }
  dirty_ = true;
  return detached;
}

void WorkloadManager::adopt_pilot(
    const std::string& pilot_id, const std::string& site, int total_cores,
    int priority, double cost_per_core_hour, double walltime_end,
    const std::vector<DetachedUnit>& bound_units) {
  add_pilot(pilot_id, site, total_cores, priority, cost_per_core_hour,
            walltime_end);
  auto& rec = pilots_.at(pilot_id);
  for (const auto& d : bound_units) {
    PA_REQUIRE_ARG(bound_.find(d.unit_id) == bound_.end(),
                   "unit already bound: " << d.unit_id);
    PA_CHECK_MSG(d.cores <= rec.free_cores,
                 "adopted bound set oversubscribes pilot " << pilot_id);
    rec.free_cores -= d.cores;
    site_free_cores_[site] -= d.cores;
    bound_.emplace(d.unit_id, BoundUnit{pilot_id, d.cores});
    if (d.requeues > 0) {
      requeue_counts_[d.unit_id] = d.requeues;
    }
  }
  const auto vit =
      std::find_if(pilot_views_.begin(), pilot_views_.end(),
                   [&](const PilotView& pv) {
                     return pv.pilot_id == pilot_id;
                   });
  vit->free_cores = rec.free_cores;
}

bool WorkloadManager::has_pilot(const std::string& pilot_id) const {
  return pilots_.find(pilot_id) != pilots_.end();
}

WorkloadManager::QueuedUnit WorkloadManager::make_queued(
    const std::string& unit_id, const ComputeUnitDescription& description) {
  QueuedUnit q;
  q.unit_id = unit_id;
  q.cores = description.cores;
  q.expected_duration = description.duration;
  q.input_data = description.input_data;
  q.preferred_site = description.attributes.get_string("preferred_site", "");
  q.tenant = tenant_of(description);
  return q;
}

UnitView WorkloadManager::make_base_view(const QueuedUnit& unit) {
  UnitView v;
  v.unit_id = unit.unit_id;
  v.cores = unit.cores;
  v.expected_duration = unit.expected_duration;
  v.preferred_site = unit.preferred_site;
  return v;
}

void WorkloadManager::insert_queued(QueuedUnit unit, bool front) {
  UnitView view = make_base_view(unit);
  const Scheduler::UnitOrder order = scheduler_->unit_order();
  std::size_t pos;
  if (order == nullptr) {
    pos = front ? 0 : queue_.size();
  } else if (front) {
    // A requeued unit goes before its equals: it already waited once.
    pos = static_cast<std::size_t>(
        std::lower_bound(queue_views_.begin(), queue_views_.end(), view,
                         order) -
        queue_views_.begin());
  } else {
    pos = static_cast<std::size_t>(
        std::upper_bound(queue_views_.begin(), queue_views_.end(), view,
                         order) -
        queue_views_.begin());
  }
  ++queued_per_tenant_[unit.tenant];
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(unit));
  queue_views_.insert(queue_views_.begin() + static_cast<std::ptrdiff_t>(pos),
                      std::move(view));
  dirty_ = true;
}

void WorkloadManager::unqueue_tenant(const std::string& tenant) {
  const auto it = queued_per_tenant_.find(tenant);
  if (--it->second == 0) {
    queued_per_tenant_.erase(it);
  }
}

void WorkloadManager::enqueue_unit(const std::string& unit_id,
                                   const ComputeUnitDescription& description) {
  PA_REQUIRE_ARG(description.cores > 0, "unit needs cores: " << unit_id);
  PA_REQUIRE_ARG(bound_.find(unit_id) == bound_.end(),
                 "unit already bound: " << unit_id);
  insert_queued(make_queued(unit_id, description), /*front=*/false);
}

bool WorkloadManager::requeue_unit_front(
    const std::string& unit_id, const ComputeUnitDescription& description) {
  int& count = requeue_counts_[unit_id];
  if (max_requeues_ >= 0 && count >= max_requeues_) {
    requeue_counts_.erase(unit_id);  // caller fails the unit; forget it
    return false;
  }
  ++count;
  insert_queued(make_queued(unit_id, description), /*front=*/true);
  return true;
}

void WorkloadManager::set_max_requeues(int max_requeues) {
  PA_REQUIRE_ARG(max_requeues >= -1,
                 "max_requeues must be >= -1: " << max_requeues);
  max_requeues_ = max_requeues;
}

int WorkloadManager::requeue_count(const std::string& unit_id) const {
  const auto it = requeue_counts_.find(unit_id);
  return it == requeue_counts_.end() ? 0 : it->second;
}

bool WorkloadManager::remove_queued_unit(const std::string& unit_id) {
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [&](const QueuedUnit& q) { return q.unit_id == unit_id; });
  if (it == queue_.end()) {
    return false;
  }
  unqueue_tenant(it->tenant);
  queue_views_.erase(queue_views_.begin() + (it - queue_.begin()));
  queue_.erase(it);
  requeue_counts_.erase(unit_id);
  // The removed unit may have been blocking a FIFO head-of-line pass.
  dirty_ = true;
  return true;
}

std::vector<std::string> WorkloadManager::queued_unit_ids() const {
  std::vector<std::string> ids;
  ids.reserve(queue_.size());
  for (const auto& q : queue_) {
    ids.push_back(q.unit_id);
  }
  return ids;
}

int WorkloadManager::free_cores(const std::string& pilot_id) const {
  const auto it = pilots_.find(pilot_id);
  if (it == pilots_.end()) {
    throw NotFound("unknown pilot: " + pilot_id);
  }
  return it->second.free_cores;
}

int WorkloadManager::total_free_cores() const {
  int total = 0;
  for (const auto& [id, rec] : pilots_) {
    total += rec.free_cores;
  }
  return total;
}

void WorkloadManager::refresh_locality(UnitView& view, const QueuedUnit& unit,
                                       const DataServiceInterface* data) const {
  view.input_bytes_by_site.clear();
  view.total_input_bytes = 0.0;
  for (const auto& du : unit.input_data) {
    view.total_input_bytes += data->total_bytes(du);
    for (const auto& pv : pilot_views_) {
      const auto sit = site_free_cores_.find(pv.site);
      if (sit == site_free_cores_.end() || sit->second <= 0) {
        continue;  // no pilot on this site can fit the unit this pass
      }
      const double local = data->bytes_on_site(du, pv.site);
      if (local > 0.0) {
        view.input_bytes_by_site[pv.site] += local;
      }
    }
  }
}

bool WorkloadManager::fair_share_order(std::vector<std::size_t>* order) {
  if (queued_per_tenant_.size() < 2) {
    return false;
  }
  // Group queue positions by tenant, preserving each tenant's intra-queue
  // policy order. A sorted map keeps tenant visiting order deterministic.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    groups[queue_[i].tenant].push_back(i);
  }
  int quantum = 1;
  for (const auto& q : queue_) {
    quantum = std::max(quantum, q.cores);
  }
  // Credit every tenant with queued units for this pass. Weights clamp
  // below at a small positive value so a zero-weight tenant still drains;
  // accumulated credit is capped so a long-starved tenant (units too big
  // to place) cannot hoard an unbounded burst allowance.
  std::map<std::string, double> credit;
  for (const auto& [tenant, positions] : groups) {
    double w = admission_->tenant_weight(tenant);
    if (!(w > 0.0)) {
      w = 1e-3;
    }
    double& deficit = drr_deficit_[tenant];
    deficit += w * static_cast<double>(quantum);
    const double cap = 64.0 * w * static_cast<double>(quantum);
    deficit = std::min(deficit, cap);
    credit[tenant] = deficit;
  }
  // Interleave greedily: always lay out the head unit of the tenant with
  // the most remaining credit (ties break to the lexicographically first),
  // charging its cores against the pass-local credit. Under scarcity the
  // scheduler takes a capacity-limited prefix of this order, so each
  // tenant's granted cores converge to its weight share.
  std::map<std::string, std::size_t> head;
  order->clear();
  order->reserve(queue_.size());
  while (order->size() < queue_.size()) {
    std::string best;
    double best_credit = 0.0;
    for (const auto& [tenant, positions] : groups) {
      if (head[tenant] >= positions.size()) {
        continue;
      }
      const double c = credit[tenant];
      if (best.empty() || c > best_credit) {
        best = tenant;
        best_credit = c;
      }
    }
    const std::size_t qi = groups[best][head[best]++];
    order->push_back(qi);
    credit[best] -= static_cast<double>(queue_[qi].cores);
  }
  return true;
}

std::vector<Assignment> WorkloadManager::schedule_pass(
    double now, const DataServiceInterface* data) {
  if (!dirty_) {
    // Nothing changed since the last pass. Time advancing alone never
    // enables a placement (remaining walltime only shrinks), so the
    // strategy would return exactly what it returned last time: nothing.
    if (metrics_ != nullptr) {
      metrics_->counter("wm.schedule_passes_skipped").inc();
    }
    return {};
  }
  dirty_ = false;  // anything the pass itself changes, it already sees
  if (metrics_ != nullptr) {
    metrics_->counter("wm.schedule_passes").inc();
  }
  if (queue_.empty() || pilots_.empty()) {
    return {};
  }
  for (auto& pv : pilot_views_) {
    const auto& rec = pilots_.at(pv.pilot_id);
    pv.free_cores = rec.free_cores;
    pv.remaining_walltime = rec.walltime_end - now;
  }
  if (data != nullptr) {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (!queue_[i].input_data.empty()) {
        refresh_locality(queue_views_[i], queue_[i], data);
      }
    }
  }

  std::vector<Assignment> proposed;
  std::vector<std::size_t> order;
  bool interleaved = false;
  if (fair_share_ && admission_ != nullptr && fair_share_order(&order)) {
    // Fair-share pass: present the queue to the strategy in the deficit-
    // round-robin interleave, then map accepted positions back onto the
    // real queue (a mismatch falls back to the linear search below).
    interleaved = true;
    std::deque<UnitView> views;
    for (const std::size_t qi : order) {
      views.push_back(queue_views_[qi]);
    }
    proposed = scheduler_->schedule(views, pilot_views_);
    for (auto& a : proposed) {
      a.queue_index = (a.queue_index < order.size() &&
                       queue_[order[a.queue_index]].unit_id == a.unit_id)
                          ? order[a.queue_index]
                          : kNoQueueIndex;
    }
  } else {
    proposed = scheduler_->schedule(queue_views_, pilot_views_);
  }

  // Apply: validate capacity (defense against buggy strategies), reserve
  // cores, move units from queue to bound. queue_index makes each apply
  // O(1); taken[] catches duplicate assignments and only spans the prefix
  // up to the deepest accepted position, so the apply step costs what the
  // strategy scanned, not the queue depth.
  std::vector<char> taken;
  std::vector<Assignment> accepted;
  accepted.reserve(proposed.size());
  for (const auto& a : proposed) {
    const auto pit = pilots_.find(a.pilot_id);
    PA_CHECK_MSG(pit != pilots_.end(),
                 "scheduler assigned to unknown pilot " << a.pilot_id);
    std::size_t qi = a.queue_index;
    if (qi >= queue_.size() || queue_[qi].unit_id != a.unit_id) {
      // Fallback for strategies that do not report positions.
      const auto qit = std::find_if(
          queue_.begin(), queue_.end(),
          [&](const QueuedUnit& q) { return q.unit_id == a.unit_id; });
      PA_CHECK_MSG(qit != queue_.end(),
                   "scheduler assigned unknown unit " << a.unit_id);
      qi = static_cast<std::size_t>(qit - queue_.begin());
    }
    if (qi >= taken.size()) {
      taken.resize(qi + 1, 0);
    }
    PA_CHECK_MSG(!taken[qi],
                 "scheduler assigned duplicate unit " << a.unit_id);
    const QueuedUnit& q = queue_[qi];
    PA_CHECK_MSG(q.cores <= pit->second.free_cores,
                 "scheduler oversubscribed pilot " << a.pilot_id);
    pit->second.free_cores -= q.cores;
    site_free_cores_[pit->second.site] -= q.cores;
    bound_.emplace(a.unit_id, BoundUnit{a.pilot_id, q.cores});
    if (interleaved) {
      // Actual service: only granted cores pay down the tenant's deficit
      // (laying a unit out in the interleave is not service).
      drr_deficit_[q.tenant] -= static_cast<double>(q.cores);
    }
    taken[qi] = 1;
    accepted.push_back(a);
  }
  if (!accepted.empty()) {
    // Compact the scanned prefix only: shift its survivors toward the
    // back (order kept), then drop the freed front slots. Units past the
    // deepest taken position are never touched.
    std::size_t w = taken.size();
    for (std::size_t r = taken.size(); r-- > 0;) {
      if (taken[r]) {
        unqueue_tenant(queue_[r].tenant);
        continue;
      }
      if (--w != r) {
        queue_[w] = std::move(queue_[r]);
        queue_views_[w] = std::move(queue_views_[r]);
      }
    }
    const auto freed = static_cast<std::ptrdiff_t>(w);
    queue_.erase(queue_.begin(), queue_.begin() + freed);
    queue_views_.erase(queue_views_.begin(), queue_views_.begin() + freed);
  }
  if (fair_share_ && !drr_deficit_.empty()) {
    // A tenant whose queue emptied starts fresh when it returns.
    for (auto dit = drr_deficit_.begin(); dit != drr_deficit_.end();) {
      dit = queued_per_tenant_.count(dit->first) != 0
                ? std::next(dit)
                : drr_deficit_.erase(dit);
    }
  }
  if (metrics_ != nullptr) {
    metrics_->counter("wm.units_assigned").inc(accepted.size());
    metrics_->gauge("wm.queued_units")
        .set(static_cast<double>(queue_.size()));
    metrics_->gauge("wm.free_cores").set(total_free_cores());
  }
  return accepted;
}

void WorkloadManager::unit_finished(const std::string& unit_id) {
  const auto it = bound_.find(unit_id);
  if (it == bound_.end()) {
    return;  // pilot already removed (termination race) — nothing to free
  }
  const auto pit = pilots_.find(it->second.pilot_id);
  if (pit != pilots_.end()) {
    pit->second.free_cores += it->second.cores;
    site_free_cores_[pit->second.site] += it->second.cores;
    PA_CHECK_MSG(pit->second.free_cores <= pit->second.total_cores,
                 "core accounting corrupt on pilot " << it->second.pilot_id);
    dirty_ = true;  // capacity grew: queued units may fit now
  }
  bound_.erase(it);
  requeue_counts_.erase(unit_id);
}

const std::string& WorkloadManager::bound_pilot(
    const std::string& unit_id) const {
  const auto it = bound_.find(unit_id);
  if (it == bound_.end()) {
    throw NotFound("unit not bound: " + unit_id);
  }
  return it->second.pilot_id;
}

}  // namespace pa::core

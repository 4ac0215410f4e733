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
                                double walltime_end, int capacity) {
  PA_REQUIRE_ARG(total_cores > 0, "pilot without cores: " << pilot_id);
  capacity = std::max(capacity, total_cores);
  PA_REQUIRE_ARG(pilots_.find(pilot_id) == pilots_.end(),
                 "pilot already registered: " << pilot_id);
  PilotRecord rec;
  rec.site = site;
  rec.total_cores = total_cores;
  rec.capacity = capacity;
  rec.free_cores = capacity;
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
  site_free_cores_[site] += capacity;
  dirty_ = true;  // new capacity: queued units may fit now
}

std::vector<UnitKey> WorkloadManager::remove_pilot(
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
  std::vector<UnitKey> orphans;
  for (auto bit = bound_.begin(); bit != bound_.end();) {
    if (bit->second.pilot_id == pilot_id) {
      orphans.push_back(bit->first);
      bit = bound_.erase(bit);
    } else {
      ++bit;
    }
  }
  // Hash order is arbitrary; the caller requeues in this order.
  std::sort(orphans.begin(), orphans.end());
  // Shrinking capacity cannot enable a placement, but policy choices
  // (rotation, affinity) change with the pilot set — cheap to re-run.
  dirty_ = true;
  return orphans;
}

bool WorkloadManager::has_pilot(const std::string& pilot_id) const {
  return pilots_.find(pilot_id) != pilots_.end();
}

WorkloadManager::QueuedUnit WorkloadManager::make_queued(
    UnitKey key, const std::string& unit_id,
    const ComputeUnitDescription& description) {
  QueuedUnit q;
  q.key = key;
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

void WorkloadManager::enqueue_unit(UnitKey key, const std::string& unit_id,
                                   const ComputeUnitDescription& description,
                                   int requeues) {
  PA_REQUIRE_ARG(description.cores > 0, "unit needs cores: " << unit_id);
  PA_REQUIRE_ARG(bound_.find(key) == bound_.end(),
                 "unit already bound: " << unit_id);
  if (requeues > 0) {
    requeue_counts_[key] = requeues;
  }
  insert_queued(make_queued(key, unit_id, description), /*front=*/false);
}

std::vector<WorkloadManager::TakenUnit> WorkloadManager::take_queued_units(
    int free_cores, double remaining_walltime) {
  std::vector<TakenUnit> taken;
  const std::size_t scan = std::min(queue_.size(), kHandOverScan);
  std::vector<char> take(scan, 0);
  for (std::size_t i = 0; i < scan && free_cores > 0; ++i) {
    if (queue_[i].cores <= free_cores &&
        queue_[i].expected_duration <= remaining_walltime) {
      free_cores -= queue_[i].cores;
      take[i] = 1;
      taken.push_back(TakenUnit{queue_[i].key, requeue_count(queue_[i].key)});
      requeue_counts_.erase(queue_[i].key);
    }
  }
  if (!taken.empty()) {
    erase_taken(take);
    dirty_ = true;  // a removed head may have been blocking a FIFO pass
  }
  return taken;
}

void WorkloadManager::erase_taken(const std::vector<char>& taken) {
  // Compact the marked prefix only: shift its survivors toward the back
  // (order kept), then drop the freed front slots. Units past the
  // prefix are never touched.
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

bool WorkloadManager::requeue_unit_front(
    UnitKey key, const std::string& unit_id,
    const ComputeUnitDescription& description) {
  int& count = requeue_counts_[key];
  if (max_requeues_ >= 0 && count >= max_requeues_) {
    requeue_counts_.erase(key);  // caller fails the unit; forget it
    return false;
  }
  ++count;
  insert_queued(make_queued(key, unit_id, description), /*front=*/true);
  return true;
}

void WorkloadManager::set_max_requeues(int max_requeues) {
  PA_REQUIRE_ARG(max_requeues >= -1,
                 "max_requeues must be >= -1: " << max_requeues);
  max_requeues_ = max_requeues;
}

int WorkloadManager::requeue_count(UnitKey key) const {
  const auto it = requeue_counts_.find(key);
  return it == requeue_counts_.end() ? 0 : it->second;
}

bool WorkloadManager::remove_queued_unit(UnitKey key) {
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [key](const QueuedUnit& q) { return q.key == key; });
  if (it == queue_.end()) {
    return false;
  }
  unqueue_tenant(it->tenant);
  queue_views_.erase(queue_views_.begin() + (it - queue_.begin()));
  queue_.erase(it);
  requeue_counts_.erase(key);
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

WorkloadManager::Offer WorkloadManager::hand_over_offer() const {
  Offer best;
  for (const auto& [id, rec] : pilots_) {
    const int cores = std::min(rec.free_cores, rec.total_cores);
    if (cores > best.cores ||
        (cores == best.cores && rec.walltime_end > best.walltime_end)) {
      best = Offer{cores, rec.walltime_end};
    }
  }
  return best.cores > 0 ? best : Offer{};
}

int WorkloadManager::idle_cores(const PilotRecord& rec) {
  return std::max(0, rec.total_cores - (rec.capacity - rec.free_cores));
}

void WorkloadManager::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metrics_ = Instruments{};
    return;
  }
  metrics_.passes = &metrics->counter("wm.schedule_passes");
  metrics_.passes_skipped = &metrics->counter("wm.schedule_passes_skipped");
  metrics_.units_assigned = &metrics->counter("wm.units_assigned");
  metrics_.queued_units = &metrics->gauge("wm.queued_units");
  metrics_.free_cores = &metrics->gauge("wm.free_cores");
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

bool WorkloadManager::fair_share_order(std::vector<std::size_t>* order,
                                       bool credit_pass) {
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
    double& deficit = drr_deficit_[tenant];
    if (credit_pass) {
      double w = admission_->tenant_weight(tenant);
      if (!(w > 0.0)) {
        w = 1e-3;
      }
      deficit += w * static_cast<double>(quantum);
      const double cap = 64.0 * w * static_cast<double>(quantum);
      deficit = std::min(deficit, cap);
    }
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

std::vector<WorkloadManager::Binding> WorkloadManager::schedule_pass(
    double now, const DataServiceInterface* data) {
  if (!dirty_) {
    // Nothing changed since the last pass. Time advancing alone never
    // enables a placement (remaining walltime only shrinks), so the
    // strategy would return exactly what it returned last time: nothing.
    if (metrics_.passes_skipped != nullptr) {
      metrics_.passes_skipped->inc();
    }
    return {};
  }
  dirty_ = false;  // anything the pass itself changes, it already sees
  if (metrics_.passes != nullptr) {
    metrics_.passes->inc();
  }
  if (queue_.empty() || pilots_.empty()) {
    return {};
  }
  // Tier 1 offers each pilot its idle cores; tier 2 whatever free
  // capacity lies beyond them (the ready slots).
  int idle_total = 0;
  int ready_total = 0;
  for (auto& pv : pilot_views_) {
    const auto& rec = pilots_.at(pv.pilot_id);
    pv.free_cores = idle_cores(rec);
    pv.remaining_walltime = rec.walltime_end - now;
    idle_total += pv.free_cores;
    ready_total += rec.free_cores - pv.free_cores;
  }
  if (data != nullptr) {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (!queue_[i].input_data.empty()) {
        refresh_locality(queue_views_[i], queue_[i], data);
      }
    }
  }

  // Fair share credits its tenants once per pass, whatever the tiers.
  std::vector<std::size_t> order;
  bool interleaved = fair_share_ && admission_ != nullptr &&
                     fair_share_order(&order, /*credit_pass=*/true);
  std::vector<Binding> accepted;
  if (idle_total > 0) {
    bind_tier(interleaved ? &order : nullptr, &accepted);
  }
  if (ready_total > 0 && !queue_.empty()) {
    for (auto& pv : pilot_views_) {
      pv.free_cores = pilots_.at(pv.pilot_id).free_cores;
    }
    if (interleaved && !accepted.empty()) {
      // Tier 1 changed the queue: lay it out again from the deficits it
      // left, without a second credit.
      interleaved = fair_share_order(&order, /*credit_pass=*/false);
    }
    bind_tier(interleaved ? &order : nullptr, &accepted);
  }
  if (fair_share_ && !drr_deficit_.empty()) {
    // A tenant whose queue emptied starts fresh when it returns.
    for (auto dit = drr_deficit_.begin(); dit != drr_deficit_.end();) {
      dit = queued_per_tenant_.count(dit->first) != 0
                ? std::next(dit)
                : drr_deficit_.erase(dit);
    }
  }
  if (metrics_.units_assigned != nullptr) {
    metrics_.units_assigned->inc(accepted.size());
    metrics_.queued_units->set(static_cast<double>(queue_.size()));
    metrics_.free_cores->set(total_free_cores());
  }
  return accepted;
}

void WorkloadManager::bind_tier(const std::vector<std::size_t>* order,
                                std::vector<Binding>* accepted) {
  std::vector<Assignment> proposed;
  if (order != nullptr) {
    // Fair-share pass: present the queue to the strategy in the deficit-
    // round-robin interleave, then map accepted positions back onto the
    // real queue (a mismatch falls back to the linear search below).
    std::deque<UnitView> views;
    for (const std::size_t qi : *order) {
      views.push_back(queue_views_[qi]);
    }
    proposed = scheduler_->schedule(views, pilot_views_);
    for (auto& a : proposed) {
      a.queue_index = (a.queue_index < order->size() &&
                       queue_[(*order)[a.queue_index]].unit_id == a.unit_id)
                          ? (*order)[a.queue_index]
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
  accepted->reserve(accepted->size() + proposed.size());
  for (auto& a : proposed) {
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
    bound_.emplace(q.key, BoundUnit{a.pilot_id, q.cores});
    if (order != nullptr) {
      // Actual service: only granted cores pay down the tenant's deficit
      // (laying a unit out in the interleave is not service).
      drr_deficit_[q.tenant] -= static_cast<double>(q.cores);
    }
    taken[qi] = 1;
    accepted->push_back(
        Binding{q.key, std::move(a.unit_id), std::move(a.pilot_id)});
  }
  if (!taken.empty()) {
    erase_taken(taken);
  }
}

void WorkloadManager::unit_finished(UnitKey key) {
  const auto it = bound_.find(key);
  if (it == bound_.end()) {
    return;  // pilot already removed (termination race) — nothing to free
  }
  const auto pit = pilots_.find(it->second.pilot_id);
  if (pit != pilots_.end()) {
    pit->second.free_cores += it->second.cores;
    site_free_cores_[pit->second.site] += it->second.cores;
    PA_CHECK_MSG(pit->second.free_cores <= pit->second.capacity,
                 "core accounting corrupt on pilot " << it->second.pilot_id);
    dirty_ = true;  // capacity grew: queued units may fit now
  }
  bound_.erase(it);
  requeue_counts_.erase(key);
}

const std::string& WorkloadManager::bound_pilot(UnitKey key) const {
  const auto it = bound_.find(key);
  if (it == bound_.end()) {
    throw NotFound("unit not bound: " + std::to_string(key));
  }
  return it->second.pilot_id;
}

}  // namespace pa::core

#include "pa/core/scheduler.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "pa/common/error.h"

namespace pa::core {

namespace {

/// Mutable capacity tracker over the pilot snapshot.
struct Capacity {
  explicit Capacity(const std::vector<PilotView>& pilots) : pilots_(pilots) {
    free_.reserve(pilots.size());
    for (const auto& p : pilots) {
      free_.push_back(p.free_cores);
      total_free_ += p.free_cores;
    }
  }

  bool fits(std::size_t i, const UnitView& u) const {
    return u.cores <= free_[i] &&
           u.expected_duration <= pilots_[i].remaining_walltime &&
           u.cores <= pilots_[i].total_cores;
  }

  void take(std::size_t i, const UnitView& u) {
    free_[i] -= u.cores;
    total_free_ -= u.cores;
    PA_CHECK_MSG(free_[i] >= 0, "scheduler oversubscribed pilot "
                                    << pilots_[i].pilot_id);
  }

  /// Early-exit signal: once no pilot has a free core, no further unit
  /// can fit, so scan loops stop. A scan then costs O(units scanned up to
  /// the unit that used the last free core) — O(assigned) when the head
  /// units fit, but the whole queue when skipped units leave cores free
  /// to the end. The workload manager's apply step compacts only that
  /// scanned prefix, so the pass as a whole keeps the same bound.
  bool exhausted() const { return total_free_ <= 0; }

  const std::vector<PilotView>& pilots_;
  std::vector<int> free_;
  int total_free_ = 0;
};

/// First pilot (by declaration order) that fits; returns npos if none.
std::size_t first_fit(const Capacity& cap, const UnitView& u) {
  for (std::size_t i = 0; i < cap.pilots_.size(); ++i) {
    if (cap.fits(i, u)) {
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

constexpr auto kNone = static_cast<std::size_t>(-1);

/// Honors a preferred_site hint when it fits; otherwise first fit.
std::size_t preferred_or_first_fit(const Capacity& cap, const UnitView& u) {
  if (!u.preferred_site.empty()) {
    for (std::size_t i = 0; i < cap.pilots_.size(); ++i) {
      if (cap.pilots_[i].site == u.preferred_site && cap.fits(i, u)) {
        return i;
      }
    }
  }
  return first_fit(cap, u);
}

bool cores_descending(const UnitView& a, const UnitView& b) {
  return a.cores > b.cores;
}

bool duration_ascending(const UnitView& a, const UnitView& b) {
  return a.expected_duration < b.expected_duration;
}

/// Backfill placement in `order`. When the caller's queue is already
/// sorted (the workload manager keeps it that way via sorted insertion)
/// this is a single scan; otherwise an index view is stable-sorted so
/// queue_index still refers to the caller's positions.
std::vector<Assignment> ordered_backfill(const std::deque<UnitView>& queued,
                                         const std::vector<PilotView>& pilots,
                                         Scheduler::UnitOrder order) {
  Capacity cap(pilots);
  std::vector<Assignment> out;
  if (std::is_sorted(queued.begin(), queued.end(), order)) {
    for (std::size_t qi = 0; qi < queued.size() && !cap.exhausted(); ++qi) {
      const UnitView& u = queued[qi];
      const std::size_t i = preferred_or_first_fit(cap, u);
      if (i == kNone) {
        continue;
      }
      cap.take(i, u);
      out.push_back({u.unit_id, pilots[i].pilot_id, qi});
    }
    return out;
  }
  std::vector<std::size_t> idx(queued.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) {
                     return order(queued[a], queued[b]);
                   });
  for (std::size_t k = 0; k < idx.size() && !cap.exhausted(); ++k) {
    const std::size_t qi = idx[k];
    const UnitView& u = queued[qi];
    const std::size_t i = preferred_or_first_fit(cap, u);
    if (i == kNone) {
      continue;
    }
    cap.take(i, u);
    out.push_back({u.unit_id, pilots[i].pilot_id, qi});
  }
  return out;
}

}  // namespace

std::vector<Assignment> FifoScheduler::schedule(
    const std::deque<UnitView>& queued, const std::vector<PilotView>& pilots) {
  Capacity cap(pilots);
  std::vector<Assignment> out;
  for (std::size_t qi = 0; qi < queued.size(); ++qi) {
    const UnitView& u = queued[qi];
    const std::size_t i = preferred_or_first_fit(cap, u);
    if (i == kNone) {
      break;  // strict FCFS: head-of-line blocking
    }
    cap.take(i, u);
    out.push_back({u.unit_id, pilots[i].pilot_id, qi});
  }
  return out;
}

std::vector<Assignment> BackfillScheduler::schedule(
    const std::deque<UnitView>& queued, const std::vector<PilotView>& pilots) {
  Capacity cap(pilots);
  std::vector<Assignment> out;
  for (std::size_t qi = 0; qi < queued.size() && !cap.exhausted(); ++qi) {
    const UnitView& u = queued[qi];
    const std::size_t i = preferred_or_first_fit(cap, u);
    if (i == kNone) {
      continue;  // skip, try the next unit
    }
    cap.take(i, u);
    out.push_back({u.unit_id, pilots[i].pilot_id, qi});
  }
  return out;
}

std::vector<Assignment> RoundRobinScheduler::schedule(
    const std::deque<UnitView>& queued, const std::vector<PilotView>& pilots) {
  if (pilots.empty()) {
    return {};
  }
  Capacity cap(pilots);
  // Resume the rotation just after the pilot that took the previous
  // assignment. Looking it up by id keeps the rotation fair when the pilot
  // set shrank or was reordered since the last round; a vanished pilot
  // restarts from the front.
  std::size_t start = 0;
  if (!last_pilot_id_.empty()) {
    for (std::size_t i = 0; i < pilots.size(); ++i) {
      if (pilots[i].pilot_id == last_pilot_id_) {
        start = (i + 1) % pilots.size();
        break;
      }
    }
  }
  std::vector<Assignment> out;
  for (std::size_t qi = 0; qi < queued.size() && !cap.exhausted(); ++qi) {
    const UnitView& u = queued[qi];
    std::size_t chosen = kNone;
    for (std::size_t k = 0; k < pilots.size(); ++k) {
      const std::size_t i = (start + k) % pilots.size();
      if (cap.fits(i, u)) {
        chosen = i;
        break;
      }
    }
    if (chosen == kNone) {
      continue;
    }
    cap.take(chosen, u);
    out.push_back({u.unit_id, pilots[chosen].pilot_id, qi});
    last_pilot_id_ = pilots[chosen].pilot_id;
    start = (chosen + 1) % pilots.size();
  }
  return out;
}

std::vector<Assignment> DataAffinityScheduler::schedule(
    const std::deque<UnitView>& queued, const std::vector<PilotView>& pilots) {
  Capacity cap(pilots);
  std::vector<Assignment> out;
  for (std::size_t qi = 0; qi < queued.size() && !cap.exhausted(); ++qi) {
    const UnitView& u = queued[qi];
    std::size_t best = kNone;
    double best_local = -1.0;
    for (std::size_t i = 0; i < pilots.size(); ++i) {
      if (!cap.fits(i, u)) {
        continue;
      }
      double local = 0.0;
      const auto it = u.input_bytes_by_site.find(pilots[i].site);
      if (it != u.input_bytes_by_site.end()) {
        local = it->second;
      }
      // Tie-break towards emptier pilots to avoid convoying everything
      // onto one allocation when data is replicated everywhere; break
      // remaining ties by pilot id so a unit with no known replica site
      // (local == 0 everywhere) lands deterministically regardless of
      // the order the pilot snapshot happens to arrive in.
      if (local > best_local ||
          (local == best_local && best != kNone &&
           (cap.free_[i] > cap.free_[best] ||
            (cap.free_[i] == cap.free_[best] &&
             pilots[i].pilot_id < pilots[best].pilot_id)))) {
        best = i;
        best_local = local;
      }
    }
    // Placement hint: when no candidate site holds any of the unit's data
    // there is no dominant data site, so the preferred_site hint wins —
    // matching every other policy (preferred_or_first_fit).
    if (best_local <= 0.0 && !u.preferred_site.empty()) {
      for (std::size_t i = 0; i < pilots.size(); ++i) {
        if (pilots[i].site == u.preferred_site && cap.fits(i, u)) {
          best = i;
          break;
        }
      }
    }
    if (best == kNone) {
      continue;  // backfill behaviour for the rest of the queue
    }
    cap.take(best, u);
    out.push_back({u.unit_id, pilots[best].pilot_id, qi});
  }
  return out;
}

std::vector<Assignment> CostAwareScheduler::schedule(
    const std::deque<UnitView>& queued, const std::vector<PilotView>& pilots) {
  Capacity cap(pilots);
  std::vector<Assignment> out;
  for (std::size_t qi = 0; qi < queued.size() && !cap.exhausted(); ++qi) {
    const UnitView& u = queued[qi];
    std::size_t best = kNone;
    for (std::size_t i = 0; i < pilots.size(); ++i) {
      if (!cap.fits(i, u)) {
        continue;
      }
      if (best == kNone) {
        best = i;
        continue;
      }
      const auto& a = pilots[i];
      const auto& b = pilots[best];
      if (a.cost_per_core_hour < b.cost_per_core_hour ||
          (a.cost_per_core_hour == b.cost_per_core_hour &&
           a.priority > b.priority)) {
        best = i;
      }
    }
    if (best == kNone) {
      continue;
    }
    cap.take(best, u);
    out.push_back({u.unit_id, pilots[best].pilot_id, qi});
  }
  return out;
}

Scheduler::UnitOrder LargestFirstScheduler::unit_order() const {
  return &cores_descending;
}

std::vector<Assignment> LargestFirstScheduler::schedule(
    const std::deque<UnitView>& queued, const std::vector<PilotView>& pilots) {
  return ordered_backfill(queued, pilots, unit_order());
}

Scheduler::UnitOrder ShortestFirstScheduler::unit_order() const {
  return &duration_ascending;
}

std::vector<Assignment> ShortestFirstScheduler::schedule(
    const std::deque<UnitView>& queued, const std::vector<PilotView>& pilots) {
  return ordered_backfill(queued, pilots, unit_order());
}

namespace {

using SchedulerFactory = std::unique_ptr<Scheduler> (*)();

/// Single registration point: the factory, the documented name list, and
/// the tests all read from here.
const std::vector<std::pair<std::string, SchedulerFactory>>&
scheduler_registry() {
  static const std::vector<std::pair<std::string, SchedulerFactory>> registry =
      {
          {"fifo", []() -> std::unique_ptr<Scheduler> {
             return std::make_unique<FifoScheduler>();
           }},
          {"backfill", []() -> std::unique_ptr<Scheduler> {
             return std::make_unique<BackfillScheduler>();
           }},
          {"round-robin", []() -> std::unique_ptr<Scheduler> {
             return std::make_unique<RoundRobinScheduler>();
           }},
          {"data-affinity", []() -> std::unique_ptr<Scheduler> {
             return std::make_unique<DataAffinityScheduler>();
           }},
          {"cost-aware", []() -> std::unique_ptr<Scheduler> {
             return std::make_unique<CostAwareScheduler>();
           }},
          {"largest-first", []() -> std::unique_ptr<Scheduler> {
             return std::make_unique<LargestFirstScheduler>();
           }},
          {"shortest-first", []() -> std::unique_ptr<Scheduler> {
             return std::make_unique<ShortestFirstScheduler>();
           }},
      };
  return registry;
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& policy) {
  for (const auto& [name, factory] : scheduler_registry()) {
    if (policy == name) {
      return factory();
    }
  }
  throw InvalidArgument("unknown scheduler policy: " + policy);
}

const std::vector<std::string>& scheduler_policy_names() {
  static const std::vector<std::string> names = []() {
    std::vector<std::string> out;
    for (const auto& [name, factory] : scheduler_registry()) {
      out.push_back(name);
    }
    return out;
  }();
  return names;
}

}  // namespace pa::core

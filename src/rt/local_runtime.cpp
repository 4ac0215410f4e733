#include "pa/rt/local_runtime.h"

#include <chrono>
#include <thread>

#include "pa/common/error.h"
#include "pa/common/log.h"
#include "pa/common/time_utils.h"
#include "pa/saga/url.h"

namespace pa::rt {

LocalRuntime::LocalRuntime(LocalRuntimeConfig config)
    : config_(config), epoch_(pa::wall_seconds()) {}

LocalRuntime::~LocalRuntime() {
  std::map<std::string, std::shared_ptr<PilotEntry>> pilots;
  std::vector<std::shared_ptr<PilotEntry>> graveyard;
  {
    check::MutexLock lock(mutex_);
    pilots.swap(pilots_);
    graveyard.swap(graveyard_);
  }
  for (auto& [id, entry] : pilots) {
    stop(*entry);
    entry->pool->shutdown_now();
  }
  for (auto& entry : graveyard) {
    entry->pool->shutdown_now();
  }
}

double LocalRuntime::now() const { return pa::wall_seconds() - epoch_; }

void LocalRuntime::start_pilot(const std::string& pilot_id,
                               const core::PilotDescription& description,
                               core::PilotRuntimeCallbacks callbacks) {
  const saga::Url url = saga::Url::parse(description.resource_url);
  PA_REQUIRE_ARG(url.scheme == "local",
                 "LocalRuntime only accepts local:// URLs, got "
                     << description.resource_url);
  const int cores_per_node = static_cast<int>(description.attributes.get_int(
      "cores_per_node",
      url.query.get_int("cores_per_node", config_.default_cores_per_node)));
  PA_REQUIRE_ARG(cores_per_node > 0, "cores_per_node must be positive");
  const int total_cores = description.nodes * cores_per_node;

  auto entry = std::make_shared<PilotEntry>(total_cores);
  entry->callbacks = std::move(callbacks);
  entry->pool =
      std::make_unique<pa::ThreadPool>(static_cast<std::size_t>(total_cores));
  {
    check::MutexLock lock(mutex_);
    PA_REQUIRE_ARG(pilots_.find(pilot_id) == pilots_.end(),
                   "pilot id reused: " << pilot_id);
    pilots_.emplace(pilot_id, entry);
  }
  PA_LOG(kInfo, "local-rt") << "pilot " << pilot_id << " active with "
                            << total_cores << " threads";
  // Local allocations are immediate: report ACTIVE synchronously (the
  // Runtime contract allows it). One ready unit per core is the smallest
  // depth that takes the service round trip off each unit.
  if (entry->callbacks.on_active) {
    entry->callbacks.on_active(
        pilot_id, core::PilotCapacity{total_cores, 2 * total_cores},
        url.host);
  }
}

void LocalRuntime::cancel_pilot(const std::string& pilot_id) {
  std::shared_ptr<PilotEntry> entry;
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      throw NotFound("unknown pilot: " + pilot_id);
    }
    entry = it->second;
    pilots_.erase(it);
    graveyard_.push_back(entry);
  }
  stop(*entry);
  if (entry->callbacks.on_terminated) {
    entry->callbacks.on_terminated(pilot_id, core::PilotState::kCanceled);
  }
  // The pool's in-flight payloads finish on their own; their completions
  // are suppressed by `stopping`. Threads are joined at destruction.
}

void LocalRuntime::stop(PilotEntry& entry) {
  std::deque<Launch> dropped;
  {
    check::MutexLock lock(entry.mutex);
    entry.stopping.store(true);
    dropped.swap(entry.ready);
  }
  // `dropped` dies here, unlocked: its closures are the caller's.
}

void LocalRuntime::execute_unit(const std::string& pilot_id,
                                const core::ComputeUnitDescription& description,
                                const std::string& unit_id,
                                std::function<void(bool)> on_done) {
  std::shared_ptr<PilotEntry> entry;
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      throw NotFound("unknown pilot: " + pilot_id);
    }
    entry = it->second;
  }
  if (description.cores > entry->total_cores) {
    // It could never start; the service fits units by cores and never
    // sends one.
    on_done(false);
    return;
  }
  // Copy what the worker needs; the description may not outlive the call.
  Launch launch{description.work, description.duration, description.cores,
                unit_id, std::move(on_done)};
  {
    check::MutexLock lock(entry->mutex);
    if (entry->stopping.load()) {
      return;  // cancelled: the service requeues the pilot's units
    }
    if (!entry->ready.empty() || launch.cores > entry->free_cores) {
      entry->ready.push_back(std::move(launch));
      return;
    }
    entry->free_cores -= launch.cores;
  }
  start(entry, std::move(launch));
}

void LocalRuntime::start(const std::shared_ptr<PilotEntry>& entry,
                         Launch launch) {
  try {
    entry->pool->enqueue([entry, launch = std::move(launch)]() mutable {
      run(entry, std::move(launch));
    });
  } catch (const InvalidStateError&) {
    // The pool shut down with the runtime; its pilot is stopping.
  }
}

void LocalRuntime::run(const std::shared_ptr<PilotEntry>& entry,
                       Launch launch) {
  for (;;) {
    if (entry->stopping.load()) {
      return;  // a stopped pilot starts no ready unit
    }
    bool ok = true;
    try {
      if (launch.work) {
        launch.work();
      } else {
        pa::burn_cpu(launch.duration);
      }
    } catch (const std::exception& e) {
      PA_LOG(kWarn, "local-rt")
          << "unit " << launch.unit_id << " payload threw: " << e.what();
      ok = false;
    } catch (...) {
      ok = false;
    }
    // Free this unit's cores and take the ready launches that now fit,
    // in order: the first that does not fit keeps its place and those
    // behind it wait too.
    std::vector<Launch> next;
    {
      check::MutexLock lock(entry->mutex);
      entry->free_cores += launch.cores;
      while (!entry->stopping.load() && !entry->ready.empty() &&
             entry->ready.front().cores <= entry->free_cores) {
        entry->free_cores -= entry->ready.front().cores;
        next.push_back(std::move(entry->ready.front()));
        entry->ready.pop_front();
      }
    }
    if (entry->stopping.load()) {
      return;  // pilot cancelled while we ran; completion is moot
    }
    launch.on_done(ok);
    if (next.empty()) {
      return;
    }
    for (std::size_t i = 1; i < next.size(); ++i) {
      start(entry, std::move(next[i]));
    }
    launch = std::move(next.front());
  }
}

std::size_t LocalRuntime::ready_units(const std::string& pilot_id) const {
  std::shared_ptr<PilotEntry> entry;
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      return 0;
    }
    entry = it->second;
  }
  check::MutexLock lock(entry->mutex);
  return entry->ready.size();
}

void LocalRuntime::drive_until(const std::function<bool()>& predicate,
                               double timeout_seconds) {
  const double deadline = pa::wall_seconds() + timeout_seconds;
  while (!predicate()) {
    if (pa::wall_seconds() > deadline) {
      throw TimeoutError("local wait timed out after " +
                         std::to_string(timeout_seconds) + " s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace pa::rt

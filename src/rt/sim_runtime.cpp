#include "pa/rt/sim_runtime.h"

#include "pa/common/error.h"
#include "pa/common/log.h"

namespace pa::rt {

SimRuntime::SimRuntime(sim::Engine& engine, saga::Session& session,
                       SimRuntimeConfig config)
    : engine_(engine), session_(session), config_(config) {}

void SimRuntime::start_pilot(const std::string& pilot_id,
                             const core::PilotDescription& description,
                             core::PilotRuntimeCallbacks callbacks) {
  PA_REQUIRE_ARG(pilots_.find(pilot_id) == pilots_.end(),
                 "pilot id reused: " << pilot_id);
  auto entry = std::make_shared<PilotEntry>();
  entry->callbacks = std::move(callbacks);
  pilots_.emplace(pilot_id, entry);

  saga::JobService service(session_, description.resource_url);

  saga::JobDescription jd;
  jd.executable = "pilot-agent";
  jd.owner = description.attributes.get_string("owner", "");
  jd.number_of_nodes = description.nodes;
  jd.walltime_limit = description.walltime;
  jd.simulated_duration = -1.0;  // placeholder job: runs until killed
  // The job callbacks are stored inside the resource's job record, and
  // entry->job keeps that resource alive: capturing `entry` by shared_ptr
  // here would close an ownership cycle (entry -> job -> resource -> callback
  // -> entry) that leaks every pilot still active at teardown. pilots_ owns
  // the entries for the runtime's lifetime, so a weak capture suffices.
  const std::weak_ptr<PilotEntry> weak = entry;
  jd.on_started = [this, weak, pilot_id](const infra::Allocation& alloc) {
    const auto entry = weak.lock();
    if (!entry || entry->terminated) {
      return;
    }
    // Agent bootstrap before the pilot is usable.
    engine_.schedule(config_.agent_bootstrap_time, [entry, pilot_id,
                                                    alloc]() {
      if (entry->terminated) {
        return;
      }
      entry->active = true;
      if (entry->callbacks.on_active) {
        // Simulated units start the moment they bind: no ready slots.
        const int cores = alloc.total_cores();
        entry->callbacks.on_active(pilot_id, core::PilotCapacity{cores, cores},
                                   alloc.site);
      }
    });
  };
  jd.on_stopped = [this, weak, pilot_id](infra::StopReason reason) {
    const auto entry = weak.lock();
    if (!entry || entry->terminated) {
      return;
    }
    entry->terminated = true;
    // Units in flight on this pilot die with the allocation.
    for (const sim::EventId ev : entry->unit_events) {
      engine_.cancel(ev);
    }
    entry->unit_events.clear();

    core::PilotState final_state = core::PilotState::kDone;
    switch (reason) {
      case infra::StopReason::kCompleted:
      case infra::StopReason::kWalltime:
        final_state = core::PilotState::kDone;
        break;
      case infra::StopReason::kCanceled:
        final_state = core::PilotState::kCanceled;
        break;
      case infra::StopReason::kPreempted:
        final_state = core::PilotState::kFailed;
        break;
    }
    if (entry->callbacks.on_terminated) {
      entry->callbacks.on_terminated(pilot_id, final_state);
    }
  };

  entry->job = service.submit(jd);
  PA_LOG(kDebug, "sim-rt") << "pilot " << pilot_id << " -> LRMS job "
                           << entry->job.id();
}

void SimRuntime::cancel_pilot(const std::string& pilot_id) {
  const auto it = pilots_.find(pilot_id);
  if (it == pilots_.end()) {
    throw NotFound("unknown pilot: " + pilot_id);
  }
  if (it->second->terminated) {
    return;
  }
  it->second->job.cancel();  // triggers on_stopped(kCanceled)
}

void SimRuntime::execute_unit(const std::string& pilot_id,
                              const core::ComputeUnitDescription& description,
                              const std::string& unit_id,
                              std::function<void(bool)> on_done) {
  const auto it = pilots_.find(pilot_id);
  if (it == pilots_.end()) {
    throw NotFound("unknown pilot: " + pilot_id);
  }
  auto entry = it->second;
  PA_CHECK_MSG(entry->active && !entry->terminated,
               "execute_unit on inactive pilot " << pilot_id);
  const double duration =
      config_.unit_dispatch_overhead + std::max(0.0, description.duration);
  // Shared slot for the event id so the completion can deregister itself.
  auto ev_slot = std::make_shared<sim::EventId>(0);
  *ev_slot = engine_.schedule(
      duration, [entry, ev_slot, done = std::move(on_done), unit_id]() {
        entry->unit_events.erase(*ev_slot);
        done(true);
      });
  entry->unit_events.insert(*ev_slot);
}

void SimRuntime::drive_until(const std::function<bool()>& predicate,
                             double timeout_seconds) {
  const double deadline = engine_.now() + timeout_seconds;
  while (!predicate()) {
    if (engine_.pending() == 0) {
      throw TimeoutError(
          "simulation drained without satisfying the wait condition "
          "(deadlock: nothing left to happen)");
    }
    if (engine_.next_event_time() > deadline) {
      throw TimeoutError("simulated wait timed out after " +
                         std::to_string(timeout_seconds) + " s");
    }
    engine_.step();
  }
}

}  // namespace pa::rt

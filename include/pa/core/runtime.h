#pragma once
/// \file runtime.h
/// \brief Runtime binding interface between the pilot middleware and an
/// execution substrate.
///
/// Two implementations exist (DESIGN.md): `pa::rt::SimRuntime`, which maps
/// pilots to simulated LRMS jobs and unit execution to DES events, and
/// `pa::rt::LocalRuntime`, which maps pilots to in-process thread pools
/// executing real payloads. The Pilot-API code above this line is shared —
/// that sharing is the abstraction claim the paper makes (R1/R2).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "pa/core/types.h"

namespace pa::core {

/// One unit of a batched launch (`Runtime::execute_units`). The
/// description is the middleware's own record; it stays valid for the
/// duration of the call, and the runtime copies what it keeps.
struct UnitLaunch {
  std::string unit_id;
  const ComputeUnitDescription* description = nullptr;
  std::function<void(bool success)> on_done;
};

/// What an ACTIVE pilot offers the service. `cores` is what a unit may
/// use at once: the scheduler never binds a unit bigger than that.
/// `capacity` (>= cores) is how many cores' worth of units the pilot takes
/// at once; the units beyond its cores wait *ready* on the pilot, which
/// starts each on its own as cores free, so the manager round trip is off
/// the unit's critical path. A runtime without such a queue reports
/// capacity = cores.
struct PilotCapacity {
  int cores = 0;
  int capacity = 0;
};

/// Callbacks the middleware registers when launching a pilot.
struct PilotRuntimeCallbacks {
  /// The placeholder job got its allocation; the agent is up.
  std::function<void(const std::string& pilot_id, PilotCapacity capacity,
                     const std::string& site)>
      on_active;
  /// The allocation ended (walltime/cancel/failure). `state` is the final
  /// pilot state to record.
  std::function<void(const std::string& pilot_id, PilotState state)>
      on_terminated;
};

/// Execution substrate for pilots and units.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Requests a pilot allocation under the caller-chosen `pilot_id`
  /// (the pilot is then SUBMITTED; callbacks report progress, keyed by
  /// that id). Callbacks may fire synchronously from this call or later
  /// from runtime-internal threads/events; callers must tolerate both.
  virtual void start_pilot(const std::string& pilot_id,
                           const PilotDescription& description,
                           PilotRuntimeCallbacks callbacks) = 0;

  /// Tears down a pilot's allocation (cancels the placeholder job).
  virtual void cancel_pilot(const std::string& pilot_id) = 0;

  /// Runs a unit's payload on a pilot that the middleware has already
  /// reserved capacity on. `on_done(success)` must eventually fire unless
  /// the pilot terminates first (in which case the middleware requeues).
  virtual void execute_unit(const std::string& pilot_id,
                            const ComputeUnitDescription& description,
                            const std::string& unit_id,
                            std::function<void(bool success)> on_done) = 0;

  /// Runs several units on one pilot, each exactly as `execute_unit`
  /// would. The default launches them one at a time. A runtime that
  /// overrides it to ship the whole batch at once says so through
  /// `batches_launches()`; such an override drops the launches of a pilot
  /// it no longer knows instead of throwing, because that pilot's
  /// termination requeues them.
  virtual void execute_units(const std::string& pilot_id,
                             std::vector<UnitLaunch> launches) {
    for (UnitLaunch& launch : launches) {
      execute_unit(pilot_id, *launch.description, launch.unit_id,
                   std::move(launch.on_done));
    }
  }

  /// True when `execute_units` costs less than the same launches one at
  /// a time (one lock hold and one wire frame per batch). The service
  /// then collects each schedule pass's launches per pilot and hands them
  /// over at the end of the pass; otherwise it launches every unit the
  /// moment it binds it.
  virtual bool batches_launches() const { return false; }

  /// Current time on this runtime's clock (simulated or wall seconds).
  virtual double now() const = 0;

  /// True when the substrate never runs callbacks concurrently with the
  /// submitting thread (everything happens on one thread, e.g. a DES).
  /// The service's control plane uses this to drain its command queue
  /// inline on the posting thread instead of spawning an apply thread —
  /// which keeps single-seed simulations bit-identical.
  virtual bool single_threaded() const { return false; }

  /// Drives the runtime until `predicate()` is true. For the simulated
  /// runtime this advances the event queue; for the local runtime it
  /// blocks the calling thread. Throws pa::TimeoutError if progress is
  /// impossible (event queue drained / timeout expired).
  virtual void drive_until(const std::function<bool()>& predicate,
                           double timeout_seconds) = 0;
};

/// Minimal interface the middleware needs from Pilot-Data to make
/// locality decisions and stage inputs (full service in pa::data).
class DataServiceInterface {
 public:
  virtual ~DataServiceInterface() = default;

  /// Bytes of data unit `du_id` resident at `site` (0 when absent).
  virtual double bytes_on_site(const std::string& du_id,
                               const std::string& site) const = 0;

  /// Total size of the data unit.
  virtual double total_bytes(const std::string& du_id) const = 0;

  /// Ensures a replica of `du_id` exists at `site`; `done` fires when it
  /// does (immediately if already resident).
  virtual void stage_to_site(const std::string& du_id, const std::string& site,
                             std::function<void()> done) = 0;

  /// Records that a unit produced (a replica of) `du_id` at `site`.
  virtual void register_output(const std::string& du_id,
                               const std::string& site) = 0;
};

}  // namespace pa::core

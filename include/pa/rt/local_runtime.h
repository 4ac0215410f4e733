#pragma once
/// \file local_runtime.h
/// \brief Runtime binding that executes real payloads on in-process
/// worker threads ("cluster-in-a-process").
///
/// A pilot maps to a dedicated thread pool whose size is the pilot's core
/// count; compute units run their `work` payloads (or burn CPU for their
/// declared duration) on those threads. This is the substrate for the
/// application engines — MapReduce, iterative K-means, dataflow — so those
/// code paths compute real results (DESIGN.md).
///
/// Ready units. A pilot reports `PilotCapacity{cores, 2 x cores}`: the
/// service binds up to one unit per core beyond what runs. A launch whose
/// cores are free (and that no earlier launch waits ahead of) starts at
/// once; any other waits, in order, in the pilot's ready FIFO. A worker
/// that finishes a unit frees its cores, takes the ready launches that
/// now fit, fires its own completion and runs the first of them itself,
/// so the next unit starts without a round trip through the service.
/// A cancelled pilot starts no ready unit: they are dropped, and the
/// service requeues them with the rest of the pilot's bound units.
///
/// Callbacks (pilot lifecycle, unit completion) fire on worker/caller
/// threads, possibly concurrently. The runtime keeps the base-class
/// `single_threaded() == false`, so `PilotComputeService` runs its
/// control plane in threaded mode: each callback just posts a command;
/// the service's apply thread does the middleware work
/// (see core/control_plane.h).

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/common/thread_pool.h"
#include "pa/core/runtime.h"

namespace pa::rt {

struct LocalRuntimeConfig {
  /// Cores per "node" when the pilot description does not carry a
  /// `cores_per_node` attribute.
  int default_cores_per_node = 1;
};

/// In-process execution substrate. Thread-safe.
///
/// Resource URLs: any URL with scheme "local" is accepted
/// (e.g. "local://workstation"); the pilot's core count is
/// `nodes * cores_per_node`.
class LocalRuntime : public core::Runtime {
 public:
  explicit LocalRuntime(LocalRuntimeConfig config = {});
  ~LocalRuntime() override;

  void start_pilot(const std::string& pilot_id,
                   const core::PilotDescription& description,
                   core::PilotRuntimeCallbacks callbacks) override;
  void cancel_pilot(const std::string& pilot_id) override;
  void execute_unit(const std::string& pilot_id,
                    const core::ComputeUnitDescription& description,
                    const std::string& unit_id,
                    std::function<void(bool)> on_done) override;
  double now() const override;
  /// Launches of `pilot_id` waiting in its ready FIFO for cores; 0 for a
  /// pilot this runtime does not know (never started, or cancelled).
  std::size_t ready_units(const std::string& pilot_id) const;
  void drive_until(const std::function<bool()>& predicate,
                   double timeout_seconds) override;

 private:
  /// What a worker needs of one unit; the description is not kept.
  struct Launch {
    std::function<void()> work;
    double duration = 0.0;
    int cores = 1;
    std::string unit_id;
    std::function<void(bool)> on_done;
  };

  struct PilotEntry {
    explicit PilotEntry(int cores) : total_cores(cores), free_cores(cores) {}
    const int total_cores;
    std::unique_ptr<pa::ThreadPool> pool;
    core::PilotRuntimeCallbacks callbacks;
    /// Set (under `mutex`) once the pilot is cancelled or the runtime
    /// goes: no ready unit starts after it, and no completion fires.
    std::atomic<bool> stopping{false};
    /// LockRank::kRuntimePilot: held around the ready FIFO and the core
    /// count only; never with the pilot-map lock, never across a payload,
    /// a callback or a pool call.
    check::Mutex mutex{check::LockRank::kRuntimePilot,
                       "rt::LocalRuntime::pilot"};
    int free_cores PA_GUARDED_BY(mutex);
    std::deque<Launch> ready PA_GUARDED_BY(mutex);
  };

  /// Hands `launch` to a pool worker (it has reserved its cores).
  static void start(const std::shared_ptr<PilotEntry>& entry, Launch launch);
  /// Worker body: runs `launch`, then each ready launch its finish lets
  /// start, while the pilot is not stopping.
  static void run(const std::shared_ptr<PilotEntry>& entry, Launch launch);
  /// Marks `entry` stopping and drops its ready launches.
  static void stop(PilotEntry& entry);

  LocalRuntimeConfig config_;
  double epoch_;
  /// LockRank::kRuntime: held only around the pilot map, never across
  /// pool joins or unit payloads.
  mutable check::Mutex mutex_{check::LockRank::kRuntime, "rt::LocalRuntime"};
  std::map<std::string, std::shared_ptr<PilotEntry>> pilots_
      PA_GUARDED_BY(mutex_);
  /// Pools of cancelled pilots are drained and destroyed lazily here to
  /// avoid joining worker threads while callers hold external locks.
  std::vector<std::shared_ptr<PilotEntry>> graveyard_ PA_GUARDED_BY(mutex_);
};

}  // namespace pa::rt

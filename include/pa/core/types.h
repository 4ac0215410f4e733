#pragma once
/// \file types.h
/// \brief The P* model vocabulary (paper Sec. IV-A, ref [6]).
///
/// The P* conceptual model defines four concepts:
///  * **Pilot** — a placeholder job holding a resource allocation;
///  * **Compute-Unit (CU)** — a self-contained task executed inside a pilot;
///  * **Pilot-Manager** — submits/monitors pilots on infrastructures;
///  * **Pilot-Agent** — runs inside the allocation and executes CUs.
/// plus two mechanisms: **late binding** of CUs to pilots and
/// **multi-level scheduling** (system-level LRMS + application-level
/// pilot scheduler). These types are shared by both runtimes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pa/common/config.h"

namespace pa::core {

/// Lifecycle of a pilot (placeholder allocation).
enum class PilotState {
  kNew,        ///< described, not yet submitted
  kSubmitted,  ///< placeholder job queued at the LRMS
  kActive,     ///< allocation held, agent running, CUs can execute
  kDone,       ///< walltime reached or drained and shut down
  kFailed,     ///< LRMS failure / preemption
  kCanceled    ///< cancelled by the application
};

/// Lifecycle of a compute unit.
enum class UnitState {
  kNew,        ///< described, not yet submitted
  kPending,    ///< accepted by the workload manager, waiting for binding
  kStagingIn,  ///< input data units are being transferred to the pilot
  kScheduled,  ///< bound to a pilot, waiting for free cores
  kRunning,    ///< executing on the pilot's cores
  kDone,
  kFailed,
  kCanceled
};

const char* to_string(PilotState s);
const char* to_string(UnitState s);
bool is_final(PilotState s);
bool is_final(UnitState s);

/// Description of a pilot: "give me this many nodes on that resource for
/// this long". The resource URL selects the SAGA adaptor (simulation) or
/// the local runtime's in-process cluster.
struct PilotDescription {
  std::string resource_url;  ///< e.g. "slurm://hpc-a", "local://host"
  int nodes = 1;
  double walltime = 3600.0;  ///< seconds
  /// Application-level priority among pilots (higher preferred by some
  /// schedulers when several pilots could take a unit).
  int priority = 0;
  /// Cost per core-hour for cost-aware scheduling; 0 = free (HPC alloc).
  double cost_per_core_hour = 0.0;
  /// Owning tenant for quota accounting and fair-share scheduling.
  /// Empty means the implicit default tenant. Normalized into
  /// `attributes["tenant"]` at submission so it survives journal replay.
  std::string tenant;
  pa::Config attributes;
};

/// Description of a compute unit.
struct ComputeUnitDescription {
  std::string name;
  int cores = 1;
  /// Simulated runtime: how long the task occupies its cores. Ignored by
  /// the local runtime when `work` is set.
  double duration = 1.0;
  /// Real payload for the local runtime; executed on a worker thread.
  std::function<void()> work;
  /// Data units that must be resident at the executing pilot's site before
  /// the unit runs (triggers stage-in through Pilot-Data).
  std::vector<std::string> input_data;
  /// Data units this unit produces (registered at the executing site).
  std::vector<std::string> output_data;
  /// Owning tenant for quota accounting and fair-share scheduling.
  /// Empty means the implicit default tenant. Normalized into
  /// `attributes["tenant"]` at submission so it survives journal replay.
  std::string tenant;
  /// Free-form hints, e.g. "preferred_site=hpc-a".
  pa::Config attributes;
};

/// Timestamps collected for every unit (simulated or wall time, depending
/// on runtime). Basis of the overhead/throughput analyses (E1, E2).
struct UnitTimes {
  double submitted = -1.0;
  double scheduled = -1.0;  ///< bound to a pilot
  double started = -1.0;    ///< first instruction on cores
  double finished = -1.0;

  double wait_time() const { return started - submitted; }
  double exec_time() const { return finished - started; }
};

/// What a shard's apply path keys a unit by: the ordinal n of the
/// facade's "unit-<n>" id, parsed once when the unit reaches the shard.
using UnitKey = std::uint64_t;

}  // namespace pa::core

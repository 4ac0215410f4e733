#pragma once
/// \file bench.h
/// \brief Shared vocabulary of the benchmark program: options, the result
/// record, clocks, and the client-side bookkeeping every workload uses
/// to check its outputs.
///
/// pabench measures the pilot system from outside. Workloads talk to
/// the public API only (PilotComputeService, StoreManager, Journal,
/// RecoveryCoordinator); per-layer numbers come from thin decorators over
/// the public interfaces (traced.h), never from code inside the library.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pa/core/types.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;  ///< work budget: input sizes scale with it
  bool trace = false;
  bool smoke = false;       ///< tiny inputs for the self-test
  std::string work_dir;     ///< scratch root; removed by the caller
  std::string trace_out;    ///< span file written by traced runs ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string what) { errors.push_back(std::move(what)); }
};

/// Steady-clock nanoseconds (spans and per-unit hop stamps).
std::int64_t now_ns();
/// Process CPU seconds (all threads).
double cpu_seconds();
/// Peak resident set size of the process, in MB.
double peak_rss_mb();
/// Exact quantile of `values` (sorted in place); 0 when empty.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);
/// splitmix64 finalizer: the payloads' seeded "computation".
std::uint64_t mix64(std::uint64_t x);

/// Terminal-transition feed of the service's UnitObserver: the client's
/// completion signal (standing backlog, round barriers) and the record
/// the exactly-once check reads after the run.
class CompletionLog {
 public:
  /// The observer callback to register with observe_units().
  void on_transition(const std::string& unit_id, pa::core::UnitState to);
  /// Blocks until at least `count` units reached a terminal state or the
  /// absolute steady-clock deadline passes; returns the count seen.
  std::uint64_t wait_for(std::uint64_t count, std::int64_t deadline_ns);
  std::uint64_t count() const { return count_.load(); }

  struct Final {
    std::string unit_id;
    pa::core::UnitState state;
    std::int64_t at_ns;
  };
  /// Every terminal transition seen so far, in observation order.
  std::vector<Final> finals() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Final> finals_;
  std::atomic<std::uint64_t> count_{0};
  std::uint64_t wake_at_ = UINT64_MAX;  ///< guarded by mu_
};

/// Client-side record of every unit a run submits: ids in submission
/// order, how often each payload ran, and what it computed.
class UnitBook {
 public:
  explicit UnitBook(std::size_t capacity, std::uint64_t seed);

  std::size_t size() const { return ids_.size(); }
  /// Reserves the next index for a description about to be submitted;
  /// names it "u<index>" so decorators can map the unit back to its slot.
  std::size_t next_index(pa::core::ComputeUnitDescription& d);
  /// Records the ids submit_units returned, in order.
  void add_ids(const std::vector<std::string>& ids);
  const std::string& id(std::size_t index) const { return ids_[index]; }

  /// Payload closure for slot `index`: counts its run and stores the
  /// seeded output. With `stamps` set it also records start/end times.
  std::function<void()> payload(std::size_t index,
                                std::atomic<std::int64_t>* start_ns,
                                std::atomic<std::int64_t>* end_ns);

  /// Exactly-once check over `[0, size())`: every unit reached exactly
  /// one terminal state; a DONE unit's payload ran exactly once and
  /// produced its seeded output; any other terminal unit ran at most
  /// once. Returns the number of units that ended other than DONE.
  std::uint64_t check(const std::vector<CompletionLog::Final>& finals,
                      Result& result) const;

 private:
  const std::size_t capacity_;
  const std::uint64_t seed_;
  std::vector<std::string> ids_;
  std::size_t reserved_ = 0;
  std::unique_ptr<std::atomic<std::uint32_t>[]> runs_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> outputs_;
};

/// Parses the slot index out of a "u<index>" unit name; -1 otherwise.
long unit_index(const std::string& name);

Result run_farm_backlog(const Options& options);
Result run_ensemble_durable(const Options& options);
Result run_stage_farm(const Options& options);

}  // namespace perfbench

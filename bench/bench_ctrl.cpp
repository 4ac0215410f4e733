/// E15 — control-plane dispatch throughput; E15b — shard scaling and
/// multi-tenant isolation.
///
/// The RADICAL-Pilot characterization study (PAPERS.md) shows manager-side
/// dispatch rate — not agent capacity — caps units/s at scale. This binary
/// measures exactly that path: a SyntheticRuntime whose pilots activate
/// instantly and whose units complete immediately from a pool of
/// substrate threads, so the only cost left between submit and done is
/// the middleware control plane (command handling, state transitions,
/// scheduling, bookkeeping). Steady-state dispatch throughput on the
/// 64-pilot / 50k-unit workload is the acceptance number recorded in
/// EXPERIMENTS.md E15; the sharded sweep (--shards) and the noisy-tenant
/// scenario (--tenants + --noisy) are E15b.
///
/// Flags: --pilots N --units N --cores N (per pilot) --threads N
///        (completion threads) --warmup N --timeout S --metrics-out FILE
///        --shards N (control-plane shards)
///        --tenants M (spread units over M tenants via a TenantRegistry)
///        --noisy (tenant t0 submits 10x every other tenant's units)
///        --assert-shard-speedup X (run 1 shard and --shards shards three
///        times each, interleaved, and fail unless the median units/s
///        improved by at least X; skipped on hosts with fewer than 4
///        cores, where shards cannot run in parallel)

#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/table.h"
#include "pa/common/thread_pool.h"
#include "pa/common/time_utils.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/obs/metrics.h"
#include "pa/tenant/registry.h"

namespace {

using namespace pa;  // NOLINT

/// Execution substrate reduced to its callback contract: pilots become
/// active synchronously inside start_pilot, units complete immediately
/// from `threads` pool workers. Every nanosecond measured downstream is
/// middleware, not substrate.
class SyntheticRuntime : public core::Runtime {
 public:
  explicit SyntheticRuntime(int threads) : completions_(threads) {}
  ~SyntheticRuntime() override { completions_.shutdown(); }

  void start_pilot(const std::string& pilot_id,
                   const core::PilotDescription& description,
                   core::PilotRuntimeCallbacks callbacks) override {
    {
      check::MutexLock lock(mutex_);
      pilots_[pilot_id] = callbacks;
    }
    // Like LocalRuntime: activation fires synchronously, lock released.
    callbacks.on_active(
        pilot_id, core::PilotCapacity{description.nodes, description.nodes},
        "synth");
  }

  void cancel_pilot(const std::string& pilot_id) override {
    core::PilotRuntimeCallbacks cb;
    {
      check::MutexLock lock(mutex_);
      auto it = pilots_.find(pilot_id);
      if (it == pilots_.end()) {
        return;
      }
      cb = it->second;
      pilots_.erase(it);
    }
    if (cb.on_terminated) {
      cb.on_terminated(pilot_id, core::PilotState::kCanceled);
    }
  }

  void execute_unit(const std::string& /*pilot_id*/,
                    const core::ComputeUnitDescription& /*description*/,
                    const std::string& /*unit_id*/,
                    std::function<void(bool)> on_done) override {
    completions_.enqueue([on_done = std::move(on_done)] { on_done(true); });
  }

  double now() const override { return wall_seconds(); }

  void drive_until(const std::function<bool()>& predicate,
                   double timeout_seconds) override {
    const double deadline = wall_seconds() + timeout_seconds;
    while (!predicate()) {
      if (wall_seconds() >= deadline) {
        throw TimeoutError("bench_ctrl: drive_until timed out");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

 private:
  mutable check::Mutex mutex_{check::LockRank::kRuntime, "SyntheticRuntime"};
  std::map<std::string, core::PilotRuntimeCallbacks> pilots_
      PA_GUARDED_BY(mutex_);
  pa::ThreadPool completions_;
};

int int_flag(int argc, char** argv, const std::string& name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) {
      return std::stoi(argv[i + 1]);
    }
  }
  return fallback;
}

double double_flag(int argc, char** argv, const std::string& name,
                   double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) {
      return std::stod(argv[i + 1]);
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == "--" + name) {
      return true;
    }
  }
  return false;
}

std::uint64_t counter_or_zero(const obs::MetricsRegistry& metrics,
                              const std::string& name) {
  for (const auto& [counter_name, value] : metrics.counters()) {
    if (counter_name == name) {
      return value;
    }
  }
  return 0;
}

struct RunConfig {
  int pilots = 64;
  int units = 50000;
  int cores = 8;
  int threads = 4;
  int warmup = 2000;
  int timeout = 1200;
  int shards = 1;
  int tenants = 1;
  bool noisy = false;
};

struct RunResult {
  double elapsed = 0.0;
  double units_per_s = 0.0;
  /// tenant name -> (units submitted, units/s over the measured window)
  std::vector<std::pair<std::string, double>> tenant_units_per_s;
};

std::string tenant_name(int i) { return "t" + std::to_string(i); }

/// One full measurement: fresh runtime/service/registry so sweep points
/// never share warmed state.
RunResult run_once(const RunConfig& cfg, obs::MetricsRegistry* metrics) {
  SyntheticRuntime runtime(cfg.threads);
  pa::core::PilotComputeService::Options options;
  options.scheduler_policy = "fifo";
  options.shards = cfg.shards;
  pa::core::PilotComputeService service(runtime, options);
  if (metrics != nullptr) {
    service.attach_observability(nullptr, metrics);
  }

  pa::tenant::TenantRegistry registry(
      [&runtime]() { return runtime.now(); });
  if (cfg.tenants > 1) {
    for (int t = 0; t < cfg.tenants; ++t) {
      registry.set_weight(tenant_name(t), 1.0);
    }
    if (metrics != nullptr) {
      registry.set_metrics(metrics);
    }
    service.attach_admission(&registry, /*fair_share=*/true);
  }

  for (int i = 0; i < cfg.pilots; ++i) {
    pa::core::PilotDescription pd;
    pd.resource_url = "synth://ctrl";
    pd.nodes = cfg.cores;
    pd.walltime = 1e9;
    service.submit_pilot(pd).wait_active(10.0);
  }

  // The noisy tenant submits 10x each quiet tenant's units: total load is
  // split so t0 gets 10 load shares and every other tenant one.
  std::vector<int> tenant_units(std::max(1, cfg.tenants), 0);
  auto make_batch = [&](int n) {
    std::vector<pa::core::ComputeUnitDescription> batch(n);
    const int noisy_mult = cfg.noisy ? 10 : 1;
    const int load_shares =
        cfg.tenants > 1 ? noisy_mult + (cfg.tenants - 1) : 1;
    for (int i = 0; i < n; ++i) {
      auto& d = batch[static_cast<std::size_t>(i)];
      d.cores = 1;
      d.duration = 0.0;
      if (cfg.tenants > 1) {
        // Deal load shares round-robin; shares [0, noisy_mult) are t0's.
        const int share = i % load_shares;
        const int t = share < noisy_mult ? 0 : share - noisy_mult + 1;
        d.tenant = tenant_name(t);
        ++tenant_units[static_cast<std::size_t>(t)];
      }
    }
    return batch;
  };

  if (cfg.warmup > 0) {
    service.submit_units(make_batch(cfg.warmup));
    service.wait_all_units(static_cast<double>(cfg.timeout));
    std::fill(tenant_units.begin(), tenant_units.end(), 0);
  }

  pa::Stopwatch watch;
  service.submit_units(make_batch(cfg.units));
  service.wait_all_units(static_cast<double>(cfg.timeout));

  RunResult result;
  result.elapsed = watch.elapsed();
  result.units_per_s = static_cast<double>(cfg.units) / result.elapsed;
  if (cfg.tenants > 1) {
    for (int t = 0; t < cfg.tenants; ++t) {
      result.tenant_units_per_s.emplace_back(
          tenant_name(t),
          static_cast<double>(tenant_units[static_cast<std::size_t>(t)]) /
              result.elapsed);
    }
  }
  service.shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.pilots = int_flag(argc, argv, "pilots", 64);
  cfg.units = int_flag(argc, argv, "units", 50000);
  cfg.cores = int_flag(argc, argv, "cores", 8);
  cfg.threads = int_flag(argc, argv, "threads", 4);
  cfg.warmup =
      int_flag(argc, argv, "warmup", std::min(cfg.units / 10, 2000));
  cfg.timeout = int_flag(argc, argv, "timeout", 1200);
  cfg.shards = int_flag(argc, argv, "shards", 1);
  cfg.tenants = int_flag(argc, argv, "tenants", 1);
  cfg.noisy = has_flag(argc, argv, "noisy");
  const double assert_speedup =
      double_flag(argc, argv, "assert-shard-speedup", 0.0);
  const std::string metrics_path = pa::bench::metrics_out_path(argc, argv);

  pa::bench::print_header(
      "E15", "control-plane dispatch throughput (SyntheticRuntime, " +
                 std::to_string(cfg.pilots) + " pilots x " +
                 std::to_string(cfg.cores) + " cores, " +
                 std::to_string(cfg.units) + " units, " +
                 std::to_string(cfg.shards) + " shard(s), " +
                 std::to_string(cfg.tenants) + " tenant(s)" +
                 (cfg.noisy ? ", noisy t0" : "") + ")");

  pa::obs::MetricsRegistry metrics;
  const bool assert_shards = assert_speedup > 0.0 && cfg.shards > 1;
  const bool parallel_host = std::thread::hardware_concurrency() >= 4;
  RunResult result;
  double speedup = 0.0;
  if (assert_shards && parallel_host) {
    // Interleave the legs (1, N, 1, N, 1, N) so host noise lasting a run
    // or two hits both, and gate on the ratio of the legs' medians. The
    // tables below report the last sharded run.
    constexpr int kLegRuns = 3;
    RunConfig base = cfg;
    base.shards = 1;
    pa::SampleSet base_ups;
    pa::SampleSet sharded_ups;
    for (int i = 1; i <= kLegRuns; ++i) {
      base_ups.add(run_once(base, nullptr).units_per_s);
      std::cout << "run " << i << "/" << kLegRuns << ", 1 shard: "
                << static_cast<std::int64_t>(base_ups.values().back())
                << " units/s\n";
      result = run_once(cfg, i == kLegRuns ? &metrics : nullptr);
      sharded_ups.add(result.units_per_s);
      std::cout << "run " << i << "/" << kLegRuns << ", " << cfg.shards
                << " shards: " << static_cast<std::int64_t>(result.units_per_s)
                << " units/s\n";
    }
    speedup = sharded_ups.median() / base_ups.median();
  } else {
    result = run_once(cfg, &metrics);
  }

  pa::Table table("E15: steady-state dispatch throughput");
  table.set_columns({pa::Column{"pilots", 0, true},
                     pa::Column{"units", 0, true},
                     pa::Column{"shards", 0, true},
                     pa::Column{"elapsed_s", 2, true},
                     pa::Column{"units_per_s", 0, true},
                     pa::Column{"sched_passes", 0, true},
                     pa::Column{"passes_skipped", 0, true}});
  table.add_row(
      {static_cast<std::int64_t>(cfg.pilots),
       static_cast<std::int64_t>(cfg.units),
       static_cast<std::int64_t>(cfg.shards), result.elapsed,
       result.units_per_s,
       static_cast<std::int64_t>(
           counter_or_zero(metrics, "wm.schedule_passes")),
       static_cast<std::int64_t>(
           counter_or_zero(metrics, "wm.schedule_passes_skipped"))});
  table.print(std::cout);

  if (!result.tenant_units_per_s.empty()) {
    pa::Table tenants_table("E15b: per-tenant throughput");
    tenants_table.set_columns({pa::Column{"tenant", 0, true},
                               pa::Column{"units_per_s", 0, true},
                               pa::Column{"admitted", 0, true},
                               pa::Column{"share_units", 0, true}});
    for (const auto& [name, ups] : result.tenant_units_per_s) {
      tenants_table.add_row(
          {name, ups,
           static_cast<std::int64_t>(
               counter_or_zero(metrics, "tenant." + name + ".admitted")),
           static_cast<std::int64_t>(counter_or_zero(
               metrics, "tenant." + name + ".share_units"))});
    }
    tenants_table.print(std::cout);
  }

  // Control-plane telemetry (per shard after the sharding refactor).
  pa::Table ctrl("E15b: control-plane telemetry");
  ctrl.set_columns({pa::Column{"metric", 0, true},
                    pa::Column{"value", 3, false}});
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("ctrl.", 0) == 0) {
      ctrl.add_row({name, static_cast<std::int64_t>(value)});
    }
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    if (name.rfind("ctrl.", 0) == 0) {
      ctrl.add_row({name + ".count",
                    static_cast<std::int64_t>(hist.count())});
      ctrl.add_row({name + ".mean", hist.mean()});
      ctrl.add_row({name + ".p99", hist.quantile(0.99)});
    }
  }
  ctrl.print(std::cout);

  pa::bench::write_metrics_file(metrics_path, &metrics);

  if (assert_shards) {
    if (!parallel_host) {
      std::cout << "SKIP shard-speedup assertion: "
                << std::thread::hardware_concurrency()
                << " hardware threads cannot run shards in parallel\n";
      return 0;
    }
    std::cout << "shard speedup: " << speedup << "x (median of " << cfg.shards
              << "-shard runs vs median of 1-shard runs), required >= "
              << assert_speedup << "x\n";
    if (speedup < assert_speedup) {
      std::cerr << "FAIL: shard scaling below threshold\n";
      return 1;
    }
  }
  return 0;
}

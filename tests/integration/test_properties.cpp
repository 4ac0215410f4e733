/// Full-stack property tests: randomized workloads over the simulated
/// stack, swept across seeds and scheduling policies (parameterized), and
/// checked against the global invariants in DESIGN.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>

#include "pa/common/rng.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/infra/batch_cluster.h"
#include "pa/infra/htc_pool.h"
#include "pa/rt/sim_runtime.h"
#include "pa/saga/session.h"

namespace pa {
namespace {

struct Sweep {
  std::uint64_t seed;
  std::string policy;
};

/// Without this gtest prints a Sweep as its raw bytes, heap pointer
/// included, and every build registers the cases under new ctest names.
void PrintTo(const Sweep& sweep, std::ostream* os) {
  *os << "seed=" << sweep.seed << " policy=" << sweep.policy;
}

class FullStackProperty : public ::testing::TestWithParam<Sweep> {};

TEST_P(FullStackProperty, RandomWorkloadSatisfiesInvariants) {
  const auto [seed, policy] = GetParam();
  pa::Rng rng(seed);

  sim::Engine engine;
  saga::Session session;
  infra::BatchClusterConfig hpc_cfg;
  hpc_cfg.name = "hpc";
  hpc_cfg.num_nodes = static_cast<int>(rng.uniform_int(4, 32));
  hpc_cfg.node.cores = 8;
  // Randomize the LRMS realism knobs too.
  hpc_cfg.scheduler_cycle = rng.bernoulli(0.5) ? 30.0 : 0.0;
  hpc_cfg.max_running_per_owner =
      rng.bernoulli(0.5) ? static_cast<int>(rng.uniform_int(2, 8)) : 0;
  auto hpc = std::make_shared<infra::BatchCluster>(engine, hpc_cfg);
  session.register_resource("slurm://hpc", hpc);

  infra::HtcPoolConfig htc_cfg;
  htc_cfg.name = "htc";
  htc_cfg.num_slots = static_cast<int>(rng.uniform_int(8, 64));
  htc_cfg.cores_per_slot = 4;
  htc_cfg.seed = seed + 1;
  auto htc = std::make_shared<infra::HtcPool>(engine, htc_cfg);
  session.register_resource("condor://htc", htc);

  rt::SimRuntime runtime(engine, session);
  core::PilotComputeService service(runtime, policy);

  // 1-3 pilots across the two sites.
  const int pilots = static_cast<int>(rng.uniform_int(1, 3));
  int max_unit_cores = 0;
  for (int p = 0; p < pilots; ++p) {
    core::PilotDescription pd;
    if (rng.bernoulli(0.5)) {
      pd.resource_url = "slurm://hpc";
      pd.nodes = static_cast<int>(
          rng.uniform_int(1, std::max(1, hpc_cfg.num_nodes / 2)));
      max_unit_cores = std::max(max_unit_cores, pd.nodes * 8);
    } else {
      pd.resource_url = "condor://htc";
      pd.nodes = static_cast<int>(
          rng.uniform_int(1, std::max(1, htc_cfg.num_slots / 2)));
      max_unit_cores = std::max(max_unit_cores, pd.nodes * 4);
    }
    pd.walltime = 7 * 24 * 3600.0;
    service.submit_pilot(pd);
  }

  const int units = static_cast<int>(rng.uniform_int(10, 200));
  for (int u = 0; u < units; ++u) {
    core::ComputeUnitDescription d;
    d.cores = static_cast<int>(
        rng.uniform_int(1, std::max<std::int64_t>(1, max_unit_cores)));
    d.duration = rng.uniform(1.0, 300.0);
    service.submit_unit(d);
  }

  service.wait_all_units(60 * 24 * 3600.0);
  const auto m = service.metrics();

  // Invariant: conservation — every unit reaches exactly one final state.
  EXPECT_EQ(m.units_done + m.units_failed + m.units_canceled,
            static_cast<std::size_t>(units));
  EXPECT_EQ(m.units_done, static_cast<std::size_t>(units));
  EXPECT_EQ(service.unfinished_units(), 0u);

  // Invariant: time sanity — waits and exec times non-negative, makespan
  // covers the longest unit.
  EXPECT_GE(m.unit_wait_times.min(), 0.0);
  EXPECT_GT(m.unit_exec_times.min(), 0.0);
  EXPECT_GE(m.makespan(), m.unit_exec_times.max());

  // Invariant: after pilot teardown the infrastructures end drained.
  service.shutdown();
  engine.run();
  EXPECT_EQ(hpc->free_nodes(), hpc_cfg.num_nodes);
  EXPECT_EQ(htc->free_slots(), htc_cfg.num_slots);
}

std::vector<Sweep> make_sweeps() {
  std::vector<Sweep> sweeps;
  for (const char* policy :
       {"fifo", "backfill", "round-robin", "largest-first"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      sweeps.push_back({seed, policy});
    }
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, FullStackProperty, ::testing::ValuesIn(make_sweeps()),
    [](const ::testing::TestParamInfo<Sweep>& info) {
      std::string name =
          info.param.policy + "_seed" + std::to_string(info.param.seed);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// Bit-determinism of the whole stack: identical seeds => identical
/// makespans, across every policy.
class DeterminismProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismProperty, FullStackIsReproducible) {
  auto run_once = [&](std::uint64_t seed) {
    pa::Rng rng(seed);
    sim::Engine engine;
    saga::Session session;
    infra::BatchClusterConfig cfg;
    cfg.name = "hpc";
    cfg.num_nodes = 16;
    cfg.node.cores = 8;
    auto hpc = std::make_shared<infra::BatchCluster>(engine, cfg);
    session.register_resource("slurm://hpc", hpc);
    rt::SimRuntime runtime(engine, session);
    core::PilotComputeService service(runtime, GetParam());
    core::PilotDescription pd;
    pd.resource_url = "slurm://hpc";
    pd.nodes = 8;
    pd.walltime = 1e6;
    service.submit_pilot(pd);
    for (int i = 0; i < 100; ++i) {
      core::ComputeUnitDescription d;
      d.cores = static_cast<int>(rng.uniform_int(1, 8));
      d.duration = rng.uniform(1.0, 60.0);
      service.submit_unit(d);
    }
    service.wait_all_units(1e7);
    return service.metrics().makespan();
  };
  EXPECT_DOUBLE_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));  // and seeds actually matter
}

INSTANTIATE_TEST_SUITE_P(Policies, DeterminismProperty,
                         ::testing::Values("fifo", "backfill", "round-robin",
                                           "largest-first", "cost-aware"));

}  // namespace
}  // namespace pa

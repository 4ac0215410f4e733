/// Dataflow scenario (paper Table I): a multi-stage DAG pipeline in the
/// Dryad/LGDF2 lineage — here a small analysis pipeline over synthetic
/// molecular-dynamics-style trajectory data (cf. the MDAnalysis
/// task-parallel study, paper ref [53]).
///
///   generate ──> rmsd ────┐
///            └─> contacts ┴─> report
///
/// Stages exchange partitioned data through the Pilot-Memory store.

#include <cmath>
#include <iostream>
#include <vector>

#include "pa/common/rng.h"
#include "pa/common/stats.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/engines/dataflow.h"
#include "pa/rt/local_runtime.h"

namespace {

/// A toy trajectory: F frames of N 3-D coordinates.
struct Trajectory {
  int frames = 0;
  int atoms = 0;
  std::vector<double> xyz;  ///< frames * atoms * 3

  const double* frame(int f) const { return xyz.data() + f * atoms * 3; }
};

Trajectory make_trajectory(int frames, int atoms, std::uint64_t seed) {
  pa::Rng rng(seed);
  Trajectory t;
  t.frames = frames;
  t.atoms = atoms;
  t.xyz.resize(static_cast<std::size_t>(frames) * atoms * 3);
  // Random walk per atom, so later frames drift away from frame 0.
  for (int a = 0; a < atoms; ++a) {
    double pos[3] = {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                     rng.uniform(0.0, 10.0)};
    for (int f = 0; f < frames; ++f) {
      for (int d = 0; d < 3; ++d) {
        pos[d] += rng.normal(0.0, 0.05);
        t.xyz[(static_cast<std::size_t>(f) * atoms + a) * 3 +
              static_cast<std::size_t>(d)] = pos[d];
      }
    }
  }
  return t;
}

double rmsd(const Trajectory& t, int frame) {
  const double* ref = t.frame(0);
  const double* cur = t.frame(frame);
  double sum = 0.0;
  for (int i = 0; i < t.atoms * 3; ++i) {
    const double d = cur[i] - ref[i];
    sum += d * d;
  }
  return std::sqrt(sum / t.atoms);
}

int contacts(const Trajectory& t, int frame, double cutoff) {
  const double* xyz = t.frame(frame);
  int count = 0;
  for (int a = 0; a < t.atoms; ++a) {
    for (int b = a + 1; b < t.atoms; ++b) {
      double d2 = 0.0;
      for (int d = 0; d < 3; ++d) {
        const double diff = xyz[a * 3 + d] - xyz[b * 3 + d];
        d2 += diff * diff;
      }
      if (d2 < cutoff * cutoff) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

int main() {
  using namespace pa;  // NOLINT(google-build-using-namespace): example brevity

  rt::LocalRuntime runtime;
  core::PilotComputeService service(runtime);
  core::PilotDescription pd;
  pd.resource_url = "local://workstation";
  pd.nodes = 4;
  pd.walltime = 1e9;
  service.submit_pilot(pd).wait_active(10.0);

  mem::InMemoryStore store;
  engines::DataflowGraph graph(store);

  constexpr int kFrames = 200;
  constexpr int kAtoms = 120;

  graph.add_stage("generate", 1, [](const engines::StageContext& ctx) {
    const Trajectory traj = make_trajectory(kFrames, kAtoms, 777);
    ctx.store->put_typed<Trajectory>(
        "traj", traj, static_cast<double>(traj.xyz.size() * sizeof(double)));
  });

  graph.add_stage(
      "rmsd", 4,
      [](const engines::StageContext& ctx) {
        const auto traj = ctx.store->get_typed<Trajectory>("traj");
        std::vector<double> series;
        for (int f = ctx.task_index; f < traj->frames;
             f += ctx.parallelism) {
          series.push_back(rmsd(*traj, f));
        }
        ctx.store->put_typed<std::vector<double>>(
            "rmsd-" + std::to_string(ctx.task_index), series,
            static_cast<double>(series.size() * sizeof(double)));
      },
      {"generate"});

  graph.add_stage(
      "contacts", 4,
      [](const engines::StageContext& ctx) {
        const auto traj = ctx.store->get_typed<Trajectory>("traj");
        std::vector<double> series;
        for (int f = ctx.task_index; f < traj->frames;
             f += ctx.parallelism) {
          series.push_back(static_cast<double>(contacts(*traj, f, 1.5)));
        }
        ctx.store->put_typed<std::vector<double>>(
            "contacts-" + std::to_string(ctx.task_index), series,
            static_cast<double>(series.size() * sizeof(double)));
      },
      {"generate"});

  graph.add_stage(
      "report", 1,
      [](const engines::StageContext& ctx) {
        SampleSet rmsd_all;
        SampleSet contact_all;
        for (int t = 0; t < 4; ++t) {
          for (const double v : *ctx.store->get_typed<std::vector<double>>(
                   "rmsd-" + std::to_string(t))) {
            rmsd_all.add(v);
          }
          for (const double v : *ctx.store->get_typed<std::vector<double>>(
                   "contacts-" + std::to_string(t))) {
            contact_all.add(v);
          }
        }
        std::cout << "RMSD over trajectory:     " << rmsd_all.summary()
                  << "\n"
                  << "contact pairs per frame:  " << contact_all.summary()
                  << "\n";
      },
      {"rmsd", "contacts"});

  std::cout << "pipeline plan:";
  for (const auto& stage : graph.topological_order()) {
    std::cout << " " << stage;
  }
  std::cout << "\n";

  const engines::DataflowResult result = graph.run(service);
  std::cout << "\nstage timings:\n";
  for (const auto& s : result.stages) {
    std::cout << "  " << s.name << " (" << s.tasks << " tasks): "
              << s.seconds << " s\n";
  }
  std::cout << "total: " << result.total_seconds << " s\n";
  return 0;
}

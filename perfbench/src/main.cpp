/// pabench — runs one benchmark workload against the pilot system and
/// prints one JSON result line:
///   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
///
/// Usage: pabench --workload <farm_backlog|ensemble_durable|stage_farm>
///                --seed N --seconds N --trace 0|1 --work DIR
///                [--trace-out FILE] [--smoke]
/// Exit status: 0 when every output check passed, 1 when one failed
/// (the result line is still printed), 2 on a usage or run error.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stoi(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--work") {
        o.work_dir = value();
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      std::cerr << "pabench: " << e.what() << "\n";
      return 2;
    }
  }
  if (o.work_dir.empty() || o.seconds < 1) {
    std::cerr << "pabench: --work DIR and --seconds >= 1 are required\n";
    return 2;
  }

  perfbench::Result r;
  try {
    if (o.workload == "farm_backlog") {
      r = perfbench::run_farm_backlog(o);
    } else if (o.workload == "ensemble_durable") {
      r = perfbench::run_ensemble_durable(o);
    } else if (o.workload == "stage_farm") {
      r = perfbench::run_stage_farm(o);
    } else {
      std::cerr << "pabench: unknown workload '" << o.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "pabench: " << o.workload << " failed: " << e.what() << "\n";
    return 2;
  }

  for (const perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.error("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& e : r.errors) {
    std::cerr << "pabench: check failed: " << e << "\n";
  }
  const bool correct = r.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << (std::isfinite(m.value) ? json_number(m.value) : "0")
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

// The benchmark's workloads. Each one builds its networks, runs its
// simulations through the library's public entry points and returns the
// simulated points plus the seconds it spent in each layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"

namespace perfbench {

/// One complete execution of a workload: setup plus simulation.
struct Iteration {
  bool traced = false;
  double wall_s = 0.0;   ///< setup + simulation
  double setup_s = 0.0;  ///< start -> just before the first Simulation
  double sim_s = 0.0;    ///< Simulation ctor + run, or ExperimentRunner::run
  std::vector<Point> points;
  /// Seconds and counts only the workload can measure, keyed by per-layer
  /// metric name (core.build_s, runlab.util, ...).
  std::map<std::string, double> layer;
};

struct WorkloadDef {
  const char* name;
  /// `traced` turns on the engine self-profiler and the extra per-layer
  /// measurements; the end-to-end metrics come from untraced iterations.
  Iteration (*run)(std::uint64_t seed, bool traced, Tracer& tracer);
};

const std::vector<WorkloadDef>& workloads();

}  // namespace perfbench

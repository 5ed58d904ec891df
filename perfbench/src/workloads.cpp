#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "collective/edst.h"
#include "collective/engine.h"
#include "core/bundlefly.h"
#include "core/polarstar.h"
#include "fault/schedule.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/hyperx.h"
#include "topo/lps.h"
#include "topo/megafly.h"

namespace perfbench {

namespace {

using namespace polarstar;

/// Runlab workloads use every cpu of the 4-cpu reference host as load
/// chains; no workload starts more than 4 threads.
constexpr unsigned kThreads = 4;

/// Shard count reaches the engine through POLARSTAR_SHARDS only, never
/// through a SimParams field, so the benchmark compiles unchanged against
/// an engine without sharding.
void set_shards(unsigned shards) {
  setenv("POLARSTAR_SHARDS", std::to_string(shards).c_str(), 1);
}

/// Runs `f` inside a span and adds its seconds to the layer metric
/// `<span>_s`.
template <class F>
auto timed(Tracer& tracer, Iteration& it, const char* span, F&& f) {
  Tracer::Scope scope(tracer, span);
  auto result = f();
  it.layer[std::string(span) + "_s"] += scope.end();
  return result;
}

struct Net {
  std::string name;
  std::shared_ptr<const core::PolarStar> ps;  // null for table topologies
  std::shared_ptr<const sim::Network> net;
  bool all_minpaths = false;  // adaptive pick among all minimal ports
};

Net build_polarstar(Tracer& tracer, Iteration& it, const std::string& name,
                    core::PolarStarConfig cfg) {
  Net n;
  n.name = name;
  n.all_minpaths = true;
  n.ps = timed(tracer, it, "core.build", [&] {
    return std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  });
  auto routing = timed(tracer, it, "routing.build",
                       [&] { return routing::make_polarstar_routing(n.ps); });
  n.net = timed(tracer, it, "sim.network", [&] {
    return std::make_shared<const sim::Network>(core::shared_topology(n.ps),
                                                std::move(routing));
  });
  return n;
}

Net build_table(Tracer& tracer, Iteration& it, const std::string& name,
                const std::function<topo::Topology()>& build,
                bool all_minpaths) {
  Net n;
  n.name = name;
  n.all_minpaths = all_minpaths;
  auto topo = timed(tracer, it, "core.build", [&] {
    return std::make_shared<const topo::Topology>(build());
  });
  auto routing = timed(
      tracer, it, "routing.build",
      [&]() -> std::shared_ptr<const routing::MinimalRouting> {
        // Dragonfly uses its hierarchical (one gateway per group pair)
        // routing, every other table topology all-pairs tables.
        if (name == "DF") {
          return std::make_shared<routing::DragonflyRouting>(topo);
        }
        return routing::make_table_routing(topo->g);
      });
  n.net = timed(tracer, it, "sim.network", [&] {
    return std::make_shared<const sim::Network>(std::move(topo),
                                                std::move(routing));
  });
  return n;
}

const core::PolarStarConfig kTable3PsIq{
    11, 3, core::SupernodeKind::kInductiveQuad, 5};
const core::PolarStarConfig kReducedPsIq{
    5, 3, core::SupernodeKind::kInductiveQuad, 3};

Net build_reduced(Tracer& tracer, Iteration& it, const std::string& name) {
  if (name == "PS-IQ") return build_polarstar(tracer, it, name, kReducedPsIq);
  if (name == "PS-Pal") {
    return build_polarstar(tracer, it, name,
                           {4, 4, core::SupernodeKind::kPaley, 3});
  }
  if (name == "BF") {
    return build_table(tracer, it, name,
                       [] { return core::bundlefly::build({5, 5, 3}); }, true);
  }
  if (name == "HX") {
    return build_table(tracer, it, name,
                       [] { return topo::hyperx::build({{4, 4, 5}, 3}); },
                       true);
  }
  if (name == "DF") {
    return build_table(tracer, it, name,
                       [] { return topo::dragonfly::build({7, 3, 3}); }, false);
  }
  if (name == "SF") {
    return build_table(tracer, it, name,
                       [] { return topo::lps::build({11, 5, 4}); }, true);
  }
  if (name == "MF") {
    return build_table(tracer, it, name,
                       [] { return topo::megafly::build({4, 4, 4}); }, false);
  }
  return build_table(tracer, it, name,
                     [] { return topo::fattree::build({6}); }, true);
}

/// Largest pristine routing distance: the hop bound of a minimal route.
std::uint32_t diameter(const sim::Network& net) {
  std::uint32_t d = 0;
  const std::uint32_t n = net.num_routers();
  for (graph::Vertex s = 0; s < n; ++s) {
    for (graph::Vertex t = 0; t < n; ++t) {
      const std::uint32_t dist = net.distance(s, t);
      if (dist != graph::kUnreachable) d = std::max(d, dist);
    }
  }
  return d;
}

sim::SimParams base_params(const Net& n, sim::PathMode mode,
                           std::uint64_t seed) {
  sim::SimParams prm;
  prm.warmup_cycles = 500;
  prm.measure_cycles = 1500;
  prm.drain_cycles = 8000;
  prm.path_mode = mode;
  prm.num_vcs = mode == sim::PathMode::kUgal ? 8 : 4;
  prm.min_select = n.all_minpaths ? sim::MinSelect::kAdaptive
                                  : sim::MinSelect::kSingleHash;
  prm.seed = seed;
  return prm;
}

/// What a runlab case's points must satisfy (filled after the timed
/// region; hop bounds need the network's diameter).
struct CaseExpect {
  bool expect_stable = false;
  /// Every load of the case is below saturation.
  bool check_offered = false;
  /// A load sweep past saturation: only loads below 80% of the chain's
  /// saturation throughput (its largest accepted rate) are checked, since
  /// a saturated point can still drain in time and report stable.
  bool sweep = false;
  bool collective = false;
  bool trees_ok = true;
  double hop_bound = 0.0;
};

/// ExperimentRunner::run inside the "sim" scope, which ends `wall`; then
/// every ran point as a Point. A traced iteration profiles the engine and
/// replays each point's Simulation construction after the timed region,
/// since the runner hides the ctor inside its own per-point timer.
void run_sweep(Tracer& tracer, Iteration& it, Tracer::Scope& wall,
               const std::string& label,
               const std::vector<runlab::SweepCase>& cases,
               runlab::ExperimentRunner& runner,
               const std::function<CaseExpect(std::size_t)>& expect) {
  runner.set_profile(it.traced);
  runner.set_profile_stream(nullptr);
  std::vector<runlab::CaseResult> results;
  bool threw = false;
  std::string error;
  double run_s = 0.0;
  {
    Tracer::Scope sim_scope(tracer, "sim");
    {
      Tracer::Scope run(tracer, "runlab.run");
      try {
        results = runner.run(label, cases);
      } catch (const std::exception& e) {
        threw = true;
        error = e.what();
      } catch (...) {
        threw = true;
        error = "unknown exception";
      }
      run_s = run.end();
    }
    it.sim_s = sim_scope.end();
  }
  it.wall_s = wall.end();

  if (threw) {
    for (const auto& c : cases) {
      Point p;
      p.name = c.name;
      p.threw = true;
      p.error = error;
      it.points.push_back(std::move(p));
    }
    return;
  }
  double chain_sum = 0.0, chain_max = 0.0, point_sum = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseExpect e = expect(i);
    chain_sum += results[i].wall_seconds;
    chain_max = std::max(chain_max, results[i].wall_seconds);
    double saturation = 0.0;
    for (const auto& pr : results[i].points) {
      if (pr.ran) {
        saturation = std::max(saturation, pr.result.accepted_flit_rate);
      }
    }
    for (const auto& pr : results[i].points) {
      if (!pr.ran) continue;
      point_sum += pr.wall_seconds;
      Point p;
      p.name = cases[i].name;
      p.load = pr.load;
      p.expect_stable = e.expect_stable;
      p.check_offered =
          e.check_offered || (e.sweep && pr.load <= 0.8 * saturation);
      p.collective = e.collective;
      p.trees_ok = e.trees_ok;
      p.hop_bound = e.hop_bound;
      p.res = pr.result;
      it.points.push_back(std::move(p));
    }
  }
  it.layer["runlab.util"] = chain_sum / (runner.num_threads() * run_s);
  it.layer["runlab.chain_max_s"] = chain_max;
  it.layer["sim.run_s"] = point_sum;
  if (!it.traced) return;

  double ctor_s = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    for (const auto& pr : results[i].points) {
      if (!pr.ran) continue;
      std::unique_ptr<sim::TrafficSource> src;
      if (c.workload) {
        src = c.workload->instantiate({.topo = &c.net->topology(),
                                       .load = pr.load,
                                       .packet_flits = c.params.packet_flits,
                                       .seed = c.params.seed});
      } else {
        src = sim::make_pattern_source(c.net->topology(), c.pattern, pr.load,
                                       c.params.packet_flits, c.params.seed);
      }
      sim::SimParams prm = c.params;
      prm.profile = true;
      if (c.faults) prm.faults = c.faults.get();
      Tracer::Scope ctor(tracer, "sim.ctor");
      auto simulation = std::make_unique<sim::Simulation>(*c.net, prm, *src);
      ctor_s += ctor.end();
    }
  }
  it.layer["sim.ctor_s"] = ctor_s;
}

// --------------------------------------------------------------------------
// table3-psiq-ugal: one exact Table 3 PS-IQ point, UGAL. The timed run is
// serial. Traced iterations repeat it on 4 shards after the timed region:
// the sharded engine syncs its threads twice a cycle, so on a shared VM its
// wall time follows the hypervisor's steal far too closely for a bounded
// metric, and it is reported per layer instead.

Iteration table3_psiq_ugal(std::uint64_t seed, bool traced, Tracer& tracer) {
  set_shards(1);
  Iteration it;
  it.traced = traced;
  Tracer::Scope wall(tracer, "workload");
  Tracer::Scope setup(tracer, "setup");
  const Net n = build_polarstar(tracer, it, "PS-IQ", kTable3PsIq);
  sim::SimParams prm = base_params(n, sim::PathMode::kUgal, seed);
  prm.warmup_cycles = 1000;
  prm.measure_cycles = 2000;
  prm.drain_cycles = 12000;
  prm.min_select = sim::MinSelect::kSingleHash;
  prm.profile = traced;
  const double load = 0.3;
  const auto make_source = [&] {
    return sim::make_pattern_source(n.net->topology(), sim::Pattern::kUniform,
                                    load, prm.packet_flits, seed);
  };
  auto src = make_source();
  it.setup_s = setup.end();

  Point p;
  p.name = "PS-IQ uniform ugal";
  p.load = load;
  p.expect_stable = true;
  p.check_offered = true;
  std::unique_ptr<sim::Simulation> simulation;
  {
    Tracer::Scope sim_scope(tracer, "sim");
    try {
      simulation = timed(tracer, it, "sim.ctor", [&] {
        return std::make_unique<sim::Simulation>(*n.net, prm, *src);
      });
      p.res = timed(tracer, it, "sim.run", [&] { return simulation->run(); });
    } catch (const std::exception& e) {
      p.threw = true;
      p.error = e.what();
    } catch (...) {
      p.threw = true;
      p.error = "unknown exception";
    }
    it.sim_s = sim_scope.end();
  }
  it.wall_s = wall.end();
  simulation.reset();
  p.hop_bound = 2.0 * diameter(*n.net);

  if (traced && !p.threw) {
    set_shards(4);
    Point sharded = p;
    try {
      auto src4 = make_source();
      sim::Simulation sim4(*n.net, prm, *src4);
      Tracer::Scope run(tracer, "sim.shard4_run");
      sharded.res = sim4.run();
      it.layer["sim.shard4_run_s"] = run.end();
      it.layer["sim.shard4_speedup"] =
          it.layer["sim.run_s"] / it.layer["sim.shard4_run_s"];
    } catch (...) {
      sharded.threw = true;
    }
    // Sharding is a parallelism knob, never a semantics knob.
    p.shards_agree = !sharded.threw && digest({p}) == digest({sharded});
    const auto& prof = sharded.res.profile;
    it.layer["sim.driver_wait_s"] = prof.driver_wait_seconds;
    double task = 0.0;
    for (double s : prof.shard_task_seconds) task += s;
    it.layer["sim.shard_task_s"] = task;
    set_shards(1);
  }
  it.points.push_back(std::move(p));
  return it;
}

// --------------------------------------------------------------------------
// fig9-sweep-min: the reduced 8-topology Fig 9(a/b) uniform MIN panel.

Iteration fig9_sweep_min(std::uint64_t seed, bool traced, Tracer& tracer) {
  set_shards(1);
  Iteration it;
  it.traced = traced;
  Tracer::Scope wall(tracer, "workload");
  Tracer::Scope setup(tracer, "setup");
  std::vector<Net> suite;
  for (const char* name :
       {"PS-IQ", "PS-Pal", "BF", "HX", "DF", "SF", "MF", "FT"}) {
    suite.push_back(build_reduced(tracer, it, name));
  }
  std::vector<runlab::SweepCase> cases;
  for (const Net& n : suite) {
    runlab::SweepCase c;
    c.name = n.name;
    c.net = n.net;
    c.pattern = sim::Pattern::kUniform;
    c.params = base_params(n, sim::PathMode::kMinimal, seed);
    c.loads = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
    cases.push_back(std::move(c));
  }
  runlab::ExperimentRunner runner(kThreads);
  it.setup_s = setup.end();

  run_sweep(tracer, it, wall, "fig9-uniform-min", cases, runner,
            [&](std::size_t i) {
              CaseExpect e;
              e.sweep = true;
              e.hop_bound = diameter(*suite[i].net);
              return e;
            });
  return it;
}

// --------------------------------------------------------------------------
// psiq-collectives: full-scale PS-IQ broadcast/allreduce, EDST vs unicast.

Iteration psiq_collectives(std::uint64_t seed, bool traced, Tracer& tracer) {
  set_shards(1);
  Iteration it;
  it.traced = traced;
  Tracer::Scope wall(tracer, "workload");
  Tracer::Scope setup(tracer, "setup");
  const Net n = build_polarstar(tracer, it, "PS-IQ", kTable3PsIq);
  auto trees = timed(tracer, it, "collective.edst", [&] {
    return std::make_shared<const collective::EdstSet>(
        collective::polarstar_edsts(*n.ps, true, seed));
  });
  struct Row {
    collective::Op op;
    collective::Algorithm algorithm;
  };
  std::vector<Row> rows;
  for (auto op : {collective::Op::kBroadcast, collective::Op::kAllreduce}) {
    for (auto algo : {collective::Algorithm::kEdst,
                      collective::Algorithm::kBinomial,
                      collective::Algorithm::kRing}) {
      rows.push_back({op, algo});
    }
  }
  rows.push_back(
      {collective::Op::kAllreduce, collective::Algorithm::kRecursiveDoubling});
  std::vector<runlab::SweepCase> cases;
  for (const Row& r : rows) {
    const collective::CollectiveSpec spec{r.op, r.algorithm, /*root=*/0};
    runlab::SweepCase c;
    c.name = std::string(collective::to_string(r.op)) + " " +
             collective::to_string(r.algorithm);
    c.net = n.net;
    c.params = base_params(n, sim::PathMode::kMinimal, seed);
    c.workload =
        r.algorithm == collective::Algorithm::kEdst
            ? std::make_shared<const collective::CollectiveScenario>(spec,
                                                                     trees)
            : std::make_shared<const collective::CollectiveScenario>(spec);
    c.loads = {32, 128};  // chunk counts
    c.stop_after_saturation = false;
    cases.push_back(std::move(c));
  }
  runlab::ExperimentRunner runner(kThreads);
  it.setup_s = setup.end();

  // The tree verification and the diameter are computed on first use,
  // which run_sweep defers until after the timed region.
  std::optional<bool> trees_ok;
  std::optional<double> hop_bound;
  run_sweep(tracer, it, wall, "psiq-collectives", cases, runner,
            [&](std::size_t i) {
              if (!trees_ok) {
                trees_ok = collective::verify_edsts(n.net->topology().g,
                                                    trees->trees)
                               .ok &&
                           trees->trees.size() >= trees->guaranteed;
                hop_bound = diameter(*n.net);
              }
              CaseExpect e;
              e.expect_stable = true;
              e.collective = true;
              e.hop_bound = *hop_bound;
              e.trees_ok = rows[i].algorithm != collective::Algorithm::kEdst ||
                           *trees_ok;
              return e;
            });
  it.layer["collective.trees"] = static_cast<double>(trees->trees.size());
  return it;
}

// --------------------------------------------------------------------------
// availability-faults: reduced PS-IQ / DF / FT under live link and router
// failures, with per-case time-series sampling.

Iteration availability_faults(std::uint64_t seed, bool traced,
                              Tracer& tracer) {
  set_shards(1);
  Iteration it;
  it.traced = traced;
  Tracer::Scope wall(tracer, "workload");
  Tracer::Scope setup(tracer, "setup");
  std::vector<Net> nets;
  for (const char* name : {"PS-IQ", "DF", "FT"}) {
    nets.push_back(build_reduced(tracer, it, name));
  }
  sim::SimParams prm;
  prm.warmup_cycles = 2000;
  prm.measure_cycles = 12000;
  prm.drain_cycles = 30000;
  prm.num_vcs = 8;  // fault detours stretch paths past the healthy diameter
  prm.min_select = sim::MinSelect::kAdaptive;
  prm.seed = seed;
  std::vector<runlab::SweepCase> cases;
  std::vector<std::size_t> net_of;
  for (std::size_t k = 0; k < nets.size(); ++k) {
    for (double frac : {0.0, 0.02, 0.05, 0.10}) {
      runlab::SweepCase c;
      c.name = nets[k].name + " f=" + std::to_string(frac);
      c.net = nets[k].net;
      c.params = prm;
      c.loads = {0.15};
      c.metrics_interval = 1000;
      if (frac > 0.0) {
        // Links fail evenly across the measurement window, and one
        // endpoint-carrying router fails with them.
        fault::ScheduleSpec spec;
        spec.link_fail_fraction = frac;
        spec.router_failures = 1;
        spec.begin_cycle = prm.warmup_cycles;
        spec.end_cycle = prm.warmup_cycles + prm.measure_cycles;
        c.faults = timed(tracer, it, "fault.schedule", [&] {
          return std::make_shared<const fault::FaultSchedule>(
              fault::FaultSchedule::random(c.net->topology(), spec, seed));
        });
      }
      net_of.push_back(k);
      cases.push_back(std::move(c));
    }
  }
  runlab::ExperimentRunner runner(kThreads);
  it.setup_s = setup.end();

  run_sweep(tracer, it, wall, "availability-faults", cases, runner,
            [&](std::size_t i) {
              CaseExpect e;
              e.expect_stable = true;
              e.check_offered = !cases[i].faults;
              e.hop_bound = cases[i].faults
                                ? 4.0 * prm.num_vcs  // fault hop budget
                                : diameter(*nets[net_of[i]].net);
              return e;
            });
  return it;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> all = {
      {"table3-psiq-ugal", table3_psiq_ugal},
      {"fig9-sweep-min", fig9_sweep_min},
      {"psiq-collectives", psiq_collectives},
      {"availability-faults", availability_faults},
  };
  return all;
}

}  // namespace perfbench

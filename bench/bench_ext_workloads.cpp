// Workload scenarios on the diameter-3 suite: the scenario generators of
// src/workload/ (incast fan-in, a multi-tenant job mix, a transient
// hotspot, a phase-rotating collective) swept latency-vs-load on PS-IQ,
// Dragonfly and Fat-tree, plus the stress mix (adversarial + incast under
// live link/router faults) and a record -> replay identity check through
// the trace format.
//
// Like every sweep bench: POLARSTAR_THREADS only changes the parallelism
// shape, POLARSTAR_JSON captures every point (workload cases carry the
// schema-7 "workload" block), POLARSTAR_TRACE additionally records
// scenario timeline marks -- the printed tables are byte-identical
// throughout. POLARSTAR_METRICS_INTERVAL=K adds a time-resolved
// hotspot-drain table (per-interval inject/eject/latency/backlog rows) and
// per-point "timeseries" JSON blocks + Perfetto counter tracks.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/schedule.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace {

using namespace polarstar;

std::vector<bench::NamedTopo> workload_suite() {
  std::vector<bench::NamedTopo> suite;
  for (auto& nt : bench::simulation_suite()) {
    if (nt.name == "PS-IQ" || nt.name == "DF" || nt.name == "FT") {
      suite.push_back(std::move(nt));
    }
  }
  return suite;
}

/// Latency-vs-load table for one scenario across the suite (print_sweep's
/// format, with the traffic coming from a Workload instead of a Pattern).
/// Returns the sweep results so callers can reuse them (the optional
/// hotspot-drain section reads the time series out of these points).
std::vector<runlab::CaseResult> print_workload_sweep(
    const std::vector<bench::NamedTopo>& suite,
    const std::shared_ptr<const workload::Workload>& wl,
    const bench::SweepSettings& s) {
  std::vector<runlab::SweepCase> cases;
  cases.reserve(suite.size());
  for (const auto& nt : suite) {
    runlab::SweepCase c =
        bench::sweep_case(nt, sim::Pattern::kUniform, sim::PathMode::kMinimal, s);
    c.workload = wl;
    cases.push_back(std::move(c));
  }
  const auto results = bench::runner().run(wl->name(), cases);

  const std::string detail = wl->describe();
  std::printf("%s%s%s\n", wl->name().c_str(), detail.empty() ? "" : ": ",
              detail.c_str());
  std::printf("%-8s", "load");
  for (const auto& nt : suite) std::printf(" %10s", nt.name.c_str());
  std::printf("\n");
  std::vector<bool> saturated(suite.size(), false);
  for (std::size_t j = 0; j < s.loads.size(); ++j) {
    std::printf("%-8.2f", s.loads[j]);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (saturated[i]) {
        std::printf(" %10s", "-");
        continue;
      }
      const auto& res = results[i].points[j].result;
      if (res.stable) {
        std::printf(" %10.1f", res.avg_packet_latency);
      } else {
        std::printf(" %9.2fS", res.accepted_flit_rate);
        saturated[i] = true;
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n");
  return results;
}

/// Time-resolved view of the transient hotspot at one load: the burst's
/// latency spike and the backlog draining back out are directly visible in
/// the interval rows. Printed only when POLARSTAR_METRICS_INTERVAL is set
/// (which already attached the time-series collector to every sweep
/// point), so the golden tables stay byte-identical by default.
void print_hotspot_drain(const std::vector<bench::NamedTopo>& suite,
                         const std::vector<runlab::CaseResult>& results,
                         const bench::SweepSettings& s) {
  std::size_t j = 0;  // deepest load where every column stays stable, so
                      // the backlog actually drains instead of diverging
  for (std::size_t k = 0; k < s.loads.size(); ++k) {
    if (s.loads[k] <= 0.1) j = k;
  }
  std::printf("hotspot drain time series at load %.2f\n", s.loads[j]);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& res = results[i].points[j].result;
    const auto& ts = res.telemetry.timeseries;
    std::printf("%s (interval %u, %zu records)\n", suite[i].name.c_str(),
                ts.interval, ts.intervals.size());
    bench::print_timeseries(ts);
    std::printf("\n");
    std::fflush(stdout);
  }
}

/// The stress scenario: adversarial + incast mix under live faults, one
/// row per (topology, link-failure fraction) at a fixed load.
/// Incast sized for the reduced-scale suite: the fan-in share is spread
/// over enough victims that each stays below ejection bandwidth until the
/// upper sweep loads (2 victims at fraction 0.7 saturates any of these
/// machines at the *lowest* load -- all the table would show is "S").
workload::IncastConfig bench_incast() {
  workload::IncastConfig cfg;
  cfg.victims = 32;
  cfg.burst_fraction = 0.15;
  return cfg;
}

void print_stress(const std::vector<bench::NamedTopo>& suite,
                  const bench::SweepSettings& s) {
  const auto stress = workload::make_stress_workload(bench_incast());
  const std::vector<double> fractions = {0.0, 0.05};
  const double load = 0.15;

  struct Row {
    std::string name;
    double frac;
  };
  std::vector<Row> rows;
  std::vector<runlab::SweepCase> cases;
  for (const auto& nt : suite) {
    for (double frac : fractions) {
      runlab::SweepCase c =
          bench::sweep_case(nt, sim::Pattern::kUniform, sim::PathMode::kMinimal, s);
      c.name = nt.name + " f=" + std::to_string(frac);
      c.workload = stress;
      c.loads = {load};
      c.params.num_vcs = 8;  // fault detours stretch paths past the diameter
      if (frac > 0.0) {
        fault::ScheduleSpec spec;
        spec.link_fail_fraction = frac;
        spec.router_failures = 1;
        spec.begin_cycle = c.params.warmup_cycles;
        spec.end_cycle = c.params.warmup_cycles + c.params.measure_cycles;
        c.faults = std::make_shared<const fault::FaultSchedule>(
            fault::FaultSchedule::random(nt.topology(), spec, 77));
      }
      rows.push_back({nt.name, frac});
      cases.push_back(std::move(c));
    }
  }
  const auto results = bench::runner().run("workload-stress", cases);

  std::printf("stress (%s) at load %.2f under live faults\n",
              stress->describe().c_str(), load);
  std::printf("%-8s %8s %10s %10s %8s %8s %8s\n", "topo", "failed",
              "delivered", "latency", "events", "drops", "lost");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& res = results[i].points[0].result;
    std::printf("%-8s %7.0f%% %10.4f %10.1f %8llu %8llu %8llu\n",
                rows[i].name.c_str(), 100 * rows[i].frac,
                res.delivered_fraction, res.avg_packet_latency,
                static_cast<unsigned long long>(res.fault_events),
                static_cast<unsigned long long>(res.packets_dropped),
                static_cast<unsigned long long>(res.packets_lost));
    std::fflush(stdout);
  }
  std::printf("\n");
}

/// Record one incast run through TraceRecorder, replay the trace through
/// TraceReplay, and verify the SimResults agree field for field.
void print_replay_identity(const bench::NamedTopo& nt,
                           const bench::SweepSettings& s) {
  const workload::IncastWorkload incast(bench_incast());
  const double load = 0.2;
  const sim::SimParams prm =
      bench::sweep_params(nt, sim::PathMode::kMinimal, s);
  const workload::Context ctx{.topo = &nt.topology(),
                              .load = load,
                              .packet_flits = prm.packet_flits,
                              .seed = prm.seed};

  workload::TraceRecorder recorder;
  auto src = incast.instantiate(ctx);
  sim::Simulation recorded_sim(*nt.net, prm, *src, &recorder);
  const sim::SimResult recorded = recorded_sim.run();

  const workload::TraceReplay replay(recorder.take_trace());
  auto replay_src = replay.instantiate(ctx);
  sim::Simulation replayed_sim(*nt.net, prm, *replay_src);
  const sim::SimResult replayed = replayed_sim.run();

  const bool identical =
      recorded.cycles == replayed.cycles &&
      recorded.packets_delivered == replayed.packets_delivered &&
      recorded.measured_packets == replayed.measured_packets &&
      recorded.avg_packet_latency == replayed.avg_packet_latency &&
      recorded.p50_packet_latency == replayed.p50_packet_latency &&
      recorded.p99_packet_latency == replayed.p99_packet_latency &&
      recorded.p999_packet_latency == replayed.p999_packet_latency &&
      recorded.avg_hops == replayed.avg_hops &&
      recorded.accepted_flit_rate == replayed.accepted_flit_rate &&
      recorded.stable == replayed.stable &&
      recorded.max_source_queue == replayed.max_source_queue;
  std::printf("record -> replay identity (%s, %s @ %.2f): %zu events, %s\n",
              nt.name.c_str(), incast.name().c_str(), load,
              replay.trace().events.size(),
              identical ? "identical" : "MISMATCH");
}

}  // namespace

int main() {
  const auto suite = workload_suite();
  bench::SweepSettings s;
  s.loads = {0.05, 0.10, 0.20, 0.30};

  print_workload_sweep(
      suite, std::make_shared<const workload::IncastWorkload>(bench_incast()),
      s);
  // No hotspot tenant here: an intra-tenant incast onto one member caps the
  // whole mix at ~1/block_size load; tests cover that tenant at small scale.
  print_workload_sweep(
      suite,
      std::make_shared<const workload::MultiTenantWorkload>(
          std::vector<workload::TenantPattern>{
              workload::TenantPattern::kUniform,
              workload::TenantPattern::kPermutation,
              workload::TenantPattern::kTornado,
              workload::TenantPattern::kUniform}),
      s);
  const auto hotspot_results = print_workload_sweep(
      suite, std::make_shared<const workload::TransientHotspotWorkload>(), s);
  if (bench::metrics_interval() != 0) {
    print_hotspot_drain(suite, hotspot_results, s);
  }
  print_workload_sweep(
      suite, std::make_shared<const workload::CollectiveWorkload>(), s);
  print_stress(suite, s);
  print_replay_identity(suite.front(), s);
  return 0;
}

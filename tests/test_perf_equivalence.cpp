// Differential tests for the simulator hot-loop optimizations (`ctest -L
// perf`): the flattened routing/distance tables, the pooled injection
// queues, the VC occupancy masks + router work counters, and the UGAL /
// fault-filter fast paths must be *bit-identical* to the generic reference
// implementations. SimParams::reference_impl selects the preserved
// pre-optimization code paths (routing::UgalSelector, virtual
// FaultAwareRouting::next_hops, the full-scan step loop); every test here
// runs the same workload both ways and diffs the entire SimResult, the
// telemetry Summary, or the exported trace bytes. paranoid_checks is on
// wherever affordable so the occupancy-index invariants are validated
// every cycle in both modes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "collective/edst.h"
#include "collective/engine.h"
#include "core/polarstar.h"
#include "fault/schedule.h"
#include "io/trace_export.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"
#include "telemetry/packet_trace.h"
#include "topo/dragonfly.h"

namespace collective = polarstar::collective;
namespace core = polarstar::core;
namespace fault = polarstar::fault;
namespace io = polarstar::io;
namespace routing = polarstar::routing;
namespace sim = polarstar::sim;
namespace telemetry = polarstar::telemetry;
namespace topo = polarstar::topo;
namespace g = polarstar::graph;

namespace {

std::shared_ptr<const sim::Network> polarstar_net(core::PolarStarConfig cfg) {
  auto ps =
      std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  return std::make_shared<sim::Network>(core::shared_topology(ps),
                                        routing::make_polarstar_routing(ps));
}

std::shared_ptr<const sim::Network> dragonfly_table_net() {
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  return std::make_shared<sim::Network>(t, routing::make_table_routing(t->g));
}

sim::SimParams base_params() {
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 500;
  prm.drain_cycles = 20000;
  prm.seed = 17;
  prm.paranoid_checks = true;  // validates the occupancy index every cycle
  return prm;
}

sim::SimResult run_pattern(const sim::Network& net, sim::SimParams prm,
                           bool reference, double rate,
                           telemetry::Collector* col = nullptr) {
  prm.reference_impl = reference;
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, rate,
                         prm.packet_flits, prm.seed);
  sim::Simulation s(net, prm, src, col);
  return s.run();
}

// Exact comparison, doubles included: the optimizations must not perturb a
// single bit of any aggregate.
void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.measured_packets, b.measured_packets);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.p50_packet_latency, b.p50_packet_latency);
  EXPECT_EQ(a.p99_packet_latency, b.p99_packet_latency);
  EXPECT_EQ(a.p999_packet_latency, b.p999_packet_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.accepted_flit_rate, b.accepted_flit_rate);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.deadlock, b.deadlock);
  EXPECT_EQ(a.max_source_queue, b.max_source_queue);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.measured_lost, b.measured_lost);
  EXPECT_EQ(a.delivered_fraction, b.delivered_fraction);
  EXPECT_EQ(a.max_recovery_latency, b.max_recovery_latency);
}

void expect_identical(const telemetry::Summary& a,
                      const telemetry::Summary& b) {
  EXPECT_EQ(a.has_link, b.has_link);
  EXPECT_EQ(a.link.total_flits, b.link.total_flits);
  EXPECT_EQ(a.link.num_links, b.link.num_links);
  EXPECT_EQ(a.link.avg_load, b.link.avg_load);
  EXPECT_EQ(a.link.max_load, b.link.max_load);
  EXPECT_EQ(a.link.max_avg_ratio, b.link.max_avg_ratio);
  EXPECT_EQ(a.has_stall, b.has_stall);
  EXPECT_EQ(a.stall.busy, b.stall.busy);
  EXPECT_EQ(a.stall.credit_starved, b.stall.credit_starved);
  EXPECT_EQ(a.stall.vc_blocked, b.stall.vc_blocked);
  EXPECT_EQ(a.stall.arbitration_lost, b.stall.arbitration_lost);
  EXPECT_EQ(a.stall.idle, b.stall.idle);
  EXPECT_EQ(a.has_ugal, b.has_ugal);
  EXPECT_EQ(a.ugal.decisions, b.ugal.decisions);
  EXPECT_EQ(a.ugal.valiant, b.ugal.valiant);
  EXPECT_EQ(a.ugal.minimal_no_better, b.ugal.minimal_no_better);
  EXPECT_EQ(a.ugal.minimal_no_candidate, b.ugal.minimal_no_candidate);
  EXPECT_EQ(a.ugal.avg_valiant_extra_hops, b.ugal.avg_valiant_extra_hops);
  EXPECT_EQ(a.has_occupancy, b.has_occupancy);
  EXPECT_EQ(a.occupancy.samples, b.occupancy.samples);
  EXPECT_EQ(a.occupancy.peak_router_flits, b.occupancy.peak_router_flits);
  EXPECT_EQ(a.occupancy.avg_router_flits, b.occupancy.avg_router_flits);
  EXPECT_EQ(a.has_latency, b.has_latency);
  EXPECT_EQ(a.latency.packets, b.latency.packets);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p90, b.latency.p90);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.latency.p999, b.latency.p999);
  EXPECT_EQ(a.has_fault, b.has_fault);
  EXPECT_EQ(a.fault.events, b.fault.events);
  EXPECT_EQ(a.fault.link_down, b.fault.link_down);
  EXPECT_EQ(a.fault.router_down, b.fault.router_down);
  EXPECT_EQ(a.fault.repairs, b.fault.repairs);
  EXPECT_EQ(a.fault.dropped_packets, b.fault.dropped_packets);
  EXPECT_EQ(a.fault.retransmits, b.fault.retransmits);
  EXPECT_EQ(a.fault.lost_packets, b.fault.lost_packets);
}

// Runs uniform traffic at load 0.2 with a 1-in-16 flight recorder and
// returns the exported Chrome-trace document.
std::string trace_bytes(const sim::Network& net, const sim::SimParams& prm,
                        bool reference) {
  telemetry::PacketFilter filter;
  filter.sample_period = 16;
  telemetry::PacketTraceCollector col(filter);
  const auto res = run_pattern(net, prm, reference, 0.2, &col);
  io::PacketTraceGroup group;
  group.label = "perf-equivalence";
  group.run_cycles = res.cycles;
  group.traces = col.take_traces();
  group.faults = col.take_fault_marks();
  std::ostringstream os;
  io::write_chrome_trace(os, {&group, 1});
  return os.str();
}

}  // namespace

// The Network's deduplicated route/distance table must agree with the
// wrapped MinimalRouting on every pair (the simulator consults only the
// flat table on the hot path). Covers both ways the table is built:
// derived from the distance matrix (analytic PolarStar over a Paley and
// over an inductive-quad supernode, whose ER_q quadric vertices carry loop
// edges; table routing, also over a disconnected graph; exact Table 3
// PS-IQ, every 64th source) and asked pair by pair (hierarchical
// Dragonfly). Deduplication is checked through the span pointers: two
// destinations of one source with the same distance and the same ports
// share one stored port list, and different routes never do.
TEST(PerfEquivalence, FlatNetworkTablesMatchVirtualRouting) {
  const auto df = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  auto split = std::make_shared<topo::Topology>();
  split->name = "two-triangles";
  split->g = g::Graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  split->set_uniform_concentration(1);
  const auto split_net = std::make_shared<const sim::Network>(
      split, routing::make_table_routing(split->g));
  const auto full_psiq =
      polarstar_net({11, 3, core::SupernodeKind::kInductiveQuad, 5});
  ASSERT_EQ(full_psiq->num_routers(), 1064u);
  for (const auto& net :
       {polarstar_net({4, 4, core::SupernodeKind::kPaley, 3}),
        polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 3}),
        dragonfly_table_net(),
        std::shared_ptr<const sim::Network>(std::make_shared<sim::Network>(
            df, std::make_shared<routing::DragonflyRouting>(df))),
        split_net, full_psiq}) {
    const auto& routing = net->routing();
    const std::uint32_t n = net->num_routers();
    const std::uint32_t stride = net == full_psiq ? 64 : 1;
    std::vector<g::Vertex> hops;
    for (g::Vertex s = 0; s < n; s += stride) {
      std::map<std::pair<std::uint32_t, std::vector<std::uint16_t>>,
               const std::uint16_t*>
          stored;
      std::set<const std::uint16_t*> pointers;
      for (g::Vertex d = 0; d < n; ++d) {
        ASSERT_EQ(net->distance(s, d), routing.distance(s, d));
        hops.clear();
        routing.next_hops(s, d, hops);
        const auto ports = net->route_ports(s, d);
        ASSERT_EQ(ports.size(), hops.size());
        for (std::size_t i = 0; i < hops.size(); ++i) {
          ASSERT_EQ(ports[i], net->port_toward(s, hops[i]));
          ASSERT_EQ(net->link_neighbor(net->port_base(s) + ports[i]), hops[i]);
        }
        if (ports.empty()) continue;
        const auto [it, fresh] = stored.try_emplace(
            {net->distance(s, d), {ports.begin(), ports.end()}}, ports.data());
        if (fresh) {
          ASSERT_TRUE(pointers.insert(ports.data()).second)
              << "distinct routes share storage: " << s << " -> " << d;
        } else {
          ASSERT_EQ(ports.data(), it->second)
              << "equal routes not deduplicated: " << s << " -> " << d;
        }
      }
    }
  }
  // Pairs across the two triangles: unreachable, with no candidate ports.
  for (g::Vertex s = 0; s < 3; ++s) {
    for (g::Vertex d = 3; d < 6; ++d) {
      EXPECT_EQ(split_net->distance(s, d), g::kUnreachable);
      EXPECT_EQ(split_net->distance(d, s), g::kUnreachable);
      EXPECT_TRUE(split_net->route_ports(s, d).empty());
      EXPECT_TRUE(split_net->route_ports(d, s).empty());
    }
  }
}

// Per-directed-link inverses: peer_port is the far end's input-port index.
TEST(PerfEquivalence, LinkInversesConsistent) {
  const auto net = dragonfly_table_net();
  for (g::Vertex r = 0; r < net->num_routers(); ++r) {
    for (std::uint32_t p = 0; p < net->num_link_ports(r); ++p) {
      const std::size_t link = net->link_index(r, p);
      ASSERT_EQ(net->link_router(link), r);
      const g::Vertex nbr = net->neighbor_at(r, p);
      ASSERT_EQ(net->link_neighbor(link), nbr);
      ASSERT_EQ(net->peer_port(link),
                net->link_index(nbr, net->reverse_port(r, p)));
    }
  }
}

TEST(PerfEquivalence, MinimalSingleHash) {
  const auto net = polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto prm = base_params();
  const auto ref = run_pattern(*net, prm, /*reference=*/true, 0.2);
  const auto fast = run_pattern(*net, prm, /*reference=*/false, 0.2);
  expect_identical(ref, fast);
  EXPECT_GT(fast.packets_delivered, 0u);
}

TEST(PerfEquivalence, MinimalAdaptive) {
  const auto net = dragonfly_table_net();
  auto prm = base_params();
  prm.min_select = sim::MinSelect::kAdaptive;
  const auto ref = run_pattern(*net, prm, true, 0.3);
  const auto fast = run_pattern(*net, prm, false, 0.3);
  expect_identical(ref, fast);
  EXPECT_GT(fast.packets_delivered, 0u);
}

// UGAL consumes RNG draws and compares double-valued path costs; the fast
// selector must replicate routing::UgalSelector decision-for-decision.
TEST(PerfEquivalence, UgalSelection) {
  const auto net = polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
  auto prm = base_params();
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;  // UGAL/Valiant path length bound
  const auto ref = run_pattern(*net, prm, true, 0.25);
  const auto fast = run_pattern(*net, prm, false, 0.25);
  expect_identical(ref, fast);
  EXPECT_GT(fast.packets_delivered, 0u);
}

// Live faults: the flattened strict-distance-decrease filter and the
// survivor-table fallback must match FaultAwareRouting::next_hops, and the
// purge/rebuild of the occupancy index must leave identical state.
TEST(PerfEquivalence, FaultedRun) {
  const auto net = polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.08;
  spec.begin_cycle = 300;
  spec.end_cycle = 301;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/5);
  prm.faults = &sched;
  const auto ref = run_pattern(*net, prm, true, 0.2);
  const auto fast = run_pattern(*net, prm, false, 0.2);
  expect_identical(ref, fast);
  EXPECT_GT(fast.fault_events, 0u);
}

// Full telemetry attached (link histograms, stalls, occupancy, UGAL,
// latency): every collector aggregate must come out identical, which
// pins the hook *sequences*, not just the end-of-run totals.
TEST(PerfEquivalence, TelemetrySummaries) {
  const auto net = polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
  auto prm = base_params();
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;
  prm.paranoid_checks = false;  // collector run; invariants covered above
  telemetry::FullCollector ref_col, fast_col;
  const auto ref = run_pattern(*net, prm, true, 0.25, &ref_col);
  const auto fast = run_pattern(*net, prm, false, 0.25, &fast_col);
  expect_identical(ref, fast);
  expect_identical(ref.telemetry, fast.telemetry);
  EXPECT_TRUE(fast.telemetry.has_link);
  EXPECT_TRUE(fast.telemetry.has_ugal);
}

// Flight recorder under faults: the exported Chrome-trace documents (hop
// spans, fault marks, per-packet lifecycles) must be byte-identical.
TEST(PerfEquivalence, TraceBytes) {
  const auto net = polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  prm.paranoid_checks = false;
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.begin_cycle = 300;
  spec.end_cycle = 301;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/9);
  prm.faults = &sched;
  const std::string ref_bytes = trace_bytes(*net, prm, true);
  EXPECT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, trace_bytes(*net, prm, false));
}

// The hard case for hook order: live faults + UGAL + flight recorder, with
// the invariants checked every cycle. Retransmit timing, Valiant detours
// and fault drops all interleave with the routed/hop/ejected hooks.
TEST(PerfEquivalence, UgalFaultTraceBytes) {
  const auto net = polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
  auto prm = base_params();
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;  // UGAL/Valiant path length bound
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.begin_cycle = 300;
  spec.end_cycle = 301;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/11);
  prm.faults = &sched;
  const std::string ref_bytes = trace_bytes(*net, prm, true);
  EXPECT_NE(ref_bytes.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_EQ(ref_bytes, trace_bytes(*net, prm, false));
}

// Collective engine runs are closed-loop (every send reacts to a prior
// delivery), so the exact delivery *order* feeds back into the workload:
// any divergence between the optimized step loop and the reference one
// compounds. Both an EDST-tree and a unicast collective must come out
// bit-identical, JSON report included.
TEST(PerfEquivalence, CollectiveEngineRuns) {
  const core::PolarStarConfig cfg{4, 3, core::SupernodeKind::kInductiveQuad, 1};
  auto ps =
      std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  const auto net = std::make_shared<sim::Network>(
      core::shared_topology(ps), routing::make_polarstar_routing(ps));
  const auto trees = std::make_shared<const collective::EdstSet>(
      collective::polarstar_edsts(*ps));
  const auto run = [&](collective::Algorithm algo, bool reference) {
    collective::CollectiveSpec spec;
    spec.op = collective::Op::kAllreduce;
    spec.algorithm = algo;
    auto prm = base_params();
    prm.reference_impl = reference;
    collective::CollectiveEngine src(
        net->topology(), spec, /*chunks=*/5,
        algo == collective::Algorithm::kEdst ? trees : nullptr);
    sim::Simulation s(*net, prm, src);
    auto res = s.run_app(2'000'000);
    EXPECT_EQ(src.deliveries(), src.expected_deliveries());
    return res;
  };
  for (const auto algo :
       {collective::Algorithm::kEdst, collective::Algorithm::kBinomial}) {
    const auto ref = run(algo, true);
    const auto fast = run(algo, false);
    expect_identical(ref, fast);
    EXPECT_EQ(ref.source.collective_json, fast.source.collective_json);
    EXPECT_FALSE(fast.source.collective_json.empty());
    EXPECT_TRUE(fast.stable);
  }
}

// Sizes the simulator stores in narrow fields are rejected up front: VC
// counts beyond the 32-bit occupancy mask, and buffer or packet sizes
// outside the uint16 slot/credit/sequence fields (which used to run on
// truncated credits or deliver nothing).
TEST(PerfEquivalence, RejectsTooManyVcs) {
  const auto net = dragonfly_table_net();
  const auto rejects = [&](const sim::SimParams& prm, const char* field) {
    sim::PatternSource src(net->topology(), sim::Pattern::kUniform, 0.1,
                           prm.packet_flits, 1);
    try {
      sim::Simulation sim(*net, prm, src);
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  sim::SimParams prm;
  prm.num_vcs = 33;
  rejects(prm, "num_vcs");
  for (const std::uint32_t flits : {0u, 65536u, 70000u}) {
    prm = {};
    prm.vc_buffer_flits = flits;
    rejects(prm, "vc_buffer_flits");
  }
  for (const std::uint32_t flits : {0u, 65536u, 70000u}) {
    prm = {};
    prm.packet_flits = flits;
    rejects(prm, "packet_flits");
  }
  // The bounds themselves are accepted (a 65535-flit buffer per VC would
  // allocate hundreds of MB here, so only its lower bound is built).
  prm = {};
  prm.vc_buffer_flits = 1;
  prm.packet_flits = 65535;
  sim::PatternSource src(net->topology(), sim::Pattern::kUniform, 0.1,
                         prm.packet_flits, 1);
  EXPECT_NO_THROW(sim::Simulation(*net, prm, src));
}

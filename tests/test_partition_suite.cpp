// Streaming-partitioner suite (`ctest -L partition`): the five streaming
// algorithms (greedy/HDRF/DBH edge, LDG/Fennel vertex) must produce
// *verified* partitions -- every item assigned exactly once, loads within
// the declared capacity, replication factor / cut matching an independent
// brute-force recount here -- on every Table 3 configuration and on a
// >1M-edge synthetic stream; assignments must be identical across
// concurrently running threads; and the multi-tenant placement bridge must
// keep jobs strictly inside their partition-derived endpoint sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/topology_zoo.h"
#include "core/polarstar.h"
#include "partition/stream.h"
#include "partition/streaming.h"
#include "routing/routing.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace analysis = polarstar::analysis;
namespace core = polarstar::core;
namespace g = polarstar::graph;
namespace part = polarstar::partition;
namespace routing = polarstar::routing;
namespace sim = polarstar::sim;
namespace workload = polarstar::workload;

namespace {

std::shared_ptr<const sim::Network> polarstar_net(core::PolarStarConfig cfg) {
  auto ps =
      std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  return std::make_shared<sim::Network>(core::shared_topology(ps),
                                        routing::make_polarstar_routing(ps));
}

sim::SimParams base_params() {
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 500;
  prm.drain_cycles = 20000;
  prm.seed = 23;
  return prm;
}

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.measured_packets, b.measured_packets);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.p50_packet_latency, b.p50_packet_latency);
  EXPECT_EQ(a.p99_packet_latency, b.p99_packet_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.accepted_flit_rate, b.accepted_flit_rate);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.deadlock, b.deadlock);
  EXPECT_EQ(a.max_source_queue, b.max_source_queue);
  EXPECT_EQ(a.delivered_fraction, b.delivered_fraction);
}

workload::Context make_ctx(const sim::Network& net, double load,
                           const sim::SimParams& prm) {
  return workload::Context{.topo = &net.topology(),
                           .load = load,
                           .packet_flits = prm.packet_flits,
                           .seed = prm.seed};
}

std::pair<sim::SimResult, workload::Trace> record_run(
    const sim::Network& net, const workload::Workload& wl, double load,
    const sim::SimParams& prm) {
  workload::TraceRecorder rec;
  auto src = wl.instantiate(make_ctx(net, load, prm));
  sim::Simulation s(net, prm, *src, &rec);
  auto res = s.run();
  return {std::move(res), rec.take_trace()};
}

// The >1M-edge synthetic stream of the acceptance criteria (matches the
// bench's "circulant" row).
part::CirculantStream million_edge_stream() {
  return part::CirculantStream(1u << 18, 5, 42);
}

}  // namespace

// ---------------------------------------------------------------------------
// Verified partitions on every Table 3 configuration.

TEST(StreamingPartition, Table3AllAlgosVerifyAtEightParts) {
  part::StreamOptions opts;
  opts.num_parts = 8;
  for (const char* row :
       {"PS-IQ", "PS-Pal", "BF", "HX", "DF", "SF", "MF", "FT"}) {
    const auto topo = analysis::build_table3(row);
    const part::GraphView gv(topo.g);
    for (const auto algo : part::kAllStreamAlgos) {
      const auto p = part::partition_stream(gv, algo, opts);
      EXPECT_EQ(part::verify_partition(gv, p), "")
          << row << " " << part::to_string(algo);
      EXPECT_EQ(p.num_parts, opts.num_parts);
      EXPECT_EQ(p.load.size(), opts.num_parts);
      const std::uint64_t max_load =
          *std::max_element(p.load.begin(), p.load.end());
      EXPECT_LE(max_load, p.capacity) << row << " " << part::to_string(algo);
      if (p.flavor == part::PartitionFlavor::kEdge) {
        EXPECT_GE(p.replication_factor, 1.0);
        EXPECT_EQ(p.part_of_edge.size(), topo.g.num_edges());
      } else {
        EXPECT_EQ(p.replication_factor, 1.0);
        EXPECT_EQ(p.part_of_vertex.size(), topo.g.num_vertices());
      }
    }
  }
}

TEST(StreamingPartition, MillionEdgeStreamVerifiesForEveryAlgo) {
  const auto circ = million_edge_stream();
  ASSERT_GT(circ.num_edges(), 1'000'000u);
  ASSERT_EQ(circ.num_edges(),
            static_cast<std::uint64_t>(circ.num_vertices()) *
                circ.strides().size());
  // Strides distinct and strictly inside (0, n/2): every stride contributes
  // n distinct edges and all 2|S| neighbors of a vertex are distinct.
  for (std::size_t i = 0; i < circ.strides().size(); ++i) {
    EXPECT_GT(circ.strides()[i], 0u);
    EXPECT_LT(circ.strides()[i], circ.num_vertices() / 2);
    if (i) {
      EXPECT_LT(circ.strides()[i - 1], circ.strides()[i]);
    }
  }
  part::StreamOptions opts;
  opts.num_parts = 8;
  for (const auto algo : part::kAllStreamAlgos) {
    const auto p = part::partition_stream(circ, algo, opts);
    EXPECT_EQ(part::verify_partition(circ, p), "") << part::to_string(algo);
  }
}

// ---------------------------------------------------------------------------
// Metrics recomputed independently of verify_partition's own recount.

TEST(StreamingPartition, ReplicationFactorMatchesBruteForceRecount) {
  const auto topo = analysis::build_table3("PS-IQ");
  const part::GraphView gv(topo.g);
  part::StreamOptions opts;
  opts.num_parts = 6;
  for (const auto algo :
       {part::StreamAlgo::kGreedy, part::StreamAlgo::kHdrf,
        part::StreamAlgo::kDbh}) {
    const auto p = part::partition_stream(gv, algo, opts);
    std::set<std::pair<g::Vertex, std::uint32_t>> replicas;
    std::vector<std::uint64_t> load(opts.num_parts, 0);
    std::size_t i = 0;
    gv.for_each_edge([&](g::Vertex u, g::Vertex v) {
      const std::uint32_t pt = p.part_of_edge[i++];
      replicas.insert({u, pt});
      replicas.insert({v, pt});
      ++load[pt];
    });
    ASSERT_EQ(i, gv.num_edges());
    std::set<g::Vertex> touched;
    for (const auto& [vx, pt] : replicas) {
      touched.insert(vx);
      EXPECT_TRUE(p.mirrors.test(vx, pt));
    }
    const double rf =
        static_cast<double>(replicas.size()) / touched.size();
    EXPECT_DOUBLE_EQ(p.replication_factor, rf) << part::to_string(algo);
    EXPECT_EQ(p.load, load) << part::to_string(algo);
  }
}

TEST(StreamingPartition, CutFractionMatchesBruteForceRecount) {
  const auto topo = analysis::build_table3("PS-IQ");
  const part::GraphView gv(topo.g);
  part::StreamOptions opts;
  opts.num_parts = 6;
  for (const auto algo :
       {part::StreamAlgo::kLdg, part::StreamAlgo::kFennel}) {
    const auto p = part::partition_stream(gv, algo, opts);
    std::uint64_t cut = 0;
    std::vector<std::uint64_t> load(opts.num_parts, 0);
    gv.for_each_edge([&](g::Vertex u, g::Vertex v) {
      cut += p.part_of_vertex[u] != p.part_of_vertex[v];
    });
    for (const auto pt : p.part_of_vertex) ++load[pt];
    EXPECT_EQ(p.cut_edges, cut) << part::to_string(algo);
    EXPECT_DOUBLE_EQ(p.cut_fraction,
                     static_cast<double>(cut) / gv.num_edges());
    EXPECT_EQ(p.load, load) << part::to_string(algo);
  }
}

TEST(StreamingPartition, BalanceWithinDeclaredEpsilon) {
  // The capacity ceiling makes declared balance a guarantee even for a
  // tight epsilon on a skewed stream.
  const auto topo = analysis::build_table3("PS-IQ");
  const part::GraphView gv(topo.g);
  part::StreamOptions opts;
  opts.num_parts = 7;
  opts.balance_epsilon = 0.01;
  for (const auto algo : part::kAllStreamAlgos) {
    const auto p = part::partition_stream(gv, algo, opts);
    EXPECT_EQ(part::verify_partition(gv, p), "") << part::to_string(algo);
    const std::uint64_t total =
        p.flavor == part::PartitionFlavor::kEdge ? gv.num_edges()
                                                 : gv.num_vertices();
    const auto ideal = static_cast<double>(total) / opts.num_parts;
    const auto cap = static_cast<std::uint64_t>(
        std::ceil((1.0 + opts.balance_epsilon) * ideal));
    EXPECT_EQ(p.capacity, cap) << part::to_string(algo);
    for (const auto l : p.load) EXPECT_LE(l, cap) << part::to_string(algo);
  }
}

// ---------------------------------------------------------------------------
// Determinism: the same stream partitioned on concurrent threads must give
// byte-identical assignments (no wall-clock, no shared mutable state).

TEST(StreamingPartition, IdenticalAssignmentsAcrossConcurrentThreads) {
  const auto topo = analysis::build_table3("PS-IQ");
  const part::GraphView gv(topo.g);
  part::StreamOptions opts;
  opts.num_parts = 8;
  for (const auto algo : part::kAllStreamAlgos) {
    const auto serial = part::partition_stream(gv, algo, opts);
    constexpr int kThreads = 4;
    std::vector<part::StreamPartition> got(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        got[t] = part::partition_stream(gv, algo, opts);
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& p : got) {
      EXPECT_EQ(p.part_of_vertex, serial.part_of_vertex);
      EXPECT_EQ(p.part_of_edge, serial.part_of_edge);
      EXPECT_EQ(p.load, serial.load);
      EXPECT_EQ(p.mirrors, serial.mirrors);
      EXPECT_EQ(p.replication_factor, serial.replication_factor);
      EXPECT_EQ(p.cut_edges, serial.cut_edges);
      EXPECT_EQ(p.balance, serial.balance);
    }
  }
}

TEST(StreamingPartition, OptionEdgeCases) {
  const auto circ = part::CirculantStream(16, 2, 3);
  part::StreamOptions opts;
  opts.num_parts = 0;
  for (const auto algo : part::kAllStreamAlgos) {
    EXPECT_THROW(part::partition_stream(circ, algo, opts),
                 std::invalid_argument);
  }
  // More parts than items.
  opts.num_parts = 100;
  EXPECT_THROW(
      part::partition_stream(circ, part::StreamAlgo::kLdg, opts),
      std::invalid_argument);
  // p=1 is trivial but legal: one part owns everything.
  opts.num_parts = 1;
  for (const auto algo : part::kAllStreamAlgos) {
    const auto p = part::partition_stream(circ, algo, opts);
    EXPECT_EQ(part::verify_partition(circ, p), "") << part::to_string(algo);
    EXPECT_EQ(p.replication_factor, 1.0);
    EXPECT_EQ(p.cut_edges, 0u);
    EXPECT_EQ(p.balance, 1.0);
  }
  EXPECT_THROW(part::CirculantStream(4, 2, 3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Multi-tenant placement bridge.

TEST(MultiTenantPlacement, ContiguousEquivalentPlacementIsBitIdentical) {
  // An explicit placement spelling out the default contiguous blocks must
  // reproduce the legacy constructor's run bit for bit (same RNG draws,
  // same destinations).
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  const std::vector<workload::TenantPattern> tenants = {
      workload::TenantPattern::kUniform, workload::TenantPattern::kHotspot,
      workload::TenantPattern::kTornado};
  const std::uint64_t eps = net->topology().num_endpoints();
  const std::uint64_t base = eps / tenants.size();
  std::vector<std::uint32_t> placement(eps);
  for (std::uint64_t e = 0; e < eps; ++e) {
    placement[e] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(e / base, tenants.size() - 1));
  }
  const workload::MultiTenantWorkload legacy(tenants);
  const workload::MultiTenantWorkload placed(tenants, placement);
  const auto [res_a, trace_a] = record_run(*net, legacy, 0.05, prm);
  const auto [res_b, trace_b] = record_run(*net, placed, 0.05, prm);
  expect_identical(res_a, res_b);
  EXPECT_EQ(trace_a, trace_b);
}

TEST(MultiTenantPlacement, PartitionDerivedPlacementNeverCrossesTenants) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  const std::vector<workload::TenantPattern> tenants = {
      workload::TenantPattern::kUniform, workload::TenantPattern::kPermutation,
      workload::TenantPattern::kTornado};
  part::StreamOptions opts;
  opts.num_parts = static_cast<std::uint32_t>(tenants.size());
  const part::GraphView gv(net->topology().g);
  const auto p =
      part::partition_stream(gv, part::StreamAlgo::kLdg, opts);
  const auto placement =
      workload::placement_from_router_parts(net->topology(),
                                            p.part_of_vertex);
  ASSERT_EQ(placement.size(), net->topology().num_endpoints());
  // Every endpoint inherits its router's part.
  const auto& topo = net->topology();
  for (g::Vertex r = 0; r < topo.num_routers(); ++r) {
    for (std::uint64_t e = topo.endpoint_offset[r];
         e < topo.endpoint_offset[r + 1]; ++e) {
      ASSERT_EQ(placement[e], p.part_of_vertex[r]);
    }
  }
  const workload::MultiTenantWorkload placed(tenants, placement);
  const auto [res, trace] = record_run(*net, placed, 0.05, prm);
  (void)res;
  ASSERT_GT(trace.events.size(), 0u);
  for (const auto& ev : trace.events) {
    ASSERT_EQ(placement[ev.src], placement[ev.dst])
        << "cross-tenant packet " << ev.src << " -> " << ev.dst;
  }
}

TEST(MultiTenantPlacement, InvalidPlacementsThrow) {
  const std::vector<workload::TenantPattern> tenants = {
      workload::TenantPattern::kUniform, workload::TenantPattern::kUniform};
  // Out-of-range tenant id.
  EXPECT_THROW(workload::MultiTenantWorkload(
                   tenants, std::vector<std::uint32_t>{0, 1, 2, 0}),
               std::invalid_argument);
  // Tenant 1 owns no endpoint.
  EXPECT_THROW(workload::MultiTenantWorkload(
                   tenants, std::vector<std::uint32_t>{0, 0, 0, 0}),
               std::invalid_argument);
  // Size mismatch surfaces at instantiate time (the topology is unknown
  // until then).
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const workload::MultiTenantWorkload placed(
      tenants, std::vector<std::uint32_t>{0, 1});
  auto prm = base_params();
  EXPECT_THROW(placed.instantiate(make_ctx(*net, 0.05, prm)),
               std::invalid_argument);
  // placement_from_router_parts demands a full router map.
  EXPECT_THROW(workload::placement_from_router_parts(
                   net->topology(), std::vector<std::uint32_t>{0, 1}),
               std::invalid_argument);
}

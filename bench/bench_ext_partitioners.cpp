// Streaming-partitioner suite (extension): quality of the five streaming
// algorithms (greedy/HDRF/DBH edge partitioning, LDG/Fennel vertex
// partitioning) on the Table 3 router graphs plus a >1M-edge synthetic
// circulant stream no offline partitioner would want to hold; a p=2 re-run
// of the Fig 12/13 bisection story per algorithm against the offline
// multilevel bisector; and a multi-job placement run (partition = tenant)
// feeding workload::MultiTenantWorkload.
//
// Everything here is deterministic (seeded streams, no wall-clock), so the
// whole stdout is golden-pinned and byte-identical at any
// POLARSTAR_THREADS.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "partition/partitioner.h"
#include "partition/stream.h"
#include "partition/streaming.h"
#include "workload/generators.h"

namespace {

using namespace polarstar;

// The synthetic stream: C(262144, 5 random strides) = 1,310,720 edges,
// streamed from O(1) generator state.
partition::CirculantStream synthetic_stream() {
  return partition::CirculantStream(1u << 18, 5, 42);
}

void print_quality_row(const std::string& name,
                       const partition::GraphStream& gs,
                       const partition::StreamOptions& opts) {
  for (const auto algo : partition::kAllStreamAlgos) {
    const auto part = partition::partition_stream(gs, algo, opts);
    const std::string verify = partition::verify_partition(gs, part);
    std::printf("%-12s %8u %9llu %-7s %-7s", name.c_str(), gs.num_vertices(),
                static_cast<unsigned long long>(gs.num_edges()),
                partition::to_string(algo), partition::to_string(part.flavor));
    if (part.flavor == partition::PartitionFlavor::kEdge) {
      std::printf(" %6.3f %7s", part.replication_factor, "-");
    } else {
      std::printf(" %6s %6.1f%%", "-", 100.0 * part.cut_fraction);
    }
    std::printf(" %8.3f %7s\n", part.balance,
                verify.empty() ? "ok" : "FAIL");
    if (!verify.empty()) std::printf("  !! %s\n", verify.c_str());
    std::fflush(stdout);
  }
}

void print_quality(const std::vector<bench::NamedTopo>& suite) {
  partition::StreamOptions opts;
  opts.num_parts = 8;
  std::printf("streaming partition quality at p=%u (RF = avg replicas per "
              "vertex, edge flavor; cut%% = cut edges, vertex flavor; "
              "balance = max load / ideal, eps = %.2f)\n",
              opts.num_parts, opts.balance_epsilon);
  std::printf("%-12s %8s %9s %-7s %-7s %6s %7s %8s %7s\n", "graph", "routers",
              "edges", "algo", "flavor", "RF", "cut%", "balance", "verify");
  for (const auto& nt : suite) {
    const partition::GraphView gv(nt.topology().g);
    print_quality_row(nt.name, gv, opts);
  }
  const auto circ = synthetic_stream();
  print_quality_row("circulant", circ, opts);
  std::printf("\n");
}

// The Fig 12/13 metric re-estimated per streaming algorithm: raw cut
// fraction of a 2-part split (plain edges, no indirect-topology
// normalization -- bench_fig12/13 keep the paper's normalization). The
// streaming passes see each vertex once; the offline bisector holds the
// whole graph and refines, so it stays the reference lower estimate.
void print_bisection(const std::vector<bench::NamedTopo>& suite) {
  partition::StreamOptions opts;
  opts.num_parts = 2;
  opts.balance_epsilon = 0.02;
  std::printf("p=2 cut fraction vs the offline multilevel bisector "
              "(Fig 12/13 re-run; raw edge cut, balance eps %.2f)\n",
              opts.balance_epsilon);
  std::printf("%-12s %11s %8s %8s\n", "graph", "multilevel", "ldg", "fennel");
  for (const auto& nt : suite) {
    const auto& g = nt.topology().g;
    const double offline = partition::bisection_fraction(g);
    const partition::GraphView gv(g);
    const auto ldg =
        partition::partition_stream(gv, partition::StreamAlgo::kLdg, opts);
    const auto fennel =
        partition::partition_stream(gv, partition::StreamAlgo::kFennel, opts);
    std::printf("%-12s %10.1f%% %7.1f%% %7.1f%%\n", nt.name.c_str(),
                100.0 * offline, 100.0 * ldg.cut_fraction,
                100.0 * fennel.cut_fraction);
    std::fflush(stdout);
  }
  std::printf("\n");
}

// Multi-job placement: the same four-tenant mix placed contiguously by
// endpoint id vs placed on an LDG 4-part router partition (each job's
// endpoints clustered on a low-cut region). One latency row per placement.
void print_placement(const bench::NamedTopo& ps,
                     const bench::SweepSettings& s) {
  const std::vector<workload::TenantPattern> mix = {
      workload::TenantPattern::kUniform, workload::TenantPattern::kPermutation,
      workload::TenantPattern::kTornado, workload::TenantPattern::kUniform};

  partition::StreamOptions opts;
  opts.num_parts = static_cast<std::uint32_t>(mix.size());
  const partition::GraphView gv(ps.topology().g);
  const auto part =
      partition::partition_stream(gv, partition::StreamAlgo::kLdg, opts);
  const auto placement =
      workload::placement_from_router_parts(ps.topology(), part.part_of_vertex);

  std::vector<runlab::SweepCase> cases;
  std::vector<std::string> labels = {"contiguous", "ldg-placed"};
  for (int placed = 0; placed < 2; ++placed) {
    runlab::SweepCase c = bench::sweep_case(
        ps, sim::Pattern::kUniform, sim::PathMode::kMinimal, s);
    c.name = ps.name + " " + labels[placed];
    c.workload =
        placed == 0
            ? std::make_shared<const workload::MultiTenantWorkload>(mix)
            : std::make_shared<const workload::MultiTenantWorkload>(mix,
                                                                    placement);
    c.loads = {0.10, 0.20};
    cases.push_back(std::move(c));
  }
  const auto results = bench::runner().run("partition-placement", cases);

  std::printf("multi-job placement on %s (4 tenants: %s)\n", ps.name.c_str(),
              cases[1].workload->describe().c_str());
  std::printf("%-12s %6s %10s %9s %10s\n", "placement", "load", "latency",
              "hops", "delivered");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (std::size_t j = 0; j < cases[i].loads.size(); ++j) {
      const auto& res = results[i].points[j].result;
      std::printf("%-12s %6.2f %10.1f %9.2f %10.4f\n", labels[i].c_str(),
                  cases[i].loads[j], res.avg_packet_latency, res.avg_hops,
                  res.delivered_fraction);
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main() {
  const auto suite = bench::simulation_suite();
  std::printf("Extension: streaming graph partitioners "
              "(greedy/HDRF/DBH edge, LDG/Fennel vertex)\n");
  print_quality(suite);
  print_bisection(suite);
  const bench::NamedTopo* ps = nullptr;
  for (const auto& nt : suite) {
    if (nt.name == "PS-IQ") ps = &nt;
  }
  bench::SweepSettings s;
  print_placement(*ps, s);
  return 0;
}

// Extension (Dawkins et al. 2024, arXiv 2403.12231): collectives over
// edge-disjoint spanning trees vs classic unicast algorithms.
//
// The star-product composition gives PolarStar k edge-disjoint spanning
// trees; chunk c of a broadcast/reduce/allreduce travels on tree c mod k,
// so the k trees carry k chunks concurrently on disjoint link sets. The
// tables below race that against the MPI-style unicast schedules (binomial
// tree over MIN and UGAL, ring, recursive doubling) on the PolarStar
// configurations plus Dragonfly (generic greedy tree packing -- every DF
// router carries endpoints) and Fat-tree (unicast only: its switch-level
// routers carry no endpoints, so tree interiors cannot forward). Each cell
// is the closed-loop completion time in cycles (run_app: first injection
// to last delivery, drained), lower is better.
//
// Like every sweep bench: POLARSTAR_THREADS only changes the parallelism
// shape, POLARSTAR_JSON captures every point (collective cases carry the
// schema-7 "collective" block plus the "workload" block), POLARSTAR_TRACE
// records the collective phase marks -- the printed tables are
// byte-identical throughout. The trailing self-check re-runs one EDST
// allreduce under SimParams::reference_impl and diffs the results bit for
// bit.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "collective/edst.h"
#include "collective/engine.h"

namespace {

using namespace polarstar;

/// A topology plus (when every router carries endpoints) its EDST set.
struct CollTopo {
  bench::NamedTopo nt;
  std::shared_ptr<const collective::EdstSet> trees;  // null = edst n/a
  bool star_product = false;  // composed trees vs generic packing
};

std::vector<CollTopo> collective_suite() {
  std::vector<CollTopo> suite;
  const auto add_ps = [&suite](const std::string& name,
                               core::PolarStarConfig cfg) {
    CollTopo ct;
    ct.nt.name = name;
    auto ps =
        std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
    ct.trees = std::make_shared<const collective::EdstSet>(
        collective::polarstar_edsts(*ps));
    ct.nt.net = std::make_shared<sim::Network>(
        core::shared_topology(ps), routing::make_polarstar_routing(ps));
    ct.nt.all_minpaths = true;
    ct.nt.grouped = true;
    ct.star_product = true;
    suite.push_back(std::move(ct));
  };
  if (bench::full_scale()) {
    add_ps("PS-IQ", {11, 3, core::SupernodeKind::kInductiveQuad, 5});
    add_ps("PS-Pal", {8, 6, core::SupernodeKind::kPaley, 5});
  } else {
    add_ps("PS-IQ", {5, 3, core::SupernodeKind::kInductiveQuad, 3});
    add_ps("PS-Pal", {4, 4, core::SupernodeKind::kPaley, 3});
  }
  for (auto& nt : bench::simulation_suite()) {
    if (nt.name != "DF" && nt.name != "FT") continue;
    CollTopo ct;
    ct.nt = std::move(nt);
    if (ct.nt.name == "DF") {
      // Every Dragonfly router carries endpoints, so the generic greedy
      // packing yields usable (if fewer) trees -- the non-star-product
      // baseline for the composition.
      ct.trees = std::make_shared<const collective::EdstSet>(
          collective::packed_edsts(ct.nt.topology().g));
    }
    suite.push_back(std::move(ct));
  }
  return suite;
}

void print_edst_summary(const std::vector<CollTopo>& suite) {
  std::printf("EDST construction (star-product composition vs generic "
              "packing)\n");
  std::printf("%-8s %8s %8s %4s %4s %5s %4s %6s %6s %8s %7s\n", "topo",
              "routers", "links", "s", "t", "comp", "aug", "trees", "bound",
              "ceiling", "verify");
  for (const auto& ct : suite) {
    if (ct.trees == nullptr) {
      std::printf("%-8s %8u %8zu %34s\n", ct.nt.name.c_str(),
                  ct.nt.topology().num_routers(),
                  ct.nt.topology().g.num_edges(),
                  "n/a (switch routers carry no endpoints)");
      continue;
    }
    const auto& g = ct.nt.topology().g;
    const std::size_t ceiling = std::min<std::size_t>(
        g.min_degree(), g.num_edges() / (g.num_vertices() - 1));
    const auto check = collective::verify_edsts(g, ct.trees->trees);
    std::printf("%-8s %8u %8zu %4zu %4zu %5zu %4zu %6zu %6zu %8zu %7s\n",
                ct.nt.name.c_str(), ct.nt.topology().num_routers(),
                g.num_edges(), ct.trees->structure_trees,
                ct.trees->supernode_trees, ct.trees->composed_trees,
                ct.trees->augmented_trees, ct.trees->trees.size(),
                ct.trees->guaranteed, ceiling,
                check.ok ? "PASS" : "FAIL");
    std::fflush(stdout);
  }
  std::printf("\n");
}

struct AlgoRow {
  const char* label;
  collective::Algorithm algorithm;
  sim::PathMode mode;
  bool needs_trees;
};

constexpr double kChunks[] = {2, 8, 32};

/// One completion-cycle table for `op`: rows = (topology, algorithm,
/// routing mode), columns = chunk counts. Returns the cycle matrix
/// (rows x chunk counts, 0 = not run) for the verdict lines.
std::vector<std::vector<std::uint64_t>> print_collective_table(
    const std::vector<CollTopo>& suite, collective::Op op,
    const std::vector<AlgoRow>& algos, const bench::SweepSettings& s) {
  struct Row {
    std::size_t topo;
    const AlgoRow* algo;
  };
  std::vector<Row> rows;
  std::vector<runlab::SweepCase> cases;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (const auto& a : algos) {
      if (a.needs_trees && suite[i].trees == nullptr) continue;
      collective::CollectiveSpec spec;
      spec.op = op;
      spec.algorithm = a.algorithm;
      runlab::SweepCase c = bench::sweep_case(
          suite[i].nt, sim::Pattern::kUniform, a.mode, s);
      c.name = suite[i].nt.name + " " + a.label;
      c.workload =
          a.needs_trees
              ? std::make_shared<const collective::CollectiveScenario>(
                    spec, suite[i].trees)
              : std::make_shared<const collective::CollectiveScenario>(spec);
      c.loads.assign(std::begin(kChunks), std::end(kChunks));
      c.stop_after_saturation = false;  // chunk counts, not offered loads
      rows.push_back({i, &a});
      cases.push_back(std::move(c));
    }
  }
  const auto results = bench::runner().run(
      std::string("collective-") + collective::to_string(op), cases);

  std::printf("%s completion cycles (lower is better)\n",
              collective::to_string(op));
  std::printf("%-8s %-14s", "topo", "algorithm");
  for (const double chunks : kChunks) {
    std::printf("  chunks=%-3.0f", chunks);
  }
  std::printf("\n");
  std::vector<std::vector<std::uint64_t>> cycles(
      rows.size(), std::vector<std::uint64_t>(std::size(kChunks), 0));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("%-8s %-14s", suite[rows[r].topo].nt.name.c_str(),
                rows[r].algo->label);
    for (std::size_t j = 0; j < std::size(kChunks); ++j) {
      const auto& res = results[r].points[j].result;
      cycles[r][j] = res.cycles;
      std::printf(" %10llu%s",
                  static_cast<unsigned long long>(res.cycles),
                  res.stable ? " " : "!");
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  // Verdict: on each tree-capable topology, EDST vs the best unicast row
  // at the deepest chunk count.
  const std::size_t last = std::size(kChunks) - 1;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    std::uint64_t edst = 0, best = 0;
    const char* best_label = "";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].topo != i) continue;
      if (rows[r].algo->needs_trees) {
        edst = cycles[r][last];
      } else if (best == 0 || cycles[r][last] < best) {
        best = cycles[r][last];
        best_label = rows[r].algo->label;
      }
    }
    if (edst == 0 || best == 0) continue;
    std::printf("  %s @%g chunks: edst %llu vs best unicast %llu (%s) -> "
                "%s\n",
                suite[i].nt.name.c_str(), kChunks[last],
                static_cast<unsigned long long>(edst),
                static_cast<unsigned long long>(best), best_label,
                edst < best ? "edst wins" : "unicast wins");
  }
  std::printf("\n");
  std::fflush(stdout);
  return cycles;
}

/// The bench-local determinism self-check: one EDST allreduce re-run under
/// reference_impl must give bit-identical results (the `ctest -L perf`
/// contract, asserted here on the bench's own configuration).
void print_identity_check(const CollTopo& ct, const bench::SweepSettings& s) {
  collective::CollectiveSpec spec;
  spec.op = collective::Op::kAllreduce;
  spec.algorithm = collective::Algorithm::kEdst;
  const auto run = [&](bool reference) {
    sim::SimParams prm = bench::sweep_params(ct.nt, sim::PathMode::kMinimal, s);
    prm.reference_impl = reference;
    collective::CollectiveEngine src(ct.nt.topology(), spec, /*chunks=*/8,
                                     ct.trees);
    sim::Simulation sim(*ct.nt.net, prm, src);
    return sim.run_app(4'000'000);
  };
  const auto base = run(false);
  const auto res = run(true);
  const bool identical =
      res.cycles == base.cycles &&
      res.packets_delivered == base.packets_delivered &&
      res.avg_packet_latency == base.avg_packet_latency &&
      res.avg_hops == base.avg_hops && res.stable == base.stable &&
      res.source.collective_json == base.source.collective_json;
  std::printf("bit-identity (%s edst allreduce vs reference): "
              "%s (completion %llu)\n",
              ct.nt.name.c_str(), identical ? "identical" : "MISMATCH",
              static_cast<unsigned long long>(base.cycles));
}

}  // namespace

int main() {
  const auto suite = collective_suite();
  bench::SweepSettings s;

  print_edst_summary(suite);

  const std::vector<AlgoRow> bcast_algos = {
      {"edst/min", collective::Algorithm::kEdst, sim::PathMode::kMinimal,
       true},
      {"binomial/min", collective::Algorithm::kBinomial,
       sim::PathMode::kMinimal, false},
      {"binomial/ugal", collective::Algorithm::kBinomial, sim::PathMode::kUgal,
       false},
      {"ring/min", collective::Algorithm::kRing, sim::PathMode::kMinimal,
       false},
  };
  std::vector<AlgoRow> allreduce_algos = bcast_algos;
  allreduce_algos.push_back({"recdoub/min",
                             collective::Algorithm::kRecursiveDoubling,
                             sim::PathMode::kMinimal, false});

  print_collective_table(suite, collective::Op::kBroadcast, bcast_algos, s);
  print_collective_table(suite, collective::Op::kAllreduce, allreduce_algos,
                         s);
  print_identity_check(suite.front(), s);
  return 0;
}

// Collective-communication scenario: replay Allreduce and Sweep3D motifs
// (the Fig 11 workloads) on PolarStar and Dragonfly at matched scale, with
// minimal and adaptive routing, and report completion times.
//
//   ./example_collectives [ranks] [packets_per_message]
//     ranks defaults to 256 (must be <= endpoints of the small configs).
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/polarstar.h"
#include "motif/allreduce.h"
#include "motif/sweep3d.h"
#include "routing/routing.h"
#include "sim/simulation.h"
#include "topo/dragonfly.h"

namespace {

using namespace polarstar;

std::uint64_t run(std::shared_ptr<const topo::Topology> t,
                  std::shared_ptr<const routing::MinimalRouting> r,
                  motif::StepProgram prog, sim::PathMode mode) {
  sim::Network net(std::move(t), std::move(r));
  sim::SimParams prm;
  prm.path_mode = mode;
  prm.num_vcs = mode == sim::PathMode::kUgal ? 8 : 4;
  sim::Simulation s(net, prm, prog);
  auto res = s.run_app(5'000'000);
  return res.stable ? res.cycles : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t want_ranks = argc > 1 ? std::atoi(argv[1]) : 256;
  const std::uint32_t ppm = argc > 2 ? std::atoi(argv[2]) : 4;

  // PolarStar(q=5, d'=4): 310 routers x 3 = 930 endpoints.
  auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
      {5, 4, core::SupernodeKind::kInductiveQuad, 3}));
  auto ps_route = routing::make_polarstar_routing(ps);
  // Dragonfly(a=7, h=3, p=3): 154 routers x 3 = 462 endpoints.
  auto df = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({7, 3, 3}));
  auto df_route = routing::make_table_routing(df->g);

  const std::uint32_t ranks = std::bit_floor(
      std::min<std::uint32_t>(want_ranks,
                              static_cast<std::uint32_t>(std::min(
                                  ps->topology().num_endpoints(),
                                  df->num_endpoints()))));
  std::printf("allreduce (recursive doubling), %u ranks, %u packets/msg:\n",
              ranks, ppm);
  auto ar = [&] {
    return motif::make_allreduce(ranks, ppm, 10,
                                 motif::AllreduceAlgorithm::kRecursiveDoubling);
  };
  std::printf("  PolarStar  MIN  %8llu cycles\n",
              (unsigned long long)run(polarstar::core::shared_topology(ps), ps_route, ar(),
                                      sim::PathMode::kMinimal));
  std::printf("  PolarStar  UGAL %8llu cycles\n",
              (unsigned long long)run(polarstar::core::shared_topology(ps), ps_route, ar(),
                                      sim::PathMode::kUgal));
  std::printf("  Dragonfly  MIN  %8llu cycles\n",
              (unsigned long long)run(df, df_route, ar(),
                                      sim::PathMode::kMinimal));
  std::printf("  Dragonfly  UGAL %8llu cycles\n",
              (unsigned long long)run(df, df_route, ar(),
                                      sim::PathMode::kUgal));

  // Sweep3D on a square-ish grid of the same ranks.
  std::uint32_t px = 1;
  while (px * px < ranks) px *= 2;
  const std::uint32_t py = ranks / px;
  std::printf("\nsweep3d on a %ux%u grid, %u packets/msg, 10 iterations:\n",
              px, py, ppm);
  auto sw = [&] { return motif::make_sweep3d(px, py, ppm, 10); };
  std::printf("  PolarStar  MIN  %8llu cycles\n",
              (unsigned long long)run(polarstar::core::shared_topology(ps), ps_route, sw(),
                                      sim::PathMode::kMinimal));
  std::printf("  Dragonfly  MIN  %8llu cycles\n",
              (unsigned long long)run(df, df_route, sw(),
                                      sim::PathMode::kMinimal));
  return 0;
}

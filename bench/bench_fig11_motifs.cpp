// Figure 11: real-world motifs -- Allreduce (recursive doubling) and
// Sweep3D wavefront, 10 iterations, linear rank-to-endpoint mapping, on
// PolarStar / Dragonfly / HyperX / Fat-tree with MIN and adaptive (UGAL)
// routing. Reports total completion cycles (lower is better).
//
// Paper setup: 64 KiB allreduce messages on SST/Merlin. Here message size
// is expressed in packets (64 B flits, 4-flit packets -> 256 B/packet);
// default 16 packets (4 KiB) at reduced scale, 64 packets with
// POLARSTAR_FULL=1.
#include <bit>
#include <cstdio>

#include "bench_common.h"
#include "motif/allreduce.h"
#include "motif/sweep3d.h"

namespace {

using namespace polarstar;

std::uint64_t run(const bench::NamedTopo& nt, motif::StepProgram prog,
                  sim::PathMode mode) {
  sim::SimParams prm;
  prm.path_mode = mode;
  prm.num_vcs = mode == sim::PathMode::kUgal ? 8 : 4;
  prm.min_select = nt.all_minpaths ? sim::MinSelect::kAdaptive
                                   : sim::MinSelect::kSingleHash;
  sim::Simulation s(*nt.net, prm, prog);
  auto res = s.run_app(50'000'000);
  return res.stable ? res.cycles : 0;
}

}  // namespace

int main() {
  auto all = bench::simulation_suite();
  std::vector<bench::NamedTopo> suite;
  for (auto& nt : all) {
    // Fig 11 compares PS-IQ, DF, HX, FT.
    if (nt.name == "PS-IQ" || nt.name == "DF" || nt.name == "HX" ||
        nt.name == "FT") {
      suite.push_back(std::move(nt));
    }
  }
  const std::uint32_t ppm = bench::full_scale() ? 64 : 16;
  const std::uint32_t iters = 10;

  // Communicator: largest power of two that fits every topology.
  std::uint64_t min_eps = ~0ull;
  for (const auto& nt : suite) {
    min_eps = std::min(min_eps, nt.topology().num_endpoints());
  }
  const std::uint32_t ranks =
      std::bit_floor(static_cast<std::uint32_t>(min_eps));

  std::printf("Figure 11: motifs, %u ranks, %u packets/message, %u iters\n",
              ranks, ppm, iters);
  std::printf("\n(a) Allreduce (recursive doubling) -- completion cycles\n");
  std::printf("%-8s %12s %12s %12s\n", "topo", "MIN", "UGAL", "speedup");
  for (const auto& nt : suite) {
    auto ar = [&] {
      return motif::make_allreduce(
          ranks, ppm, iters, motif::AllreduceAlgorithm::kRecursiveDoubling);
    };
    const auto tmin = run(nt, ar(), sim::PathMode::kMinimal);
    const auto tugal = run(nt, ar(), sim::PathMode::kUgal);
    std::printf("%-8s %12llu %12llu %11.2fx\n", nt.name.c_str(),
                static_cast<unsigned long long>(tmin),
                static_cast<unsigned long long>(tugal),
                tugal ? static_cast<double>(tmin) / tugal : 0.0);
  }

  // Sweep3D on a 2D grid of the same ranks.
  std::uint32_t px = 1;
  while (px * px < ranks) px *= 2;
  const std::uint32_t py = ranks / px;
  std::printf("\n(b) Sweep3D on %ux%u -- completion cycles\n", px, py);
  std::printf("%-8s %12s %12s %12s\n", "topo", "MIN", "UGAL", "speedup");
  for (const auto& nt : suite) {
    auto sw = [&] { return motif::make_sweep3d(px, py, ppm, iters); };
    const auto tmin = run(nt, sw(), sim::PathMode::kMinimal);
    const auto tugal = run(nt, sw(), sim::PathMode::kUgal);
    std::printf("%-8s %12llu %12llu %11.2fx\n", nt.name.c_str(),
                static_cast<unsigned long long>(tmin),
                static_cast<unsigned long long>(tugal),
                tugal ? static_cast<double>(tmin) / tugal : 0.0);
  }
  return 0;
}

// polarstar_sim -- command-line flit-level simulation runner (the BookSim
// substitute's front end). Prints one CSV row per load point.
//
//   polarstar_sim <topo> [pattern] [mode] [loads...] [key=value...]
//     topo:    Table 3 row (PS-IQ PS-Pal BF HX DF SF MF FT)
//     pattern: uniform permutation shuffle reverse adversarial tornado
//              hotspot                      (default uniform)
//     mode:    min min-adaptive ugal        (default min)
//     loads:   numbers in (0,1]             (default 0.1..0.9)
//     keys:    vcs= buffers= flits= warmup= measure= drain= seed= link=
//              (unsigned integers; see kKeys for each range)
//
// Bad arguments (and --help) print the usage to stderr and exit 2.
//
// Example:
//   polarstar_sim PS-IQ uniform ugal 0.2 0.4 0.6 vcs=8 seed=3
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/topology_zoo.h"
#include "core/polarstar.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "sim/simulation.h"
#include "sim/traffic.h"

namespace {

using namespace polarstar;

constexpr const char* kTopologies[] = {"PS-IQ", "PS-Pal", "BF", "HX",
                                       "DF",    "SF",     "MF", "FT"};

struct Key {
  const char* name;
  std::uint64_t min, max;
};

// Accepted range per key. vcs is bounded by the simulator's 32-bit VC
// occupancy mask; buffer and packet sizes stay small enough to allocate at
// Table 3 scale; cycle counts stay far from overflow when summed.
constexpr std::uint64_t kMaxCycles = 1'000'000'000;
constexpr Key kKeys[] = {
    {"vcs", 1, 32},
    {"buffers", 1, 1024},
    {"flits", 1, 1024},
    {"warmup", 0, kMaxCycles},
    {"measure", 1, kMaxCycles},
    {"drain", 0, kMaxCycles},
    {"seed", 0, std::numeric_limits<std::uint64_t>::max()},
    {"link", 1, 1000},
};

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "polarstar_sim: " << error << "\n";
  std::cerr << "usage: polarstar_sim <topo> [pattern] [mode] [loads...] "
               "[key=value...]\n"
               "  topo:    ";
  for (const char* t : kTopologies) std::cerr << " " << t;
  std::cerr << "\n  patterns: " << sim::pattern_names()
            << "\n"
               "  modes:    min, min-adaptive, ugal\n"
               "  loads:    numbers in (0,1] (default 0.1..0.9)\n"
               "  keys:    ";
  for (const Key& k : kKeys) {
    std::cerr << " " << k.name << "=[" << k.min << "," << k.max << "]";
  }
  std::cerr << "\n";
  return 2;
}

// The whole string must be an unsigned decimal integer.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

// The whole string must be a finite number.
bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(out);
}

void simulate(const std::string& topo_name, sim::Pattern pattern,
              const sim::SimParams& prm, bool adaptive,
              const std::vector<double>& loads) {
  auto topo = std::make_shared<const topo::Topology>(
      analysis::build_table3(topo_name));
  std::shared_ptr<const routing::MinimalRouting> route;
  if (topo_name == "PS-IQ") {
    auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
        {11, 3, core::SupernodeKind::kInductiveQuad, 5}));
    route = routing::make_polarstar_routing(ps);
  } else if (topo_name == "PS-Pal") {
    auto ps = std::make_shared<const core::PolarStar>(
        core::PolarStar::build({8, 6, core::SupernodeKind::kPaley, 5}));
    route = routing::make_polarstar_routing(ps);
  } else if (topo_name == "DF") {
    route = std::make_shared<routing::DragonflyRouting>(topo);
  } else {
    route = routing::make_table_routing(topo->g);
  }
  sim::Network net(topo, route);

  std::printf("topology,pattern,mode,load,avg_latency,p99_latency,"
              "accepted,avg_hops,stable\n");
  for (double load : loads) {
    auto src = sim::make_pattern_source(*topo, pattern, load,
                                        prm.packet_flits, prm.seed);
    sim::Simulation s(net, prm, *src);
    auto res = s.run();
    std::printf("%s,%s,%s,%.3f,%.2f,%.0f,%.4f,%.3f,%d\n", topo_name.c_str(),
                sim::to_string(pattern),
                prm.path_mode == sim::PathMode::kUgal
                    ? "ugal"
                    : (adaptive ? "min-adaptive" : "min"),
                load, res.avg_packet_latency, res.p99_packet_latency,
                res.accepted_flit_rate, res.avg_hops, res.stable ? 1 : 0);
    std::fflush(stdout);
    if (!res.stable) break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("");
  const std::string topo_name = argv[1];
  if (topo_name == "--help" || topo_name == "-h") return usage("");
  if (std::find(std::begin(kTopologies), std::end(kTopologies), topo_name) ==
      std::end(kTopologies)) {
    return usage("unknown topology " + topo_name);
  }
  sim::Pattern pattern = sim::Pattern::kUniform;
  sim::SimParams prm;
  prm.warmup_cycles = 1000;
  prm.measure_cycles = 2000;
  prm.drain_cycles = 12000;
  bool adaptive = false;
  std::vector<double> loads;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      const std::string key = arg.substr(0, eq);
      const Key* k = std::find_if(std::begin(kKeys), std::end(kKeys),
                                  [&key](const Key& c) { return key == c.name; });
      if (k == std::end(kKeys)) return usage("unknown key " + key);
      std::uint64_t val = 0;
      if (!parse_u64(arg.substr(eq + 1), val) || val < k->min ||
          val > k->max) {
        return usage("bad value in " + arg);
      }
      const auto v32 = static_cast<std::uint32_t>(val);
      if (key == "vcs") prm.num_vcs = v32;
      else if (key == "buffers") prm.vc_buffer_flits = v32;
      else if (key == "flits") prm.packet_flits = v32;
      else if (key == "warmup") prm.warmup_cycles = val;
      else if (key == "measure") prm.measure_cycles = val;
      else if (key == "drain") prm.drain_cycles = val;
      else if (key == "seed") prm.seed = val;
      else prm.link_latency = v32;
    } else if (auto parsed = sim::pattern_from_string(arg)) {
      pattern = *parsed;
    } else if (arg == "min") {
      prm.path_mode = sim::PathMode::kMinimal;
    } else if (arg == "min-adaptive") {
      prm.path_mode = sim::PathMode::kMinimal;
      adaptive = true;
    } else if (arg == "ugal") {
      prm.path_mode = sim::PathMode::kUgal;
      prm.num_vcs = std::max(prm.num_vcs, 8u);
    } else {
      double load = 0.0;
      if (!parse_double(arg, load)) {
        return usage("unrecognized argument " + arg);
      }
      if (!(load > 0.0 && load <= 1.0)) {
        return usage("load " + arg + " outside (0,1]");
      }
      loads.push_back(load);
    }
  }
  if (loads.empty()) loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  prm.min_select =
      adaptive ? sim::MinSelect::kAdaptive : sim::MinSelect::kSingleHash;

  // Argument combinations the libraries reject (e.g. a pattern the
  // topology cannot express) are usage errors too.
  try {
    simulate(topo_name, pattern, prm, adaptive, loads);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "polarstar_sim: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// polarstar_cli -- generate, export and analyze the library's topologies
// from the command line.
//
//   polarstar_cli generate <spec> [--format edgelist|dot|anynet]
//   polarstar_cli analyze  <spec>
//   polarstar_cli design   <radix>
//
// <spec> is either a Table 3 row name (PS-IQ PS-Pal BF HX DF SF MF FT) or:
//   polarstar q=<q> d=<d'> [kind=iq|paley|bdf|complete] [p=<endpoints>]
//   polarfly  q=<q> [p=..]       slimfly q=<q> [p=..]
//   dragonfly a=<a> h=<h> [p=..] hyperx  s=<s0>x<s1>x<s2> [p=..]
//
// Bad arguments (and --help) print the usage to stderr and exit 2.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/bisection.h"
#include "analysis/spectral.h"
#include "analysis/topology_zoo.h"
#include "core/design_space.h"
#include "core/polarstar.h"
#include "graph/algorithms.h"
#include "io/export.h"
#include "topo/dragonfly.h"
#include "topo/hyperx.h"
#include "topo/polarfly.h"
#include "topo/slimfly.h"

namespace {

using namespace polarstar;

constexpr const char* kTable3[] = {"PS-IQ", "PS-Pal", "BF", "HX",
                                   "DF",    "SF",     "MF", "FT"};

struct Key {
  const char* name;
  std::uint32_t min, max;
};

// Accepted range per numeric value: router-radix scale. The ranges catch
// negatives, wraps and typos; they do not bound the size of the product
// (a large q with a large d' still builds a large network).
constexpr std::uint32_t kMaxParam = 256;
constexpr Key kKeys[] = {
    {"q", 2, kMaxParam}, {"d", 0, kMaxParam}, {"p", 0, kMaxParam},
    {"a", 2, kMaxParam}, {"h", 1, kMaxParam}, {"s", 2, kMaxParam},
};
constexpr Key kRadix = {"radix", 1, 4096};

struct KindName {
  const char* name;
  core::SupernodeKind kind;
};
constexpr KindName kKinds[] = {
    {"iq", core::SupernodeKind::kInductiveQuad},
    {"paley", core::SupernodeKind::kPaley},
    {"bdf", core::SupernodeKind::kBdf},
    {"complete", core::SupernodeKind::kComplete},
};

/// A bad argv; main prints the message and the usage and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "polarstar_cli: " << error << "\n";
  std::cerr << "usage: polarstar_cli generate <spec> "
               "[--format edgelist|dot|anynet]\n"
               "       polarstar_cli analyze  <spec>\n"
               "       polarstar_cli design   <radix>\n"
               "  <spec>:  ";
  for (const char* t : kTable3) std::cerr << " " << t;
  std::cerr << "\n           polarstar q= d= [kind=iq|paley|bdf|complete] "
               "[p=]\n"
               "           polarfly q= [p=]   slimfly q= [p=]\n"
               "           dragonfly a= h= [p=]   hyperx s=<s0>x<s1>x<s2> "
               "[p=]\n"
               "  ranges: ";
  for (const Key& k : kKeys) {
    std::cerr << " " << k.name << "=[" << k.min << "," << k.max << "]";
  }
  std::cerr << " radix=[" << kRadix.min << "," << kRadix.max << "]\n";
  return 2;
}

// The whole string must be an unsigned decimal integer inside `k`'s range.
std::uint32_t parse_u32(const Key& k, const std::string& s) {
  std::uint32_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end || v < k.min ||
      v > k.max) {
    throw UsageError("bad value " + std::string(k.name) + "=" + s);
  }
  return v;
}

const Key& key(const std::string& name) {
  for (const Key& k : kKeys) {
    if (name == k.name) return k;
  }
  throw UsageError("unknown key " + name);
}

/// The key=value arguments after <spec>.
struct SpecArgs {
  std::map<std::string, std::uint32_t> num;
  std::vector<std::uint32_t> dims{4, 4, 4};
  core::SupernodeKind kind = core::SupernodeKind::kInductiveQuad;

  std::uint32_t get(const std::string& name, std::uint32_t fallback) const {
    auto it = num.find(name);
    return it == num.end() ? fallback : it->second;
  }
};

/// Parses argv[from..]: key=value pairs, plus `--format <f>` when `format`
/// is non-null (generate only).
SpecArgs parse_spec_args(int argc, char** argv, int from,
                         std::string* format) {
  SpecArgs args;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (format != nullptr && arg == "--format") {
      if (i + 1 == argc) throw UsageError("--format needs a value");
      *format = argv[++i];
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      throw UsageError("unrecognized argument " + arg);
    }
    const std::string name = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (name == "kind") {
      const auto* k = std::find_if(
          std::begin(kKinds), std::end(kKinds),
          [&](const KindName& kn) { return value == kn.name; });
      if (k == std::end(kKinds)) throw UsageError("unknown kind " + value);
      args.kind = k->kind;
    } else if (name == "s") {
      args.dims.clear();
      std::stringstream ss(value);
      std::string part;
      while (std::getline(ss, part, 'x')) {
        args.dims.push_back(parse_u32(key("s"), part));
      }
      if (args.dims.empty()) throw UsageError("bad value " + arg);
    } else {
      args.num[name] = parse_u32(key(name), value);
    }
  }
  return args;
}

topo::Topology build_spec(int argc, char** argv, std::string* format) {
  if (argc < 3) throw UsageError("missing <spec>");
  const std::string what = argv[2];
  const SpecArgs args = parse_spec_args(argc, argv, 3, format);
  if (std::find(std::begin(kTable3), std::end(kTable3), what) !=
      std::end(kTable3)) {
    return analysis::build_table3(what);
  }
  const std::uint32_t p = args.get("p", 0);
  if (what == "polarstar") {
    core::PolarStarConfig cfg{args.get("q", 5), args.get("d", 3), args.kind,
                              p};
    if (!core::polarstar_feasible(cfg)) {
      throw UsageError("infeasible polarstar config");
    }
    return core::PolarStar::build(cfg).topology();
  }
  if (what == "polarfly") return topo::polarfly::build({args.get("q", 7), p});
  if (what == "slimfly") return topo::slimfly::build({args.get("q", 5), p});
  if (what == "dragonfly") {
    return topo::dragonfly::build({args.get("a", 8), args.get("h", 4), p});
  }
  if (what == "hyperx") return topo::hyperx::build({args.dims, p});
  throw UsageError("unknown topology spec " + what);
}

int cmd_generate(int argc, char** argv) {
  std::string format = "edgelist";
  const auto t = build_spec(argc, argv, &format);
  if (format == "edgelist") {
    io::write_edge_list(std::cout, t.g, t.name);
  } else if (format == "dot") {
    io::write_dot(std::cout, t);
  } else if (format == "anynet") {
    io::write_booksim_anynet(std::cout, t);
  } else {
    throw UsageError("unknown format " + format);
  }
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  const auto t = build_spec(argc, argv, nullptr);
  auto stats = graph::path_stats(t.g);
  auto bis = analysis::bisection_report(t);
  const double l2 = analysis::algebraic_connectivity(t.g);
  std::printf("topology:      %s\n", t.name.c_str());
  std::printf("routers:       %u\n", t.num_routers());
  std::printf("links:         %zu\n", t.g.num_edges());
  std::printf("radix:         %u\n", t.network_radix());
  std::printf("endpoints:     %llu\n",
              static_cast<unsigned long long>(t.num_endpoints()));
  std::printf("diameter:      %u\n", stats.diameter);
  std::printf("avg path len:  %.4f\n", stats.avg_path_length);
  std::printf("bisection:     %llu links (%.1f%% of normalizing links)\n",
              static_cast<unsigned long long>(bis.cut_links),
              100.0 * bis.fraction);
  std::printf("spectral l2:   %.3f (bisection lower bound %llu links)\n", l2,
              static_cast<unsigned long long>(
                  analysis::spectral_bisection_lower_bound(t.g)));
  return 0;
}

int cmd_design(int argc, char** argv) {
  if (argc != 3) throw UsageError("design takes one <radix>");
  const std::uint32_t radix = parse_u32(kRadix, argv[2]);
  std::printf("%-10s %5s %5s %12s\n", "kind", "q", "d'", "order");
  for (const auto& pt : core::polarstar_candidates(radix, true)) {
    std::printf("%-10s %5u %5u %12llu\n", core::to_string(pt.cfg.kind),
                pt.cfg.q, pt.cfg.d_prime,
                static_cast<unsigned long long>(pt.order));
  }
  auto best = core::best_polarstar(radix);
  std::printf("best: %s q=%u d'=%u -> %llu routers (StarMax %llu)\n",
              core::to_string(best.cfg.kind), best.cfg.q, best.cfg.d_prime,
              static_cast<unsigned long long>(best.order),
              static_cast<unsigned long long>(core::starmax_bound(radix)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("");
  const std::string cmd = argv[1];
  // Argument combinations the libraries reject (e.g. a polarfly q that is
  // not a prime power) are usage errors too.
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "analyze") return cmd_analyze(argc, argv);
    if (cmd == "design") return cmd_design(argc, argv);
    if (cmd == "--help" || cmd == "-h") return usage("");
    return usage("unknown command " + cmd);
  } catch (const UsageError& e) {
    return usage(e.what());
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "polarstar_cli: " << e.what() << "\n";
    return 1;
  }
}

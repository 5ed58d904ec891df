// polarstar_perfbench: the simulator benchmark.
//
// Runs one named workload again and again for a fixed number of seconds,
// each iteration from scratch (topology build, routing, Network, EDSTs,
// fault schedules, then the simulations), checks every simulated point,
// and prints the medians of the end-to-end metrics (--trace 0) or of the
// per-layer metrics (--trace 1) as the last line of stdout:
//
//   {"correct": true, "attempted": 77, "failed": 0, "metrics": {...}}
//
// A traced run alternates untraced and traced iterations, so it can also
// report the tracing overhead; traced iterations turn on the engine
// self-profiler and record spans around every layer call, written once at
// the end to --spans-dir. See perfbench/README.md for the workloads and
// metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace perfbench;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: polarstar_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n"
               "                           [--spans-dir DIR] [--revision REV]\n"
               "       polarstar_perfbench --self-test\n"
               "workloads:");
  for (const auto& w : workloads()) std::fprintf(to, " %s", w.name);
  std::fprintf(to, "\n");
}

int usage_error(const std::string& msg) {
  std::fprintf(stderr, "polarstar_perfbench: %s\n", msg.c_str());
  print_usage(stderr);
  return 2;
}

/// Decimal digits only, no sign, no overflow, value <= max.
bool parse_uint(const std::string& s, std::uint64_t max, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
    if (v > max / 10) return false;
    v *= 10;
    if (digit > max - v) return false;
    v += digit;
  }
  out = v;
  return true;
}

struct Args {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string spans_dir;
  std::string revision = "unknown";
};

/// Returns 0 and fills `a`, or the exit status after printing usage.
int parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      print_usage(stdout);
      return 1;
    }
    if (i + 1 >= argc) return usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = nullptr;
      for (const auto& w : workloads()) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) {
        return usage_error("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      if (!parse_uint(value, ~std::uint64_t{0}, a.seed)) {
        return usage_error("--seed needs an unsigned integer, got '" +
                           value + "'");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 600, a.seconds) || a.seconds == 0) {
        return usage_error("--seconds needs an integer in 1..600, got '" +
                           value + "'");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_uint(value, 1, n)) {
        return usage_error("--trace needs 0 or 1, got '" + value + "'");
      }
      a.trace = n == 1;
      have_trace = true;
    } else if (flag == "--spans-dir") {
      a.spans_dir = value;
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      return usage_error("unknown argument '" + flag + "'");
    }
  }
  if (a.workload == nullptr) return usage_error("--workload is required");
  if (!have_seed) return usage_error("--seed is required");
  if (!have_seconds) return usage_error("--seconds is required");
  if (!have_trace) return usage_error("--trace is required");
  return 0;
}

/// Each workload fixes its own threads and shards; nothing the caller
/// exported (POLARSTAR_THREADS, _SHARDS, _JSON, _TRACE, _PROFILE, ...)
/// may leak into the runs.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("POLARSTAR_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      out += ch;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string host_fingerprint(const std::string& revision) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable = sched_getaffinity(0, sizeof set, &set) == 0
                         ? CPU_COUNT(&set)
                         : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"cpus_online\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpus_usable\": " << usable << ", \"cpu_model\": \""
     << json_escape(cpu_model()) << "\", \"compiler\": \""
     << json_escape(compiler) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE
     << "\", \"optimized\": " << (kOptimized ? "true" : "false")
     << ", \"ndebug\": " << (kNdebug ? "true" : "false")
     << ", \"revision\": \"" << json_escape(revision) << "\"}";
  return os.str();
}

/// Cumulative steal and total jiffies over all cpus (zeros when
/// /proc/stat is unreadable).
struct CpuJiffies {
  double steal = 0.0, total = 0.0;
};

CpuJiffies cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuJiffies j;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) return {};
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

/// Fewest iterations per run: a traced run needs both kinds, and the
/// quieter half of three is two.
constexpr std::size_t kMinIterations = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sums over an iteration's simulated points.
struct Totals {
  double points = 0, unstable = 0, cycles = 0, packets = 0, flit_hops = 0;
  double lat_sum = 0, lat_weight = 0;       // packet-weighted latency
  double completion_sum = 0;                // closed-loop completion cycles
  double delivered = 0, delivered_denom = 0;
  double fault_events = 0, drops = 0, retransmits = 0, lost = 0;
  double coll_sent = 0, coll_expected = 0;
  double route = 0, inject = 0, deliver = 0, barrier = 0, fault = 0,
         telemetry = 0, driver_wait = 0, shard_task = 0;
  bool collective = false;
};

Totals totals(const Iteration& it) {
  Totals t;
  for (const Point& p : it.points) {
    if (p.threw) continue;
    const auto& r = p.res;
    t.points += 1;
    t.unstable += r.stable ? 0 : 1;
    t.cycles += static_cast<double>(r.cycles);
    t.packets += static_cast<double>(r.packets_delivered);
    t.flit_hops +=
        static_cast<double>(flit_hops(r, sim::SimParams{}.packet_flits));
    if (p.collective) {
      t.collective = true;
      t.completion_sum += static_cast<double>(r.cycles);
      const CollectiveCounts c = parse_collective(r.source.collective_json);
      t.coll_sent += static_cast<double>(c.packets_sent);
      t.coll_expected += static_cast<double>(c.expected_deliveries);
    } else if (r.stable) {
      const auto measured = static_cast<double>(r.measured_packets);
      t.lat_sum += r.avg_packet_latency * measured;
      t.lat_weight += measured;
    }
    // delivered_fraction = measured delivered / measured accounted for, so
    // measured / fraction recovers each point's denominator.
    if (r.measured_packets > 0 && r.delivered_fraction > 0.0) {
      t.delivered += static_cast<double>(r.measured_packets);
      t.delivered_denom +=
          static_cast<double>(r.measured_packets) / r.delivered_fraction;
    }
    t.fault_events += static_cast<double>(r.fault_events);
    t.drops += static_cast<double>(r.packets_dropped);
    t.retransmits += static_cast<double>(r.retransmits);
    t.lost += static_cast<double>(r.packets_lost);
    const auto& pr = r.profile;
    t.route += pr.route_seconds;
    t.inject += pr.inject_seconds;
    t.deliver += pr.deliver_seconds;
    t.barrier += pr.barrier_seconds;
    t.fault += pr.fault_seconds;
    t.telemetry += pr.telemetry_seconds;
    t.driver_wait += pr.driver_wait_seconds;
    for (double s : pr.shard_task_seconds) t.shard_task += s;
  }
  return t;
}

struct Metric {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, in BENCHMARK.json order.
const Metric kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_s", "s"},
    {"mflit_hops_per_s", "Mflit-hops/s"},
    {"peak_rss_mb", "MB"},
    {"sim_latency_cyc", "cycles"},
    {"sim_delivered_frac", "fraction"},
};

std::map<std::string, double> end_to_end(const Iteration& it) {
  const Totals t = totals(it);
  std::map<std::string, double> m;
  m["wall_s"] = it.wall_s;
  m["setup_s"] = it.setup_s;
  m["sim_s"] = it.sim_s;
  m["mflit_hops_per_s"] = it.sim_s > 0 ? t.flit_hops / it.sim_s / 1e6 : 0.0;
  m["sim_latency_cyc"] =
      t.collective ? (t.points > 0 ? t.completion_sum / t.points : 0.0)
                   : (t.lat_weight > 0 ? t.lat_sum / t.lat_weight : 0.0);
  m["sim_delivered_frac"] =
      t.delivered_denom > 0 ? t.delivered / t.delivered_denom : 1.0;
  return m;
}

// The per-layer metrics, in BENCHMARK.json order.
const Metric kPerLayer[] = {
    {"core.build_s", "s"},
    {"routing.build_s", "s"},
    {"sim.network_s", "s"},
    {"collective.edst_s", "s"},
    {"fault.schedule_s", "s"},
    {"sim.ctor_s", "s"},
    {"sim.run_s", "s"},
    {"sim.route_s", "s"},
    {"sim.inject_s", "s"},
    {"sim.deliver_s", "s"},
    {"sim.barrier_s", "s"},
    {"sim.fault_s", "s"},
    {"sim.telemetry_s", "s"},
    {"sim.driver_wait_s", "s"},
    {"sim.shard_task_s", "s"},
    {"sim.shard4_run_s", "s"},
    {"sim.shard4_speedup", "x"},
    {"sim.profile_cover", "fraction"},
    {"runlab.util", "fraction"},
    {"runlab.chain_max_s", "s"},
    {"sim.points", "count"},
    {"sim.points_unstable", "count"},
    {"sim.cycles", "count"},
    {"sim.packets", "count"},
    {"sim.flit_hops", "count"},
    {"sim.ns_per_flit_hop", "ns"},
    {"fault.events", "count"},
    {"fault.drops", "count"},
    {"fault.retransmits", "count"},
    {"fault.lost", "count"},
    {"collective.packets_sent", "count"},
    {"collective.deliveries_expected", "count"},
    {"collective.trees", "count"},
    {"bench.trace_overhead_frac", "fraction"},
};

std::map<std::string, double> per_layer(const Iteration& it) {
  const Totals t = totals(it);
  std::map<std::string, double> m;
  m["sim.route_s"] = t.route;
  m["sim.inject_s"] = t.inject;
  m["sim.deliver_s"] = t.deliver;
  m["sim.barrier_s"] = t.barrier;
  m["sim.fault_s"] = t.fault;
  m["sim.telemetry_s"] = t.telemetry;
  m["sim.driver_wait_s"] = t.driver_wait;
  m["sim.shard_task_s"] = t.shard_task;
  // What the workload measured itself wins (table3-psiq-ugal reports its
  // 4-shard repeat's barrier wait and shard task seconds).
  for (const auto& [name, value] : it.layer) m[name] = value;
  // The deliver and route laps already contain the driver's barrier wait,
  // so it is not added again.
  const double phases =
      t.route + t.inject + t.deliver + t.barrier + t.fault + t.telemetry;
  const double run_s = m["sim.run_s"];
  m["sim.profile_cover"] = run_s > 0 ? phases / run_s : 0.0;
  m["sim.points"] = t.points;
  m["sim.points_unstable"] = t.unstable;
  m["sim.cycles"] = t.cycles;
  m["sim.packets"] = t.packets;
  m["sim.flit_hops"] = t.flit_hops;
  m["sim.ns_per_flit_hop"] =
      t.flit_hops > 0 ? it.sim_s / t.flit_hops * 1e9 : 0.0;
  m["fault.events"] = t.fault_events;
  m["fault.drops"] = t.drops;
  m["fault.retransmits"] = t.retransmits;
  m["fault.lost"] = t.lost;
  m["collective.packets_sent"] = t.coll_sent;
  m["collective.deliveries_expected"] = t.coll_expected;
  return m;
}

/// Median of each named metric over the given iterations (0 when absent).
std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& rows) {
  std::map<std::string, std::vector<double>> cols;
  for (const auto& row : rows) {
    for (const auto& [k, v] : row) cols[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : cols) out[k] = median(std::move(v));
  return out;
}

void print_metrics(std::ostringstream& os, const Metric* begin,
                   const Metric* end, std::map<std::string, double>& values) {
  bool first = true;
  for (const Metric* m = begin; m != end; ++m) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", values[m->name]);
    os << (first ? "" : ", ") << '"' << m->name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m->unit << "\"}";
    first = false;
  }
}

int run(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    return self_test(std::cout) ? 0 : 1;
  }
  Args args;
  if (const int status = parse_args(argc, argv, args); status != 0) {
    return status == 1 ? 0 : status;
  }
  if (!kOptimized) {
    std::fprintf(stderr,
                 "polarstar_perfbench: refusing to measure an unoptimized "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
  scrub_environment();

  const std::string run_id = std::string(args.workload->name) + "-seed" +
                             std::to_string(args.seed) + "-pid" +
                             std::to_string(getpid());
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%llu trace=%d run_id=%s\n",
      args.workload->name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.seconds), args.trace ? 1 : 0,
      run_id.c_str());
  std::printf("host %s\n", host_fingerprint(args.revision).c_str());

  std::ostringstream self_log;
  const bool self_ok = self_test(self_log);
  std::printf("self-test %s\n", self_ok ? "passed" : "FAILED");
  if (!self_ok) std::printf("%s", self_log.str().c_str());
  std::fflush(stdout);

  // At least kMinIterations (one traced and one untraced in a traced run),
  // then as many more as fit in --seconds at the median iteration length.
  Tracer tracer;
  std::vector<Iteration> iterations;
  std::vector<double> steals, lengths;
  double first_rss_mb = 0.0;
  const auto start = Clock::now();
  for (std::uint32_t i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    tracer.set_recording(traced, i);
    const auto t0 = Clock::now();
    const CpuJiffies before = cpu_jiffies();
    iterations.push_back(args.workload->run(args.seed, traced, tracer));
    const CpuJiffies after = cpu_jiffies();
    lengths.push_back(seconds_between(t0, Clock::now()));
    tracer.set_recording(false, i);
    const double total = after.total - before.total;
    const double steal = total > 0 ? (after.steal - before.steal) / total : 0.0;
    steals.push_back(steal);
    if (i == 0) first_rss_mb = peak_rss_mb();
    const Iteration& it = iterations.back();
    std::size_t failed = 0;
    for (const Point& p : it.points) failed += point_failure(p).empty() ? 0 : 1;
    std::printf("iter %u %s wall_s=%.4f setup_s=%.4f sim_s=%.4f points=%zu "
                "failed=%zu steal=%.4f digest=%016llx\n",
                i, traced ? "traced" : "untraced", it.wall_s, it.setup_s,
                it.sim_s, it.points.size(), failed, steal,
                static_cast<unsigned long long>(digest(it.points)));
    std::fflush(stdout);
    const double next_end =
        seconds_between(start, Clock::now()) + median(lengths);
    if (iterations.size() >= kMinIterations &&
        next_end > static_cast<double>(args.seconds)) {
      break;
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  std::size_t reported = 0;
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    for (const Point& p : iterations[i].points) {
      ++attempted;
      const std::string why = point_failure(p);
      if (why.empty()) continue;
      ++failed;
      if (reported++ < 20) {
        std::printf("failure iter=%zu point=\"%s\" load=%g: %s\n", i,
                    p.name.c_str(), p.load, why.c_str());
      }
    }
  }
  const std::uint64_t first_digest = digest(iterations.front().points);
  bool digest_stable = true;
  for (const auto& it : iterations) {
    digest_stable = digest_stable && digest(it.points) == first_digest;
  }
  std::printf("digest %016llx (%s across %zu iterations)\n",
              static_cast<unsigned long long>(first_digest),
              digest_stable ? "identical" : "DIFFERS", iterations.size());

  // The host is a shared VM: while the hypervisor steals cpu time, the
  // simulator's threads (the sharded engine's barriers above all) stall on
  // neighbours. Of each kind of iteration, only the quieter half by steal
  // share enters the medians.
  std::vector<std::size_t> kept;
  for (const bool kind : {false, true}) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < iterations.size(); ++i) {
      if (iterations[i].traced == kind) idx.push_back(i);
    }
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       return steals[a] < steals[b];
                     });
    idx.resize((idx.size() + 1) / 2);
    kept.insert(kept.end(), idx.begin(), idx.end());
  }
  std::sort(kept.begin(), kept.end());
  std::printf("kept iterations:");
  for (std::size_t i : kept) std::printf(" %zu", i);
  std::printf("\n");

  std::vector<std::map<std::string, double>> untraced_rows, traced_rows;
  std::vector<double> untraced_wall, traced_wall;
  for (std::size_t i : kept) {
    const Iteration& it = iterations[i];
    if (it.traced) {
      traced_rows.push_back(per_layer(it));
      traced_wall.push_back(it.wall_s);
    } else {
      untraced_rows.push_back(end_to_end(it));
      untraced_wall.push_back(it.wall_s);
    }
  }
  std::ostringstream metrics;
  if (args.trace) {
    auto m = medians(traced_rows);
    m["bench.trace_overhead_frac"] =
        median(traced_wall) / median(untraced_wall) - 1.0;
    print_metrics(metrics, std::begin(kPerLayer), std::end(kPerLayer), m);
    if (!args.spans_dir.empty()) {
      const std::string path = args.spans_dir + "/" + run_id + ".json";
      if (!tracer.write_json(path, run_id)) {
        std::fprintf(stderr,
                     "polarstar_perfbench: cannot write spans to %s: %s\n",
                     path.c_str(), std::strerror(errno));
      }
    }
  } else {
    auto m = medians(untraced_rows);
    // One process runs the workload once for a user; later iterations
    // only add allocator fragmentation.
    m["peak_rss_mb"] = first_rss_mb;
    print_metrics(metrics, std::begin(kEndToEnd), std::end(kEndToEnd), m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              self_ok && failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Workloads catch what a simulation throws and count it as a failed
  // point; anything else (a failing topology build, say) ends the run
  // without a result.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "polarstar_perfbench: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "polarstar_perfbench: unknown exception\n");
  }
  return 1;
}

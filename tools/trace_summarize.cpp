// Offline summary of a POLARSTAR_TRACE Chrome-trace file.
//
//   trace_summarize <trace.json> [...]
//
// Re-parses the exporter's output with the in-repo JSON parser (so it
// doubles as a validity check) and prints, per trace group ("process"),
// a per-hop table of head-flit router occupancy: how long packets spent
// at their 1st, 2nd, ... router, split out of the same spans Perfetto
// renders. Groups with fault instant events (cat "fault") additionally
// get a chronological fault-event table, groups with workload
// scenario marks (cat "mark") a chronological mark table, and groups with
// time-series counter tracks ("C" events) a per-counter min/mean/max
// table. Exits non-zero on malformed input.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/json.h"

namespace json = polarstar::io::json;

namespace {

struct HopStats {
  std::uint64_t count = 0;
  double dur_sum = 0.0;
  double dur_max = 0.0;
};

struct FaultMark {
  std::uint64_t cycle = 0;
  std::string kind;  // event name with the "fault: " prefix stripped
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

struct ScenarioMark {
  std::uint64_t cycle = 0;
  std::string label;
};

struct CounterStats {
  std::uint64_t samples = 0;
  double min = 0.0;
  double sum = 0.0;
  double max = 0.0;
};

struct GroupStats {
  std::string name;
  std::uint64_t spans = 0;      // async "b" events == sampled packets
  std::uint64_t delivered = 0;  // async spans flagged delivered
  std::map<std::uint64_t, HopStats> hops;
  std::vector<FaultMark> faults;      // instant "i" events, cat "fault"
  std::vector<ScenarioMark> marks;    // instant "i" events, cat "mark"
  std::map<std::string, CounterStats> counters;  // "C" counter tracks
};

const json::Value& require(const json::Value& obj, const std::string& key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error("missing key \"" + key + "\"");
  return *v;
}

/// obj[key] as an unsigned integer. JSON numbers are doubles, and casting
/// one that is non-finite, negative or too large is undefined behaviour, so
/// only whole numbers in [0, 2^53] (exact in a double) get through.
std::uint64_t require_uint(const json::Value& obj, const std::string& key) {
  const double v = require(obj, key).as_number();
  if (!(v >= 0.0 && v <= 9007199254740992.0) || v != std::floor(v)) {
    char shown[32];
    std::snprintf(shown, sizeof shown, "%g", v);
    throw std::runtime_error("\"" + key + "\" is " + shown +
                             ", not an integer in [0, 2^53]");
  }
  return static_cast<std::uint64_t>(v);
}

void summarize(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  const auto& events = require(doc, "traceEvents").as_array();

  std::map<std::uint64_t, GroupStats> groups;  // keyed by pid
  for (const auto& ev : events) {
    const std::uint64_t pid = require_uint(ev, "pid");
    GroupStats& g = groups[pid];
    const std::string& ph = require(ev, "ph").as_string();
    if (ph == "M") {
      if (require(ev, "name").as_string() == "process_name") {
        g.name = require(require(ev, "args"), "name").as_string();
      }
    } else if (ph == "b") {
      ++g.spans;
      if (const json::Value* args = ev.find("args")) {
        if (const json::Value* d = args->find("delivered")) {
          if (d->as_bool()) ++g.delivered;
        }
      }
    } else if (ph == "X") {
      const auto& args = require(ev, "args");
      const std::uint64_t hop = require_uint(args, "hop");
      const double dur = require(ev, "dur").as_number();
      HopStats& h = g.hops[hop];
      ++h.count;
      h.dur_sum += dur;
      h.dur_max = std::max(h.dur_max, dur);
    } else if (ph == "i") {
      std::string name = require(ev, "name").as_string();
      const json::Value* cat = ev.find("cat");
      const std::string cat_name =
          cat != nullptr ? cat->as_string() : std::string();
      if (cat_name == "fault") {
        if (name.rfind("fault: ", 0) == 0) name.erase(0, 7);
        const auto& args = require(ev, "args");
        g.faults.push_back({require_uint(ev, "ts"), std::move(name),
                            require_uint(args, "a"), require_uint(args, "b")});
      } else if (cat_name == "mark") {
        g.marks.push_back({require_uint(ev, "ts"), std::move(name)});
      } else {
        throw std::runtime_error("unexpected instant event \"" + name + "\"");
      }
    } else if (ph == "C") {
      const std::string& name = require(ev, "name").as_string();
      const double value =
          require(require(ev, "args"), "value").as_number();
      CounterStats& c = g.counters[name];
      if (c.samples == 0) {
        c.min = c.max = value;
      } else {
        c.min = std::min(c.min, value);
        c.max = std::max(c.max, value);
      }
      ++c.samples;
      c.sum += value;
    } else if (ph != "e") {
      throw std::runtime_error("unexpected event phase \"" + ph + "\"");
    }
  }

  std::printf("%s: %zu group(s)\n", path.c_str(), groups.size());
  for (const auto& [pid, g] : groups) {
    std::printf("\n%s -- %llu sampled packet(s), %llu delivered\n",
                g.name.c_str(), static_cast<unsigned long long>(g.spans),
                static_cast<unsigned long long>(g.delivered));
    if (!g.hops.empty()) {
      std::printf("%5s %8s %10s %10s   head-flit router occupancy (cycles)\n",
                  "hop", "count", "avg", "max");
      for (const auto& [hop, h] : g.hops) {
        std::printf(
            "%5llu %8llu %10.1f %10.0f\n",
            static_cast<unsigned long long>(hop),
            static_cast<unsigned long long>(h.count),
            h.count > 0 ? h.dur_sum / static_cast<double>(h.count) : 0.0,
            h.dur_max);
      }
    }
    if (!g.faults.empty()) {
      std::printf("%llu fault event(s):\n%8s  %-12s %8s %8s\n",
                  static_cast<unsigned long long>(g.faults.size()), "cycle",
                  "kind", "a", "b");
      for (const FaultMark& f : g.faults) {
        std::printf("%8llu  %-12s %8llu %8llu\n",
                    static_cast<unsigned long long>(f.cycle), f.kind.c_str(),
                    static_cast<unsigned long long>(f.a),
                    static_cast<unsigned long long>(f.b));
      }
    }
    if (!g.marks.empty()) {
      std::printf("%llu scenario mark(s):\n%8s  %s\n",
                  static_cast<unsigned long long>(g.marks.size()), "cycle",
                  "label");
      for (const ScenarioMark& m : g.marks) {
        std::printf("%8llu  %s\n", static_cast<unsigned long long>(m.cycle),
                    m.label.c_str());
      }
    }
    if (!g.counters.empty()) {
      std::printf("%zu counter track(s):\n%-16s %8s %10s %10s %10s\n",
                  g.counters.size(), "counter", "samples", "min", "mean",
                  "max");
      for (const auto& [cname, c] : g.counters) {
        std::printf(
            "%-16s %8llu %10.2f %10.2f %10.2f\n", cname.c_str(),
            static_cast<unsigned long long>(c.samples), c.min,
            c.samples > 0 ? c.sum / static_cast<double>(c.samples) : 0.0,
            c.max);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace.json> [...]\n", argv[0]);
    return 2;
  }
  try {
    for (int i = 1; i < argc; ++i) summarize(argv[i]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid trace: %s\n", e.what());
    return 1;
  }
  return 0;
}

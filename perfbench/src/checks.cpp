#include "checks.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <ostream>

#include "collective/edst.h"
#include "graph/graph.h"

namespace perfbench {

namespace {

/// Relative tolerance of the accepted == offered check. The measurement
/// windows are short, so accepted traffic is a sample of the offered rate.
constexpr double kOfferedTolerance = 0.10;

/// Reads the unsigned integer after `"key": ` in a flat JSON object.
bool json_uint(const std::string& json, const std::string& key,
               std::uint64_t& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return false;
  const char* begin = json.c_str() + pos + needle.size();
  char* end = nullptr;
  out = std::strtoull(begin, &end, 10);
  return end != begin;
}

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

CollectiveCounts parse_collective(const std::string& json) {
  CollectiveCounts c;
  c.parsed = json_uint(json, "packets_sent", c.packets_sent) &&
             json_uint(json, "expected_deliveries", c.expected_deliveries) &&
             json_uint(json, "deliveries", c.deliveries);
  return c;
}

std::string point_failure(const Point& p) {
  const sim::SimResult& r = p.res;
  if (p.threw) return "threw: " + p.error;
  if (r.deadlock) return "deadlock";
  if (p.expect_stable && !r.stable) return "unstable";
  if (r.packets_delivered == 0) return "delivered no packets";
  if (!(r.avg_hops > 0.0) || r.avg_hops > p.hop_bound) {
    return "avg_hops " + std::to_string(r.avg_hops) + " outside (0, " +
           std::to_string(p.hop_bound) + "]";
  }
  if (p.check_offered && r.stable &&
      std::fabs(r.accepted_flit_rate - p.load) > kOfferedTolerance * p.load) {
    return "accepted " + std::to_string(r.accepted_flit_rate) +
           " vs offered " + std::to_string(p.load);
  }
  if (p.collective) {
    const CollectiveCounts c = parse_collective(r.source.collective_json);
    if (!c.parsed) return "no collective report";
    if (!r.stable) return "collective did not finish";
    if (c.expected_deliveries == 0 || c.deliveries != c.expected_deliveries) {
      return "collective delivered " + std::to_string(c.deliveries) + " of " +
             std::to_string(c.expected_deliveries);
    }
  }
  if (!p.trees_ok) return "EDST verification failed";
  if (!p.shards_agree) return "sharded run differs from the serial run";
  return {};
}

std::uint64_t flit_hops(const sim::SimResult& r, std::uint32_t packet_flits) {
  const double hop_sum = r.avg_hops * static_cast<double>(r.packets_delivered);
  return static_cast<std::uint64_t>(hop_sum + 0.5) * packet_flits;
}

std::uint64_t digest(const std::vector<Point>& points) {
  Fnv h;
  for (const Point& p : points) {
    const sim::SimResult& r = p.res;
    h.bytes(p.name.data(), p.name.size());
    h.f64(p.load);
    h.u64(p.threw);
    h.u64(r.cycles);
    h.u64(r.packets_delivered);
    h.u64(r.measured_packets);
    h.f64(r.avg_packet_latency);
    h.f64(r.p50_packet_latency);
    h.f64(r.p99_packet_latency);
    h.f64(r.p999_packet_latency);
    h.f64(r.avg_hops);
    h.f64(r.accepted_flit_rate);
    h.u64(r.stable);
    h.u64(r.deadlock);
    h.u64(r.max_source_queue);
    h.u64(r.fault_events);
    h.u64(r.packets_dropped);
    h.u64(r.retransmits);
    h.u64(r.packets_lost);
    h.u64(r.measured_lost);
    h.f64(r.delivered_fraction);
    h.u64(r.max_recovery_latency);
    h.bytes(r.source.collective_json.data(), r.source.collective_json.size());
  }
  return h.value();
}

bool self_test(std::ostream& log) {
  Point open;
  open.name = "self-test open-loop";
  open.load = 0.3;
  open.expect_stable = true;
  open.check_offered = true;
  open.hop_bound = 3.0;
  open.res.cycles = 4000;
  open.res.packets_delivered = 1000;
  open.res.measured_packets = 600;
  open.res.avg_packet_latency = 25.0;
  open.res.avg_hops = 2.6;
  open.res.accepted_flit_rate = 0.297;

  Point coll;
  coll.name = "self-test collective";
  coll.load = 32;
  coll.collective = true;
  coll.hop_bound = 3.0;
  coll.res = open.res;
  coll.res.avg_hops = 1.0;
  coll.res.source.collective_json =
      "{\"op\": \"broadcast\", \"packets_sent\": 96, "
      "\"expected_deliveries\": 96, \"deliveries\": 96}";

  // K4 holds two edge-disjoint spanning trees; the doctored set reuses an
  // edge of the first tree in the second.
  const auto k4 = polarstar::graph::Graph::from_edges(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  const std::vector<polarstar::collective::TreeEdges> trees = {
      {{0, 1}, {1, 2}, {2, 3}}, {{0, 2}, {0, 3}, {1, 3}}};
  auto shared_edge = trees;
  shared_edge[1][2] = {0, 1};
  coll.trees_ok = polarstar::collective::verify_edsts(k4, trees).ok;

  struct Case {
    const char* what;
    const Point& base;
    std::function<void(Point&)> doctor;
  };
  const Case cases[] = {
      {"exception", open, [](Point& p) { p.threw = true; }},
      {"deadlock", open, [](Point& p) { p.res.deadlock = true; }},
      {"unstable", open, [](Point& p) { p.res.stable = false; }},
      {"hops above diameter", open, [](Point& p) { p.res.avg_hops = 3.4; }},
      {"accepted below offered", open,
       [](Point& p) { p.res.accepted_flit_rate = 0.24; }},
      {"sharded run differs", open, [](Point& p) { p.shards_agree = false; }},
      {"nothing delivered", open,
       [](Point& p) { p.res.packets_delivered = 0; }},
      {"missing deliveries", coll,
       [](Point& p) {
         p.res.source.collective_json =
             "{\"packets_sent\": 95, \"expected_deliveries\": 96, "
             "\"deliveries\": 95}";
       }},
      {"shared EDST edge", coll,
       [&](Point& p) {
         p.trees_ok =
             polarstar::collective::verify_edsts(k4, shared_edge).ok;
       }},
  };

  bool ok = true;
  const auto report = [&](const std::string& what, bool pass,
                          const std::string& detail) {
    log << "self-test " << (pass ? "PASS " : "FAIL ") << what;
    if (!detail.empty()) log << ": " << detail;
    log << '\n';
    ok = ok && pass;
  };
  report("valid open-loop point accepted", point_failure(open).empty(),
         point_failure(open));
  report("valid collective point accepted", point_failure(coll).empty(),
         point_failure(coll));
  for (const Case& c : cases) {
    std::vector<Point> run = {open, coll, c.base};
    c.doctor(run.back());
    std::size_t failed = 0;
    for (const Point& p : run) failed += point_failure(p).empty() ? 0 : 1;
    report(std::string("doctored '") + c.what + "' counted failed",
           failed == 1, point_failure(run.back()));
  }
  return ok;
}

}  // namespace perfbench

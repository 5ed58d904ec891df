// Validity checks on simulated points, the result digest, and the
// self-test that proves the checks catch a doctored result.
//
// Every check holds for any seed: it tests properties the simulator must
// have (no deadlock, bounded hop counts, accepted == offered below
// saturation, collectives complete, EDSTs are edge-disjoint spanning
// trees), never values recorded for one seed. A point that fails any check
// counts toward the benchmark's `failed` total.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace perfbench {

namespace sim = polarstar::sim;

/// One simulated point as the benchmark saw it, plus what it expects.
struct Point {
  std::string name;
  double load = 0.0;
  /// The call that simulated this point threw (message in `error`).
  bool threw = false;
  std::string error;
  /// The point must finish stable (every measured packet delivered).
  bool expect_stable = false;
  /// Open-loop and fault-free: a stable point must accept what it offered.
  bool check_offered = false;
  /// Closed-loop collective: deliveries must reach expected_deliveries.
  bool collective = false;
  /// For EDST collectives: verify_edsts passed on the trees it used.
  bool trees_ok = true;
  /// A repeat of the point on several shards gave the same result.
  bool shards_agree = true;
  /// Upper bound on avg_hops (diameter, 2x for UGAL, hop budget under
  /// faults).
  double hop_bound = 0.0;
  sim::SimResult res;
};

/// Empty when the point is valid, else the first violated check.
std::string point_failure(const Point& p);

/// Counters parsed from a collective point's SourceReport JSON.
struct CollectiveCounts {
  bool parsed = false;
  std::uint64_t packets_sent = 0;
  std::uint64_t expected_deliveries = 0;
  std::uint64_t deliveries = 0;
};
CollectiveCounts parse_collective(const std::string& json);

/// Packet-level link traversals of delivered flits (avg_hops is over
/// every delivered packet).
std::uint64_t flit_hops(const sim::SimResult& r, std::uint32_t packet_flits);

/// FNV-1a over the deterministic SimResult fields of every point, in
/// order. Equal seeds and equal simulator semantics give equal digests on
/// any host, thread count or shard count.
std::uint64_t digest(const std::vector<Point>& points);

/// Doctors valid points one defect at a time and checks each is counted
/// as failed. Writes one line per case to `log`; true iff all pass.
bool self_test(std::ostream& log);

}  // namespace perfbench

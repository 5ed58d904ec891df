#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <span>
#include <stdexcept>

#include "fault/fault_routing.h"
#include "fault/schedule.h"
#include "telemetry/collector.h"

namespace polarstar::sim {

using graph::Vertex;

namespace {
constexpr std::uint32_t kInjectionFlag = 0x80000000u;
}  // namespace

const char* to_string(PathMode mode, MinSelect sel) {
  if (mode == PathMode::kUgal) return "ugal";
  return sel == MinSelect::kAdaptive ? "min-adaptive" : "min";
}

Simulation::~Simulation() = default;

Simulation::Simulation(const Network& net, const SimParams& prm,
                       TrafficSource& source, telemetry::Collector* collector)
    : net_(&net),
      prm_(prm),
      source_(&source),
      rng_(prm.seed),
      collector_(collector),
      ugal_(net.routing(), net.num_routers(), prm.ugal_candidates) {
  if (prm_.num_vcs == 0 || prm_.num_vcs > 32) {
    throw std::invalid_argument(
        "Simulation: num_vcs must be in [1, 32] (the VC occupancy index is "
        "one 32-bit mask per link port)");
  }
  // Buffer slots, credits, packet lengths and flit sequence numbers are
  // uint16 fields.
  if (prm_.vc_buffer_flits == 0 || prm_.vc_buffer_flits > 0xFFFFu) {
    throw std::invalid_argument(
        "Simulation: vc_buffer_flits must be in [1, 65535]");
  }
  if (prm_.packet_flits == 0 || prm_.packet_flits > 0xFFFFu) {
    throw std::invalid_argument(
        "Simulation: packet_flits must be in [1, 65535]");
  }
  if (collector_ != nullptr) {
    const auto caps = collector_->caps();
    link_telemetry_ = caps.link_flits;
    stall_telemetry_ = caps.stalls;
    ugal_telemetry_ = caps.ugal;
    occupancy_period_ = caps.occupancy_period;
    metrics_period_ = caps.metrics_period;
    trace_filter_ = caps.packets;
    packet_telemetry_ = trace_filter_.enabled();
    fault_telemetry_ = caps.faults;
  }
  profile_ = prm_.profile && !prm_.reference_impl;
  if (prm_.faults != nullptr && !prm_.faults->empty()) {
    has_faults_ = true;
    fault_hop_limit_ =
        prm_.fault_hop_limit != 0 ? prm_.fault_hop_limit : prm_.num_vcs * 4;
    fault_routing_ = std::make_unique<fault::FaultAwareRouting>(
        net.topology_ptr(), net.routing_ptr());
    link_down_.assign(net.total_link_ports(), 0);
    router_down_.assign(net.num_routers(), 0);
  }
  const std::size_t nbuf = net.total_link_ports() * prm_.num_vcs;
  buf_store_.resize(nbuf * prm_.vc_buffer_flits);
  BufState empty;
  empty.credits = static_cast<std::uint16_t>(prm_.vc_buffer_flits);
  bufs_.assign(nbuf, empty);
  if (prm_.path_mode == PathMode::kUgal && !prm_.reference_impl) {
    in_occupied_.assign(net.total_link_ports(), 0);
  }

  const auto& topo = net.topology();
  const std::uint64_t eps = topo.num_endpoints();
  inj_head_.assign(eps, kNilNode);
  inj_tail_.assign(eps, kNilNode);
  inj_count_.assign(eps, 0);
  inj_sent_.assign(eps, 0);
  inj_state_.assign(eps, {});
  out_rr_ej_.assign(eps, 0);
  out_rr_link_.assign(net.total_link_ports(), 0);

  arrivals_.resize(prm_.link_latency + prm_.router_latency + 1);
  credit_returns_.resize(prm_.credit_latency + 1);

  std::uint32_t max_out = 0, max_in = 0;
  for (Vertex r = 0; r < net.num_routers(); ++r) {
    const std::uint32_t deg = net.num_link_ports(r);
    max_out = std::max(max_out, deg + topo.conc[r]);
    max_in = std::max(max_in, deg * prm_.num_vcs + topo.conc[r]);
  }
  req_stride_ = max_in;
  scratch_.req_store.resize(static_cast<std::size_t>(max_out) * req_stride_);
  scratch_.req_count.assign(max_out, 0);
  scratch_.inport_used.assign(max_out, 0);
  if (stall_telemetry_) {
    scratch_.out_want_credit.assign(max_out, 0);
    scratch_.out_want_vc.assign(max_out, 0);
    scratch_.out_granted.assign(max_out, 0);
  }

  ep_router_.resize(eps);
  for (std::uint64_t ep = 0; ep < eps; ++ep) {
    ep_router_[ep] = topo.router_of_endpoint(ep);
  }
  port_mask_.assign(net.total_link_ports(), 0);
  router_work_.assign(net.num_routers(), 0);

  // Bind the cycle loop once: reference mode wins, then the telemetry /
  // fault gates pick the instantiation with dead hook sites compiled out.
  const bool tel = collector_ != nullptr;
  if (prm_.reference_impl) {
    step_fn_ = &Simulation::step_reference;
  } else if (tel && has_faults_) {
    step_fn_ = &Simulation::step_impl<true, true>;
  } else if (tel) {
    step_fn_ = &Simulation::step_impl<true, false>;
  } else if (has_faults_) {
    step_fn_ = &Simulation::step_impl<false, true>;
  } else {
    step_fn_ = &Simulation::step_impl<false, false>;
  }
}

// The occupancy index is touched only when a VC turns non-empty or
// empty; its link, VC bit and router come from the buffer index (a 32-bit
// division: buffer indexes travel as uint32 in the arrival and credit
// rings).
void Simulation::buffer_push(std::size_t b, Flit f) {
  const std::uint32_t cap = prm_.vc_buffer_flits;
  BufState& st = bufs_[b];
  assert(st.size < cap);
  std::uint32_t pos = static_cast<std::uint32_t>(st.head) + st.size;
  if (pos >= cap) pos -= cap;  // head, size < cap: one conditional subtract
  buf_store_[b * cap + pos] = f;
  if (st.size++ == 0) {
    const std::uint32_t link = static_cast<std::uint32_t>(b) / prm_.num_vcs;
    port_mask_[link] |= 1u << (b - link * prm_.num_vcs);
    ++router_work_[net_->link_router(link)];
  }
}

void Simulation::buffer_pop(std::size_t b) {
  BufState& st = bufs_[b];
  if (--st.size == 0) {
    st.head = 0;  // a drained ring restarts at slot 0
    const std::uint32_t link = static_cast<std::uint32_t>(b) / prm_.num_vcs;
    port_mask_[link] &= ~(1u << (b - link * prm_.num_vcs));
    --router_work_[net_->link_router(link)];
    return;
  }
  std::uint32_t h = static_cast<std::uint32_t>(st.head) + 1;
  if (h == prm_.vc_buffer_flits) h = 0;
  st.head = static_cast<std::uint16_t>(h);
}

void Simulation::inj_push(std::uint64_t ep, std::uint32_t pkt_idx) {
  std::uint32_t node;
  if (inj_free_head_ != kNilNode) {
    node = inj_free_head_;
    inj_free_head_ = inj_pool_[node].next;
  } else {
    node = static_cast<std::uint32_t>(inj_pool_.size());
    inj_pool_.emplace_back();
  }
  inj_pool_[node] = {pkt_idx, kNilNode};
  if (inj_head_[ep] == kNilNode) {
    inj_head_[ep] = node;
    ++router_work_[ep_router_[ep]];
  } else {
    inj_pool_[inj_tail_[ep]].next = node;
  }
  inj_tail_[ep] = node;
  ++inj_count_[ep];
}

void Simulation::inj_pop_front(std::uint64_t ep) {
  const std::uint32_t node = inj_head_[ep];
  assert(node != kNilNode);
  inj_head_[ep] = inj_pool_[node].next;
  inj_pool_[node].next = inj_free_head_;
  inj_free_head_ = node;
  if (inj_head_[ep] == kNilNode) {
    inj_tail_[ep] = kNilNode;
    --router_work_[ep_router_[ep]];
  }
  --inj_count_[ep];
}

std::uint32_t Simulation::new_packet(std::uint64_t src_ep, std::uint64_t dst_ep,
                                     std::uint64_t tag) {
  std::uint32_t idx;
  if (!packet_free_.empty()) {
    idx = packet_free_.back();
    packet_free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(packets_.size());
    packets_.emplace_back();
  }
  PacketRecord& pk = packets_[idx];
  pk = PacketRecord{};
  pk.id = next_packet_id_++;
  pk.src_endpoint = src_ep;
  pk.dst_endpoint = dst_ep;
  pk.src_router = ep_router_[src_ep];
  pk.dst_router = ep_router_[dst_ep];
  pk.birth_cycle = cycle_;
  pk.tag = tag;
  pk.flits = static_cast<std::uint16_t>(prm_.packet_flits);
  pk.measured = cycle_ >= measure_begin_ && cycle_ < measure_end_;
  if (pk.measured) ++measured_outstanding_;
  ++live_packets_;

  if (prm_.path_mode == PathMode::kUgal && pk.src_router != pk.dst_router) {
    routing::PathChoice choice;
    if (prm_.reference_impl) {
      auto occ = [this](Vertex r, Vertex next) { return occupancy(r, next); };
      choice = ugal_.select(pk.src_router, pk.dst_router, occ, rng_);
    } else {
      choice = ugal_select_fast(pk.src_router, pk.dst_router);
    }
    pk.valiant = choice.valiant;
    pk.intermediate = choice.intermediate;
    if (ugal_telemetry_) {
      collector_->on_ugal_decision(
          {choice.valiant, choice.min_hops, choice.hops,
           choice.candidates_evaluated, choice.min_cost, choice.cost},
          cycle_);
    }
  }
  if (packet_telemetry_) {
    // After the UGAL decision so the injected event sees the final
    // valiant/intermediate fields.
    if (idx >= traced_.size()) {
      traced_.resize(idx + 1, 0);
      trace_arrival_.resize(idx + 1, 0);
    }
    traced_[idx] = trace_filter_.matches(pk.id, src_ep, dst_ep) ? 1 : 0;
    if (traced_[idx]) {
      trace_arrival_[idx] = cycle_;  // hop-0 wait counts from birth
      collector_->on_packet_injected(pk, cycle_);
    }
  }
  return idx;
}

void Simulation::free_packet(std::uint32_t idx) {
  packet_free_.push_back(idx);
  --live_packets_;
}

void Simulation::enqueue_packet(std::uint64_t src_ep, std::uint64_t dst_ep,
                                std::uint64_t tag) {
  const std::uint32_t idx = new_packet(src_ep, dst_ep, tag);
  if (faults_active_ &&
      !fault_routing_->router_alive(packets_[idx].src_router)) {
    lose_packet(idx);  // the source NIC's router is down: nothing to inject
    return;
  }
  inj_push(src_ep, idx);
}

double Simulation::occupancy(Vertex r, Vertex next) const {
  const std::uint32_t port = net_->port_toward(r, next);
  const Vertex nbr = net_->neighbor_at(r, port);
  const std::uint32_t rev = net_->reverse_port(r, port);
  double occupied = 0;
  for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) {
    const std::size_t b = buffer_index(nbr, rev, vc);
    occupied += prm_.vc_buffer_flits - bufs_[b].credits;
  }
  return occupied;  // absolute flits: the classic UGAL-L queue estimate
}

double Simulation::path_cost_fast(Vertex src, Vertex toward,
                                  std::uint32_t hops) const {
  if (src == toward) return hops;
  // First-hop queue estimate: min over minimal first hops, in the same
  // candidate order as MinimalRouting::next_hops (the Network flattened
  // them in that order) and the same double accumulation as
  // UgalSelector::cost.
  const auto ports = net_->route_ports(src, toward);
  const std::size_t pb = net_->port_base(src);
  double q = 0;
  if (!ports.empty()) {
    q = occupancy_by_port(pb + ports[0]);
    for (std::size_t i = 1; i < ports.size(); ++i) {
      q = std::min(q, occupancy_by_port(pb + ports[i]));
    }
  }
  return static_cast<double>(hops) * (1.0 + q);
}

routing::PathChoice Simulation::ugal_select_fast(Vertex src, Vertex dst) {
  const std::uint32_t h_min = net_->distance(src, dst);
  routing::PathChoice best{false, 0, h_min};
  const double min_cost = path_cost_fast(src, dst, h_min);
  double best_cost = min_cost;
  std::uint32_t evaluated = 0;
  const std::uint32_t n = net_->num_routers();
  for (std::uint32_t i = 0; i < prm_.ugal_candidates; ++i) {
    const Vertex mid = static_cast<Vertex>(rng_() % n);
    if (mid == src || mid == dst) continue;
    ++evaluated;
    const std::uint32_t hops =
        net_->distance(src, mid) + net_->distance(mid, dst);
    const double c = path_cost_fast(src, mid, hops);
    if (c < best_cost) {
      best_cost = c;
      best.valiant = true;
      best.intermediate = mid;
      best.hops = hops;
    }
  }
  best.min_hops = h_min;
  best.candidates_evaluated = evaluated;
  best.min_cost = min_cost;
  best.cost = best_cost;
  return best;
}

bool Simulation::compute_route(std::uint32_t pkt_idx, Vertex r,
                               std::uint16_t& out, std::uint8_t& ovc) {
  PacketRecord& pk = packets_[pkt_idx];
  if (pk.valiant && !pk.phase2 && r == pk.intermediate) pk.phase2 = true;
  if (faults_active_ && pk.valiant && !pk.phase2 &&
      (!fault_routing_->router_alive(pk.intermediate) ||
       fault_routing_->distance(r, pk.intermediate) == graph::kUnreachable)) {
    pk.phase2 = true;  // Valiant leg broken: head straight for the dst
  }
  const Vertex target =
      (pk.valiant && !pk.phase2) ? pk.intermediate : pk.dst_router;
  const std::uint32_t deg = net_->num_link_ports(r);
  if (target == r) {
    // Only reachable when the target is the destination router: eject.
    out = static_cast<std::uint16_t>(
        deg + (pk.dst_endpoint - net_->topology().first_endpoint(r)));
    ovc = 0;
    if (packet_telemetry_ && traced_[pkt_idx]) {
      collector_->on_packet_routed(pk, r, out, ovc, /*eject=*/true, cycle_);
    }
    return true;
  }
  std::span<const std::uint16_t> ports;
  if (faults_active_) {
    if (pk.hops >= fault_hop_limit_) return false;  // walked too far: drop
    if (prm_.reference_impl) {
      scratch_.fault_hops.clear();
      fault_routing_->next_hops(r, target, scratch_.fault_hops);
      if (scratch_.fault_hops.empty()) return false;  // target unreachable
      scratch_.fault_ports.clear();
      for (Vertex h : scratch_.fault_hops) {
        scratch_.fault_ports.push_back(
            static_cast<std::uint16_t>(net_->port_toward(r, h)));
      }
    } else {
      // Fast path: run FaultAwareRouting::next_hops' strict-distance-
      // decrease filter directly over the flattened pristine candidates
      // (same base scheme, same order), keeping ports instead of mapping
      // vertex -> port per hop. link_down_ is the per-epoch link_alive
      // mask; distance() is the survivor distance under degradation.
      // Bit-identical to the reference branch -- `ctest -L perf` diffs it.
      const std::uint32_t d_cur = fault_routing_->distance(r, target);
      const std::size_t pb = net_->port_base(r);
      scratch_.fault_ports.clear();
      for (std::uint16_t p : net_->route_ports(r, target)) {
        if (link_down_[pb + p] != 0) continue;
        const Vertex h = net_->link_neighbor(pb + p);
        if (fault_routing_->distance(h, target) < d_cur) {
          scratch_.fault_ports.push_back(p);
        }
      }
      if (scratch_.fault_ports.empty()) {
        // Base scheme routes into a hole: survivor-minimal next hops.
        for (Vertex h : fault_routing_->survivor_next_hops(r, target)) {
          scratch_.fault_ports.push_back(
              static_cast<std::uint16_t>(net_->port_toward(r, h)));
        }
        if (scratch_.fault_ports.empty()) return false;  // unreachable
      }
    }
    ports = scratch_.fault_ports;
  } else {
    ports = net_->route_ports(r, target);
    assert(!ports.empty());
  }
  ovc = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(pk.hops, prm_.num_vcs - 1));
  if (prm_.min_select == MinSelect::kSingleHash || ports.size() == 1) {
    // Deterministic single minpath per (source router, target) flow, as in
    // destination-based table routing with one stored next hop. The current
    // router participates in the hash so successive stages decorrelate
    // (otherwise e.g. a fat-tree would funnel each mid's transit traffic
    // into a single top router); the path of a flow is still fixed.
    out = ports[flow_path_hash(pk.src_router, target, r) % ports.size()];
  } else {
    // Adaptive: the candidate with the most downstream credits on ovc.
    const std::size_t pb = net_->port_base(r);
    std::uint16_t best = ports[0];
    int best_credit = -1;
    for (std::uint16_t p : ports) {
      const int c =
          bufs_[net_->peer_port(pb + p) * prm_.num_vcs + ovc].credits;
      if (c > best_credit) {
        best_credit = c;
        best = p;
      }
    }
    out = best;
  }
  if (packet_telemetry_ && traced_[pkt_idx]) {
    collector_->on_packet_routed(pk, r, out, ovc, /*eject=*/false, cycle_);
  }
  return true;
}

void Simulation::finalize_flit(std::uint32_t pkt_idx) {
  PacketRecord& pk = packets_[pkt_idx];
  ++pk.delivered_flits;
  if (cycle_ >= measure_begin_ && cycle_ < measure_end_) {
    ++ejected_flits_in_window_;
  }
  if (metrics_period_ != 0) ++metrics_accepted_flits_;
  if (pk.delivered_flits == pk.flits) {
    ++packets_delivered_total_;
    hop_sum_ += pk.hops;
    if (metrics_period_ != 0) {
      // Interval latency covers every delivery (warmup/drain included):
      // the time series is about when packets arrive, not the measurement
      // window. finalize_flit runs at the end of the cycle in router
      // order, so the double accumulation order is canonical.
      const std::uint64_t mlat = cycle_ - pk.birth_cycle + 1;
      ++metrics_.lat_count;
      metrics_.lat_sum += static_cast<double>(mlat);
      if (mlat > metrics_.lat_max) metrics_.lat_max = mlat;
    }
    if (pk.measured) {
      --measured_outstanding_;
      ++measured_delivered_;
      const std::uint64_t lat = cycle_ - pk.birth_cycle + 1;
      latency_sum_ += static_cast<double>(lat);
      latency_samples_.push_back(static_cast<std::uint32_t>(lat));
      if (pk.retries > 0 && lat > max_recovery_latency_) {
        max_recovery_latency_ = lat;  // recovery time of a retransmitted pkt
      }
    }
    if (packet_telemetry_ && traced_[pkt_idx]) {
      collector_->on_packet_ejected(pk, trace_arrival_[pkt_idx], cycle_);
    }
    source_->on_delivered(*this, pk);
    free_packet(pkt_idx);
  }
}

// ------------------------------------------------- live fault injection ---
// Everything below is only reached when a FaultSchedule is attached; a
// fault-free run never executes any of it (bit-identical to the pre-fault
// simulator).

void Simulation::process_faults() {
  const auto& evs = prm_.faults->events();
  if (next_fault_ >= evs.size() || evs[next_fault_].cycle > cycle_) return;

  // 1. Fold the due batch into the fault routing as one epoch.
  while (next_fault_ < evs.size() && evs[next_fault_].cycle <= cycle_) {
    const fault::FaultEvent& ev = evs[next_fault_++];
    fault_routing_->apply(ev);
    ++fault_events_applied_;
    if (fault_telemetry_) collector_->on_fault(ev, cycle_);
  }
  fault_routing_->commit();
  faults_active_ = fault_routing_->degraded();

  // 2. Recompute the liveness masks the hot path consults.
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    router_down_[r] = fault_routing_->router_alive(r) ? 0 : 1;
    const std::uint32_t deg = net_->num_link_ports(r);
    for (std::uint32_t p = 0; p < deg; ++p) {
      link_down_[net_->link_index(r, p)] =
          fault_routing_->link_alive(r, net_->neighbor_at(r, p)) ? 0 : 1;
    }
  }

  // 3. Collect the casualties: packets with flits in flight on a dead
  // link, mid-stream across one (upstream remainder can't follow the cut
  // wormhole), buffered at a dead router, or queued at its endpoints.
  // Flits already fully across a dead link survive at the live far side.
  std::vector<std::uint32_t> victims;
  for (const auto& slot : arrivals_) {
    for (const Arrival& a : slot) {
      if (link_down_[a.buffer / prm_.num_vcs] != 0) victims.push_back(a.flit.pkt);
    }
  }
  for (std::size_t recv = 0; recv < bufs_.size(); ++recv) {
    if (bufs_[recv].owner != 0 && link_down_[recv / prm_.num_vcs] != 0) {
      victims.push_back(bufs_[recv].owner - 1);
    }
  }
  const auto& topo = net_->topology();
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    if (router_down_[r] == 0) continue;
    const std::size_t b0 = net_->port_base(r) * prm_.num_vcs;
    const std::size_t b1 =
        (net_->port_base(r) + net_->num_link_ports(r)) * prm_.num_vcs;
    const std::uint32_t cap = prm_.vc_buffer_flits;
    for (std::size_t b = b0; b < b1; ++b) {
      for (std::uint16_t i = 0; i < bufs_[b].size; ++i) {
        victims.push_back(buf_store_[b * cap + (bufs_[b].head + i) % cap].pkt);
      }
    }
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for (std::uint32_t s = 0; s < topo.conc[r]; ++s) {
      for (std::uint32_t nd = inj_head_[ep0 + s]; nd != kNilNode;
           nd = inj_pool_[nd].next) {
        victims.push_back(inj_pool_[nd].pkt);
      }
    }
  }

  // 4. Purge their flits everywhere, then drop each exactly once.
  if (!victims.empty()) {
    purge_packets(victims);
    for (std::uint32_t v : victims) drop_packet(v);
  }

  // 5. Invalidate surviving route decisions that point at a dead link (only
  // heads that never moved a flit can still be active here -- a mid-stream
  // packet on a dead link held the downstream VC and was purged above).
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    if (router_down_[r] != 0) continue;
    const std::uint32_t deg = net_->num_link_ports(r);
    for (std::uint32_t p = 0; p < deg; ++p) {
      for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) {
        VcState& st = bufs_[buffer_index(r, p, vc)].vc;
        if (st.active && st.out_port < deg &&
            link_down_[net_->link_index(r, st.out_port)] != 0) {
          st.active = false;
        }
      }
    }
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for (std::uint32_t s = 0; s < topo.conc[r]; ++s) {
      VcState& st = inj_state_[ep0 + s];
      if (st.active && st.out_port < deg &&
          link_down_[net_->link_index(r, st.out_port)] != 0) {
        st.active = false;
      }
    }
  }
}

void Simulation::purge_packets(std::vector<std::uint32_t>& victims) {
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  std::vector<std::uint8_t> is_victim(packets_.size(), 0);
  for (std::uint32_t v : victims) is_victim[v] = 1;

  // Downstream VC ownership.
  for (BufState& st : bufs_) {
    if (st.owner != 0 && is_victim[st.owner - 1]) st.owner = 0;
  }
  // Link pipeline: each removed arrival returns the credit its sender took.
  for (auto& slot : arrivals_) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      if (is_victim[slot[i].flit.pkt]) {
        ++bufs_[slot[i].buffer].credits;
      } else {
        slot[w++] = slot[i];
      }
    }
    slot.resize(w);
  }
  // Input buffers: rebuild each ring keeping survivors in order; every
  // removed flit frees its slot (credit). The VC route state stays valid
  // only while the front packet is unchanged.
  const std::uint32_t cap = prm_.vc_buffer_flits;
  std::vector<Flit> kept;
  for (std::size_t b = 0; b < bufs_.size(); ++b) {
    BufState& st = bufs_[b];
    if (st.size == 0) continue;
    const std::uint32_t front_pkt = buffer_front(b).pkt;
    kept.clear();
    bool removed = false;
    for (std::uint16_t i = 0; i < st.size; ++i) {
      const Flit f = buf_store_[b * cap + (st.head + i) % cap];
      if (is_victim[f.pkt]) {
        removed = true;
      } else {
        kept.push_back(f);
      }
    }
    if (!removed) continue;
    st.credits += static_cast<std::uint16_t>(st.size - kept.size());
    st.head = 0;
    st.size = static_cast<std::uint16_t>(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) buf_store_[b * cap + i] = kept[i];
    if (kept.empty() || kept.front().pkt != front_pkt) st.vc.active = false;
  }
  // Injection queues (a victim mid-injection resets its sent counter):
  // relink each pooled FIFO keeping survivors in order, returning victim
  // nodes to the free list.
  for (std::size_t ep = 0; ep < inj_head_.size(); ++ep) {
    std::uint32_t node = inj_head_[ep];
    if (node == kNilNode) continue;
    const bool front_victim = is_victim[inj_pool_[node].pkt] != 0;
    std::uint32_t head = kNilNode, tail = kNilNode, count = 0;
    while (node != kNilNode) {
      const std::uint32_t next = inj_pool_[node].next;
      if (is_victim[inj_pool_[node].pkt]) {
        inj_pool_[node].next = inj_free_head_;
        inj_free_head_ = node;
      } else {
        if (head == kNilNode) {
          head = node;
        } else {
          inj_pool_[tail].next = node;
        }
        inj_pool_[node].next = kNilNode;
        tail = node;
        ++count;
      }
      node = next;
    }
    inj_head_[ep] = head;
    inj_tail_[ep] = tail;
    inj_count_[ep] = count;
    if (front_victim) {
      inj_sent_[ep] = 0;
      inj_state_[ep].active = false;
    }
  }

  // The purge edited buffers, credits and queues wholesale: rebuild the
  // occupancy index and the per-port occupancy counters (cold path, once
  // per fault batch or unroutable kill).
  std::fill(port_mask_.begin(), port_mask_.end(), 0u);
  std::fill(router_work_.begin(), router_work_.end(), 0u);
  for (std::size_t b = 0; b < bufs_.size(); ++b) {
    if (bufs_[b].size != 0) {
      const std::size_t link = b / prm_.num_vcs;
      port_mask_[link] |= 1u << (b - link * prm_.num_vcs);
      ++router_work_[net_->link_router(link)];
    }
  }
  for (std::size_t ep = 0; ep < inj_head_.size(); ++ep) {
    if (inj_head_[ep] != kNilNode) ++router_work_[ep_router_[ep]];
  }
  for (std::size_t port = 0; port < in_occupied_.size(); ++port) {
    in_occupied_[port] = credit_deficit(port);
  }
}

std::uint32_t Simulation::credit_deficit(std::size_t port) const {
  std::uint32_t occupied = 0;
  for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) {
    occupied += prm_.vc_buffer_flits - bufs_[port * prm_.num_vcs + vc].credits;
  }
  return occupied;
}

void Simulation::drop_packet(std::uint32_t pkt_idx) {
  PacketRecord& pk = packets_[pkt_idx];
  ++packets_dropped_;
  if (fault_telemetry_) {
    collector_->on_packet_fault(pk, telemetry::PacketFaultKind::kDropped,
                                cycle_);
  }
  if (pk.retries >= prm_.max_retransmits ||
      !fault_routing_->router_alive(pk.src_router) ||
      !fault_routing_->router_alive(pk.dst_router)) {
    lose_packet(pkt_idx);
    return;
  }
  ++pk.retries;
  pk.delivered_flits = 0;
  pk.hops = 0;
  pk.phase2 = false;
  // Exponential backoff: timeout, 2x timeout, 4x timeout, ...
  const std::uint64_t delay = static_cast<std::uint64_t>(prm_.retransmit_timeout)
                              << (pk.retries - 1);
  retx_queue_.emplace(cycle_ + delay, pkt_idx);
}

void Simulation::lose_packet(std::uint32_t pkt_idx) {
  PacketRecord& pk = packets_[pkt_idx];
  ++packets_lost_;
  if (fault_telemetry_) {
    collector_->on_packet_fault(pk, telemetry::PacketFaultKind::kLost, cycle_);
  }
  if (pk.measured) {
    ++measured_lost_;
    --measured_outstanding_;
  }
  free_packet(pkt_idx);
}

void Simulation::process_retransmits() {
  while (!retx_queue_.empty() && retx_queue_.begin()->first <= cycle_) {
    const std::uint32_t idx = retx_queue_.begin()->second;
    retx_queue_.erase(retx_queue_.begin());
    PacketRecord& pk = packets_[idx];
    if (!fault_routing_->router_alive(pk.src_router) ||
        !fault_routing_->router_alive(pk.dst_router)) {
      lose_packet(idx);  // an endpoint died during the backoff
      continue;
    }
    ++retransmits_done_;
    if (fault_telemetry_) {
      collector_->on_packet_fault(
          pk, telemetry::PacketFaultKind::kRetransmitted, cycle_);
    }
    if (pk.valiant && !fault_routing_->router_alive(pk.intermediate)) {
      pk.valiant = false;  // stale UGAL choice; go minimal on the survivors
    }
    inj_push(pk.src_endpoint, idx);
  }
}

void Simulation::process_pending_kills() {
  // purge_packets sorts and dedupes, so drops happen in ascending
  // packet-pool order.
  std::vector<std::uint32_t>& kills = scratch_.pending_kills;
  if (kills.empty()) return;
  purge_packets(kills);
  for (std::uint32_t v : kills) drop_packet(v);
  kills.clear();
}

bool Simulation::fault_progress_pending() const {
  if (!retx_queue_.empty()) return true;
  return next_fault_ < prm_.faults->events().size();
}

// Phase 3: separable allocation + switch traversal over the routers in
// ascending order. Side effects that must not be visible within the cycle
// go through the rings (arrivals, credit returns) or scratch_ (ejections
// finalized and unroutable packets killed at the end of the cycle).
template <bool kTel, bool kFaults>
void Simulation::route_routers() {
  CycleScratch& sc = scratch_;
  const auto& topo = net_->topology();
  const std::uint32_t num_vcs = prm_.num_vcs;
  // The rings are latency+1 deep, so this cycle's send slot is the one
  // just before the deliver slot -- computed once, no per-flit modulo.
  const auto send_slot = [this](const auto& ring) -> std::size_t {
    const std::size_t slot = cycle_ % ring.size();
    return slot == 0 ? ring.size() - 1 : slot - 1;
  };
  auto& arr_out = arrivals_[send_slot(arrivals_)];
  auto& cred_out = credit_returns_[send_slot(credit_returns_)];
  const Vertex num_routers = net_->num_routers();
  for (Vertex r = 0; r < num_routers; ++r) {
    // No buffered flit and no queued packet anywhere at this router: the
    // generic body would collect nothing, grant nothing, and report
    // nothing -- skip it whole.
    if (router_work_[r] == 0) continue;
    if constexpr (kFaults) {
      if (faults_active_ && router_down_[r] != 0) continue;  // dead router
    }
    const std::size_t pb = net_->port_base(r);
    const std::uint32_t deg = net_->num_link_ports(r);
    const std::uint32_t conc = topo.conc[r];
    const std::uint32_t nout = deg + conc;

    // Collect feasible requests per output.
    bool any = false;
    for (std::uint32_t o = 0; o < nout; ++o) sc.req_count[o] = 0;
    if constexpr (kTel) {
      if (stall_telemetry_) {
        for (std::uint32_t o = 0; o < nout; ++o) {
          sc.out_want_credit[o] = sc.out_want_vc[o] = sc.out_granted[o] = 0;
        }
      }
    }

    auto consider = [&](std::uint32_t input_key, std::uint32_t inport,
                        std::uint32_t pkt, std::uint16_t out, std::uint8_t ovc,
                        std::uint16_t seq) {
      if (out < deg) {
        const BufState& down = bufs_[net_->peer_port(pb + out) * num_vcs + ovc];
        if (down.credits == 0) {
          if constexpr (kTel) {
            if (stall_telemetry_) sc.out_want_credit[out] = 1;
          }
          return;
        }
        const std::uint32_t owner = down.owner;
        // Head: VC must be free or already ours. Body: must follow its head.
        if (seq == 0 ? (owner != 0 && owner != pkt + 1) : (owner != pkt + 1)) {
          if constexpr (kTel) {
            if (stall_telemetry_) sc.out_want_vc[out] = 1;
          }
          return;
        }
      }
      sc.req_store[out * req_stride_ + sc.req_count[out]++] = {
          input_key, pkt, static_cast<std::uint16_t>(inport), ovc};
      any = true;
    };

    for (std::uint32_t port = 0; port < deg; ++port) {
      // Occupancy mask: visit only non-empty VCs, lowest first (the same
      // order the generic VC scan produces).
      std::uint32_t m = port_mask_[pb + port];
      while (m != 0) {
        const auto vc = static_cast<std::uint32_t>(std::countr_zero(m));
        m &= m - 1;
        const std::size_t b = (pb + port) * num_vcs + vc;
        const Flit f = buffer_front(b);
        VcState& st = bufs_[b].vc;
        if (!st.active) {
          // A head flit must be at the front (wormhole order).
          if (!compute_route(f.pkt, r, st.out_port, st.out_vc)) {
            sc.pending_kills.push_back(f.pkt);  // unroutable: killed at cycle end
            continue;
          }
          st.active = true;
        }
        consider(static_cast<std::uint32_t>(b), port, f.pkt, st.out_port,
                 st.out_vc, f.seq);
      }
    }
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for (std::uint32_t s = 0; s < conc; ++s) {
      const std::uint64_t ep = ep0 + s;
      const std::uint32_t head = inj_head_[ep];
      if (head == kNilNode) continue;
      const std::uint32_t pkt = inj_pool_[head].pkt;
      VcState& st = inj_state_[ep];
      if (!st.active) {
        if (!compute_route(pkt, r, st.out_port, st.out_vc)) {
          sc.pending_kills.push_back(pkt);
          continue;
        }
        st.active = true;
      }
      consider(kInjectionFlag | static_cast<std::uint32_t>(ep), deg + s, pkt,
               st.out_port, st.out_vc, inj_sent_[ep]);
    }
    if (!any) {
      // Nothing reached arbitration; blocked inputs may still want ports.
      if constexpr (kTel) {
        if (stall_telemetry_) report_output_stalls(r, deg);
      }
      continue;
    }

    // Grant: per output, round-robin over requesters; an input port moves
    // at most one flit per cycle.
    for (std::uint32_t o = 0; o < nout; ++o) sc.inport_used[o] = 0;
    for (std::uint32_t o = 0; o < nout; ++o) {
      const std::uint32_t k = sc.req_count[o];
      if (k == 0) continue;
      const Request* reqs = &sc.req_store[o * req_stride_];
      std::uint16_t& rr =
          o < deg ? out_rr_link_[pb + o] : out_rr_ej_[ep0 + (o - deg)];
      std::uint32_t winner = k;
      std::uint32_t cand = rr % k;  // same probe sequence as (rr + i) % k
      for (std::uint32_t i = 0; i < k; ++i) {
        const std::uint32_t inport = reqs[cand].inport;
        if (!sc.inport_used[inport]) {
          winner = cand;
          sc.inport_used[inport] = 1;
          rr = static_cast<std::uint16_t>((cand + 1) % k);
          break;
        }
        if (++cand == k) cand = 0;
      }
      if (winner == k) continue;
      const Request& req = reqs[winner];
      const std::uint32_t pkt_idx = req.pkt;
      PacketRecord& pk = packets_[pkt_idx];

      // Pop the flit from its input. Credits return through the ring even
      // at credit_latency == 0 (the freed slot becomes visible next cycle,
      // never mid-loop).
      Flit f;
      if (req.input_key & kInjectionFlag) {
        const std::uint64_t ep = req.input_key & ~kInjectionFlag;
        f = {pkt_idx, inj_sent_[ep]};
        ++inj_sent_[ep];
        if (f.seq + 1u == pk.flits) {
          inj_pop_front(ep);
          inj_sent_[ep] = 0;
          inj_state_[ep].active = false;
        }
      } else {
        const std::size_t b = req.input_key;
        f = buffer_front(b);
        buffer_pop(b);
        cred_out.push_back(static_cast<std::uint32_t>(b));
        if (f.seq + 1u == pk.flits) bufs_[b].vc.active = false;
      }

      // Forward.
      if (o < deg) {
        const std::size_t in_port = net_->peer_port(pb + o);
        const std::size_t recv = in_port * num_vcs + req.ovc;
        BufState& down = bufs_[recv];
        if (f.seq == 0) {
          down.owner = pkt_idx + 1;
          ++pk.hops;
          if constexpr (kTel) {
            if (packet_telemetry_ && traced_[pkt_idx]) {
              collector_->on_packet_hop(pk, r, o, req.ovc,
                                        trace_arrival_[pkt_idx], cycle_);
              // Head flit lands at the neighbour after link + router
              // latency; the next hop's wait is measured from that arrival.
              trace_arrival_[pkt_idx] =
                  cycle_ + prm_.link_latency + prm_.router_latency;
            }
          }
        }
        if (f.seq + 1u == pk.flits) down.owner = 0;
        --down.credits;
        if (!in_occupied_.empty()) ++in_occupied_[in_port];
        arr_out.push_back({static_cast<std::uint32_t>(recv), f});
        if constexpr (kTel) {
          if (link_telemetry_) collector_->on_link_flit(pb + o, cycle_);
        }
      } else {
        sc.finals.push_back(pkt_idx);  // delivery bookkeeping at cycle end
      }
      if constexpr (kTel) {
        if (stall_telemetry_) sc.out_granted[o] = 1;
      }
      ++moved_this_cycle_;
    }
    if constexpr (kTel) {
      if (stall_telemetry_) report_output_stalls(r, deg);
    }
  }
}

// Finalize may re-enter the packet pool and the injection queues
// (on_delivered), so it runs after the router loop, in the loop's router
// order: delivered counters, latency accumulation order, pool-index reuse
// and any traffic a motif engine enqueues are fixed by that order.
void Simulation::finalize_ejections() {
  for (std::uint32_t pkt : scratch_.finals) finalize_flit(pkt);
  scratch_.finals.clear();
}

template <bool kTel, bool kFaults>
void Simulation::step_impl() {
  // Self-profiler lap clock: phase boundaries accumulate wall time into
  // prof_. One predictable branch per boundary when profiling is off;
  // never touches simulation state either way.
  using prof_clock = std::chrono::steady_clock;
  prof_clock::time_point prof_t{};
  if (profile_) prof_t = prof_clock::now();
  const auto prof_lap = [&](double& acc) {
    if (!profile_) return;
    const auto now = prof_clock::now();
    acc += std::chrono::duration<double>(now - prof_t).count();
    prof_t = now;
  };

  // Phase 0 -- live faults: apply due schedule events (dropping
  // casualties), then re-enqueue packets whose retransmission backoff
  // expired.
  if constexpr (kFaults) {
    process_faults();
    process_retransmits();
  }
  prof_lap(prof_.fault_seconds);

  // Phase 1 -- deliver link arrivals and credit returns scheduled for this
  // cycle.
  auto& arr_slot = arrivals_[cycle_ % arrivals_.size()];
  for (const Arrival& a : arr_slot) buffer_push(a.buffer, a.flit);
  arr_slot.clear();
  auto& credit_slot = credit_returns_[cycle_ % credit_returns_.size()];
  for (std::uint32_t b : credit_slot) ++bufs_[b].credits;
  if (!in_occupied_.empty()) {
    for (std::uint32_t b : credit_slot) --in_occupied_[b / prm_.num_vcs];
  }
  credit_slot.clear();
  prof_lap(prof_.deliver_seconds);

  // Phase 2 -- traffic generation: one RNG stream, shared by injection and
  // UGAL path selection.
  source_->tick(*this);
  prof_lap(prof_.inject_seconds);

  // Phase 3 -- per-router separable allocation + switch traversal.
  moved_this_cycle_ = 0;
  route_routers<kTel, kFaults>();
  prof_lap(prof_.route_seconds);

  // Phase 4 -- end of cycle: finalize ejections in router order, kill
  // unroutable packets, then the progress bookkeeping.
  finalize_ejections();
  if constexpr (kFaults) process_pending_kills();

  bool progress = moved_this_cycle_ > 0 || live_packets_ == 0;
  if constexpr (kFaults) {
    // Pending retransmission backoffs and unapplied schedule events (e.g. a
    // repair that will unblock traffic) count as progress, not deadlock.
    progress = progress || fault_progress_pending();
  }
  if (progress) {
    last_progress_cycle_ = cycle_;
  } else if (cycle_ - last_progress_cycle_ > prm_.deadlock_threshold) {
    deadlock_ = true;
  }
  prof_lap(prof_.barrier_seconds);
  if constexpr (kTel) {
    if (occupancy_period_ != 0 && cycle_ % occupancy_period_ == 0) {
      sample_occupancy();
    }
    // Metrics frames close end-of-cycle so an interval of K covers exactly
    // K source ticks / finalize passes: [0,K), [K,2K), ... (see
    // MetricsState).
    if (metrics_period_ != 0 && (cycle_ + 1) % metrics_period_ == 0) {
      emit_metrics_frame(cycle_ + 1);
    }
  }
  if (prm_.paranoid_checks) check_invariants();
  prof_lap(prof_.telemetry_seconds);
  if (profile_) ++prof_.cycles;
  ++cycle_;
}

// The pre-optimization cycle loop, preserved as the differential-testing
// twin (SimParams::reference_impl): full router/VC scans instead of the
// occupancy masks, receive-buffer indexes and arbitration input ports
// recomputed the long way, modulo ring arithmetic, every gate a runtime
// branch. Must stay semantically frozen -- tests/test_perf_equivalence.cpp
// diffs entire runs against step_impl.
void Simulation::step_reference() {
  if (has_faults_) {
    process_faults();
    process_retransmits();
  }

  auto& slot = arrivals_[cycle_ % arrivals_.size()];
  for (const Arrival& a : slot) buffer_push(a.buffer, a.flit);
  slot.clear();
  auto& credit_slot = credit_returns_[cycle_ % credit_returns_.size()];
  for (std::uint32_t b : credit_slot) ++bufs_[b].credits;
  credit_slot.clear();

  source_->tick(*this);

  CycleScratch& sc = scratch_;
  const auto& topo = net_->topology();
  moved_this_cycle_ = 0;
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    if (faults_active_ && router_down_[r] != 0) continue;  // dead: no switch
    const std::uint32_t deg = net_->num_link_ports(r);
    const std::uint32_t conc = topo.conc[r];
    const std::uint32_t nout = deg + conc;

    bool any = false;
    for (std::uint32_t o = 0; o < nout; ++o) sc.req_count[o] = 0;
    if (stall_telemetry_) {
      for (std::uint32_t o = 0; o < nout; ++o) {
        sc.out_want_credit[o] = sc.out_want_vc[o] = sc.out_granted[o] = 0;
      }
    }

    auto consider = [&](std::uint32_t input_key, std::uint32_t inport,
                        std::uint32_t pkt, std::uint16_t out, std::uint8_t ovc,
                        std::uint16_t seq) {
      if (out < deg) {
        const Vertex nbr = net_->neighbor_at(r, out);
        const std::uint32_t rev = net_->reverse_port(r, out);
        const std::size_t recv = buffer_index(nbr, rev, ovc);
        if (bufs_[recv].credits == 0) {
          if (stall_telemetry_) sc.out_want_credit[out] = 1;
          return;
        }
        const std::uint32_t owner = bufs_[recv].owner;
        if (seq == 0) {
          if (owner != 0 && owner != pkt + 1) {  // VC held by another
            if (stall_telemetry_) sc.out_want_vc[out] = 1;
            return;
          }
        } else {
          if (owner != pkt + 1) {  // body must follow its head
            if (stall_telemetry_) sc.out_want_vc[out] = 1;
            return;
          }
        }
      }
      sc.req_store[out * req_stride_ + sc.req_count[out]++] = {
          input_key, pkt, static_cast<std::uint16_t>(inport), ovc};
      any = true;
    };

    for (std::uint32_t port = 0; port < deg; ++port) {
      for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) {
        const std::size_t b = buffer_index(r, port, vc);
        if (buffer_empty(b)) continue;
        const Flit f = buffer_front(b);
        VcState& st = bufs_[b].vc;
        if (!st.active) {
          if (!compute_route(f.pkt, r, st.out_port, st.out_vc)) {
            sc.pending_kills.push_back(f.pkt);
            continue;
          }
          st.active = true;
        }
        consider(static_cast<std::uint32_t>(b), port, f.pkt, st.out_port,
                 st.out_vc, f.seq);
      }
    }
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for (std::uint32_t s = 0; s < conc; ++s) {
      const std::uint64_t ep = ep0 + s;
      if (inj_head_[ep] == kNilNode) continue;
      const std::uint32_t pkt = inj_pool_[inj_head_[ep]].pkt;
      VcState& st = inj_state_[ep];
      if (!st.active) {
        if (!compute_route(pkt, r, st.out_port, st.out_vc)) {
          sc.pending_kills.push_back(pkt);
          continue;
        }
        st.active = true;
      }
      consider(kInjectionFlag | static_cast<std::uint32_t>(ep), deg + s, pkt,
               st.out_port, st.out_vc, inj_sent_[ep]);
    }
    if (!any) {
      if (stall_telemetry_) report_output_stalls(r, deg);
      continue;
    }

    for (std::uint32_t o = 0; o < nout; ++o) sc.inport_used[o] = 0;
    for (std::uint32_t o = 0; o < nout; ++o) {
      const std::uint32_t k = sc.req_count[o];
      if (k == 0) continue;
      const Request* reqs = &sc.req_store[o * req_stride_];
      std::uint16_t& rr = o < deg ? out_rr_link_[net_->link_index(r, o)]
                                  : out_rr_ej_[ep0 + (o - deg)];
      std::size_t winner = k;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t cand = (rr + i) % k;
        const std::uint32_t key = reqs[cand].input_key;
        // Recomputed from the input key (not Request::inport) on purpose:
        // the reference twin cross-checks the stored field's derivation.
        const std::uint32_t inport =
            key & kInjectionFlag
                ? deg + static_cast<std::uint32_t>((key & ~kInjectionFlag) - ep0)
                : static_cast<std::uint32_t>(key / prm_.num_vcs -
                                             net_->port_base(r));
        if (!sc.inport_used[inport]) {
          winner = cand;
          sc.inport_used[inport] = 1;
          rr = static_cast<std::uint16_t>((cand + 1) % k);
          break;
        }
      }
      if (winner == k) continue;
      const Request& req = reqs[winner];
      const std::uint32_t pkt_idx = req.pkt;
      PacketRecord& pk = packets_[pkt_idx];

      Flit f;
      if (req.input_key & kInjectionFlag) {
        const std::uint64_t ep = req.input_key & ~kInjectionFlag;
        f = {pkt_idx, inj_sent_[ep]};
        ++inj_sent_[ep];
        if (f.seq + 1u == pk.flits) {
          inj_pop_front(ep);
          inj_sent_[ep] = 0;
          inj_state_[ep].active = false;
        }
      } else {
        const std::size_t b = req.input_key;
        f = buffer_front(b);
        buffer_pop(b);
        // Even credit_latency == 0 returns through the ring (the one slot
        // was drained this cycle; visible next cycle).
        credit_returns_[(cycle_ + prm_.credit_latency) %
                        credit_returns_.size()]
            .push_back(static_cast<std::uint32_t>(b));
        if (f.seq + 1u == pk.flits) bufs_[b].vc.active = false;
      }

      if (o < deg) {
        const Vertex nbr = net_->neighbor_at(r, o);
        const std::uint32_t rev = net_->reverse_port(r, o);
        const std::size_t recv = buffer_index(nbr, rev, req.ovc);
        if (f.seq == 0) {
          bufs_[recv].owner = pkt_idx + 1;
          ++pk.hops;
          if (packet_telemetry_ && traced_[pkt_idx]) {
            collector_->on_packet_hop(pk, r, o, req.ovc,
                                      trace_arrival_[pkt_idx], cycle_);
            trace_arrival_[pkt_idx] =
                cycle_ + prm_.link_latency + prm_.router_latency;
          }
        }
        if (f.seq + 1u == pk.flits) bufs_[recv].owner = 0;
        --bufs_[recv].credits;
        arrivals_[(cycle_ + prm_.link_latency + prm_.router_latency) %
                  arrivals_.size()]
            .push_back({static_cast<std::uint32_t>(recv), f});
        if (link_telemetry_) {
          collector_->on_link_flit(net_->link_index(r, o), cycle_);
        }
      } else {
        sc.finals.push_back(pkt_idx);  // delivered at end-of-sweep
      }
      if (stall_telemetry_) sc.out_granted[o] = 1;
      ++moved_this_cycle_;
    }
    if (stall_telemetry_) report_output_stalls(r, deg);
  }

  finalize_ejections();
  if (has_faults_) process_pending_kills();

  if (moved_this_cycle_ > 0 || live_packets_ == 0 ||
      (has_faults_ && fault_progress_pending())) {
    last_progress_cycle_ = cycle_;
  } else if (cycle_ - last_progress_cycle_ > prm_.deadlock_threshold) {
    deadlock_ = true;
  }
  if (occupancy_period_ != 0 && cycle_ % occupancy_period_ == 0) {
    sample_occupancy();
  }
  // Same end-of-cycle metrics sample site as step_impl: the frame reads
  // only counters both engines mutate through the shared helpers
  // (new_packet / finalize_flit / fault paths), so the series is
  // bit-identical to the optimized engine.
  if (metrics_period_ != 0 && (cycle_ + 1) % metrics_period_ == 0) {
    emit_metrics_frame(cycle_ + 1);
  }
  if (prm_.paranoid_checks) check_invariants();
  ++cycle_;
}

// Attribute every output link port of r that moved nothing this cycle:
// requests that reached arbitration but lost to input-port conflicts, else
// flits blocked upstream of arbitration on credits or VC ownership. Ports
// with no waiting traffic are idle and not reported (the collector derives
// idle from the window length). Ejection ports are excluded.
void Simulation::report_output_stalls(Vertex r, std::uint32_t deg) {
  const CycleScratch& sc = scratch_;
  for (std::uint32_t o = 0; o < deg; ++o) {
    if (sc.out_granted[o]) continue;
    telemetry::StallCause cause;
    if (sc.req_count[o] != 0) {
      cause = telemetry::StallCause::kArbitrationLost;
    } else if (sc.out_want_credit[o]) {
      cause = telemetry::StallCause::kCreditStarved;
    } else if (sc.out_want_vc[o]) {
      cause = telemetry::StallCause::kVcBlocked;
    } else {
      continue;  // empty: no buffered flit wanted this port
    }
    collector_->on_output_stall(r, o, cause, cycle_);
  }
}

void Simulation::check_invariants() const {
  const std::uint32_t cap = prm_.vc_buffer_flits;
  std::size_t credits_in_flight = 0;
  for (const auto& slot : credit_returns_) credits_in_flight += slot.size();
  std::size_t arrivals_in_flight = 0;
  for (const auto& slot : arrivals_) arrivals_in_flight += slot.size();

  const std::size_t nbuf = bufs_.size();
  std::size_t total_buffered = 0, total_credits = 0;
  for (std::size_t b = 0; b < nbuf; ++b) {
    const BufState& st = bufs_[b];
    if (st.size > cap || st.credits > cap || st.head >= cap) {
      throw std::logic_error("sim invariant: buffer/credit over capacity");
    }
    if (st.size == 0 && st.head != 0) {
      throw std::logic_error("sim invariant: empty VC ring not at slot 0");
    }
    total_buffered += st.size;
    total_credits += st.credits;
    // Wormhole contiguity: flits of one packet occupy consecutive slots
    // with ascending sequence numbers.
    for (std::uint16_t i = 1; i < st.size; ++i) {
      const Flit& prev = buf_store_[b * cap + (st.head + i - 1) % cap];
      const Flit& curf = buf_store_[b * cap + (st.head + i) % cap];
      if (curf.pkt == prev.pkt && curf.seq != prev.seq + 1) {
        throw std::logic_error("sim invariant: wormhole order broken");
      }
      if (curf.pkt != prev.pkt && prev.seq + 1u != packets_[prev.pkt].flits &&
          packets_[prev.pkt].flits != 0) {
        throw std::logic_error(
            "sim invariant: packet interleaved mid-stream in one VC");
      }
    }
  }
  // Credit conservation: every slot is either free (credit), occupied,
  // in-flight toward the buffer, or a credit still in the return pipeline.
  if (total_credits + total_buffered + arrivals_in_flight +
          credits_in_flight !=
      nbuf * static_cast<std::size_t>(cap)) {
    throw std::logic_error("sim invariant: credit conservation violated");
  }

  // Occupancy index consistency: every port mask bit mirrors its buffer's
  // emptiness, injection FIFO counts match their lists, and router work
  // equals non-empty buffers plus non-empty injection queues.
  std::vector<std::uint32_t> work(router_work_.size(), 0);
  for (std::size_t b = 0; b < nbuf; ++b) {
    const std::size_t link = b / prm_.num_vcs;
    const std::uint32_t vc_bit = 1u << (b % prm_.num_vcs);
    if (((port_mask_[link] & vc_bit) != 0) != (bufs_[b].size != 0)) {
      throw std::logic_error("sim invariant: VC occupancy mask out of sync");
    }
    if (bufs_[b].size != 0) ++work[net_->link_router(link)];
  }
  for (std::size_t ep = 0; ep < inj_head_.size(); ++ep) {
    std::uint32_t count = 0;
    for (std::uint32_t nd = inj_head_[ep]; nd != kNilNode;
         nd = inj_pool_[nd].next) {
      ++count;
      if (count > inj_pool_.size()) {
        throw std::logic_error("sim invariant: injection FIFO cycle");
      }
    }
    if (count != inj_count_[ep]) {
      throw std::logic_error("sim invariant: injection FIFO count mismatch");
    }
    if (count != 0) ++work[ep_router_[ep]];
  }
  if (work != router_work_) {
    throw std::logic_error("sim invariant: router work counter out of sync");
  }
  // Per-port occupancy counters (UGAL's queue estimate, when kept) equal
  // the credit deficit of their VCs.
  for (std::size_t port = 0; port < in_occupied_.size(); ++port) {
    if (credit_deficit(port) != in_occupied_[port]) {
      throw std::logic_error("sim invariant: port occupancy counter drift");
    }
  }
}

void Simulation::sample_occupancy() {
  occupancy_sample_.resize(bufs_.size());
  for (std::size_t b = 0; b < bufs_.size(); ++b) {
    occupancy_sample_[b] = bufs_[b].size;
  }
  collector_->on_occupancy_sample(cycle_,
                                  {occupancy_sample_, prm_.num_vcs});
}

// Close the metrics interval [metrics_.last_cycle, end_cycle): hand the
// collector the diffs of the cumulative counters since the last frame plus
// the end-of-interval gauges, then snapshot for the next interval. Runs in
// the serial end-of-cycle tail (or the collect() epilogue for the final
// remainder), after every serial-phase counter mutation of the cycle.
void Simulation::emit_metrics_frame(std::uint64_t end_cycle) {
  telemetry::MetricsFrame f;
  f.begin_cycle = metrics_.last_cycle;
  f.end_cycle = end_cycle;
  const std::uint64_t injected = next_packet_id_ - 1;
  // Offered = every packet handed to a source queue, retransmissions
  // included (each re-enqueue offers the packet's flits again).
  const std::uint64_t offered =
      (injected + retransmits_done_) * prm_.packet_flits;
  f.injected = injected - metrics_.injected;
  f.offered_flits = offered - metrics_.offered_flits;
  f.ejected = packets_delivered_total_ - metrics_.ejected_pkts;
  f.accepted_flits = metrics_accepted_flits_ - metrics_.accepted_flits;
  f.lat_count = metrics_.lat_count;
  f.lat_sum = metrics_.lat_sum;
  f.lat_max = metrics_.lat_max;
  std::uint64_t buffered = 0;
  for (const BufState& st : bufs_) buffered += st.size;
  f.buffered_flits = buffered;
  f.in_flight = live_packets_;
  f.dropped = packets_dropped_ - metrics_.dropped;
  f.retransmits = retransmits_done_ - metrics_.retx;
  f.lost = packets_lost_ - metrics_.lost;
  collector_->on_metrics_sample(f);
  metrics_.last_cycle = end_cycle;
  metrics_.injected = injected;
  metrics_.offered_flits = offered;
  metrics_.ejected_pkts = packets_delivered_total_;
  metrics_.accepted_flits = metrics_accepted_flits_;
  metrics_.dropped = packets_dropped_;
  metrics_.retx = retransmits_done_;
  metrics_.lost = packets_lost_;
  metrics_.lat_count = 0;
  metrics_.lat_sum = 0.0;
  metrics_.lat_max = 0;
}

SimResult Simulation::collect(std::uint64_t cycles) {
  SimResult res;
  res.cycles = cycles;
  res.packets_delivered = packets_delivered_total_;
  res.measured_packets = measured_delivered_;
  res.deadlock = deadlock_;
  res.stable = !deadlock_ && measured_outstanding_ == 0;
  if (!latency_samples_.empty()) {
    res.avg_packet_latency = latency_sum_ / latency_samples_.size();
    // One full sort yields every percentile; the rank convention
    // floor(q * (n-1)) matches the previous nth_element p99 exactly.
    std::sort(latency_samples_.begin(), latency_samples_.end());
    const std::size_t n = latency_samples_.size();
    const auto rank = [n](double q) {
      return static_cast<std::ptrdiff_t>(q * (n - 1));
    };
    res.p50_packet_latency = latency_samples_[rank(0.50)];
    res.p99_packet_latency = latency_samples_[rank(0.99)];
    res.p999_packet_latency = latency_samples_[rank(0.999)];
  }
  if (res.packets_delivered > 0) {
    res.avg_hops =
        static_cast<double>(hop_sum_) / static_cast<double>(res.packets_delivered);
  }
  const std::uint64_t eps = net_->topology().num_endpoints();
  const std::uint64_t window = measure_end_ - measure_begin_;
  if (eps > 0 && window > 0 && measure_end_ != ~0ull) {
    res.accepted_flit_rate = static_cast<double>(ejected_flits_in_window_) /
                             (static_cast<double>(eps) * window);
  }
  std::uint64_t maxq = 0;
  for (std::uint32_t c : inj_count_) maxq = std::max<std::uint64_t>(maxq, c);
  res.max_source_queue = maxq;
  if (has_faults_) {
    res.fault_events = fault_events_applied_;
    res.packets_dropped = packets_dropped_;
    res.retransmits = retransmits_done_;
    res.packets_lost = packets_lost_;
    res.measured_lost = measured_lost_;
    res.max_recovery_latency = max_recovery_latency_;
    // Undelivered survivors at run end (stuck behind a permanent fault or
    // still in a backoff) count against availability alongside the lost.
    const std::uint64_t denom =
        measured_delivered_ + measured_lost_ + measured_outstanding_;
    res.delivered_fraction =
        denom == 0 ? 1.0
                   : static_cast<double>(measured_delivered_) /
                         static_cast<double>(denom);
  }
  if (profile_) {
    res.profile = prof_;
    res.profile.enabled = true;
    res.profile.shard_task_seconds = {prof_.deliver_seconds +
                                      prof_.route_seconds};
  }
  res.source = source_->report();
  if (collector_ != nullptr) {
    // Flush the partial final metrics interval (a run whose length is not
    // a multiple of the period still accounts every cycle) before the
    // run-end notification closes subscribers' buckets.
    if (metrics_period_ != 0 && metrics_.last_cycle < cycles) {
      emit_metrics_frame(cycles);
    }
    // Re-announce the window collectors should normalize to: run_app's
    // open-ended window closes at the cycle the run actually stopped.
    const std::uint64_t eff_end = std::min(measure_end_, cycles);
    const std::uint64_t eff_begin = std::min(measure_begin_, eff_end);
    collector_->on_run_end(cycles, eff_begin, eff_end);
    collector_->finish(res.telemetry);
  }
  return res;
}

SimResult Simulation::run() {
  measure_begin_ = prm_.warmup_cycles;
  measure_end_ = prm_.warmup_cycles + prm_.measure_cycles;
  if (collector_ != nullptr) {
    collector_->on_run_begin(*net_, prm_, measure_begin_, measure_end_);
  }
  const std::uint64_t budget = measure_end_ + prm_.drain_cycles;
  while (cycle_ < budget && !deadlock_) {
    step();
    if (cycle_ >= measure_end_ && measured_outstanding_ == 0) break;
  }
  return collect(cycle_);
}

SimResult Simulation::run_app(std::uint64_t max_cycles) {
  measure_begin_ = 0;
  measure_end_ = ~0ull;
  if (collector_ != nullptr) {
    collector_->on_run_begin(*net_, prm_, measure_begin_, measure_end_);
  }
  while (cycle_ < max_cycles && !deadlock_) {
    step();
    if (source_->finished(*this) && live_packets_ == 0) break;
  }
  auto res = collect(cycle_);
  res.stable = !deadlock_ && live_packets_ == 0;
  return res;
}

}  // namespace polarstar::sim

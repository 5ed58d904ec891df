#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace polarstar::sim {

using graph::Vertex;

namespace {

constexpr std::size_t kMaxPorts = std::numeric_limits<std::uint16_t>::max();
constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();

}  // namespace

Network::Network(std::shared_ptr<const topo::Topology> topo,
                 std::shared_ptr<const routing::MinimalRouting> routing)
    : topo_(std::move(topo)), routing_(std::move(routing)) {
  if (!topo_ || !routing_) {
    throw std::invalid_argument("Network: topology and routing must be set");
  }
  n_ = topo_->g.num_vertices();
  port_base_.assign(n_ + 1, 0);
  for (Vertex r = 0; r < n_; ++r) {
    if (topo_->g.degree(r) > kMaxPorts) {
      throw std::length_error("Network: router degree exceeds uint16 ports");
    }
    port_base_[r + 1] = port_base_[r] + topo_->g.degree(r);
  }
  total_link_ports_ = port_base_[n_];
  if (total_link_ports_ > kMaxIndex) {
    throw std::length_error("Network: link ports exceed uint32 indices");
  }

  reverse_port_.resize(total_link_ports_);
  link_neighbor_.resize(total_link_ports_);
  link_router_.resize(total_link_ports_);
  for (Vertex r = 0; r < n_; ++r) {
    auto nb = topo_->g.neighbors(r);
    for (std::uint32_t p = 0; p < nb.size(); ++p) {
      reverse_port_[port_base_[r] + p] =
          static_cast<std::uint16_t>(port_toward(nb[p], r));
      link_neighbor_[port_base_[r] + p] = nb[p];
      link_router_[port_base_[r] + p] = r;
    }
  }
  peer_port_.resize(total_link_ports_);
  for (std::size_t link = 0; link < total_link_ports_; ++link) {
    peer_port_[link] =
        static_cast<std::uint32_t>(port_base_[link_neighbor_[link]]) +
        reverse_port_[link];
  }

  // Distances: one routing_->distance call per ordered pair, narrowed into
  // a construction-time uint16 matrix (the DistanceMatrix convention:
  // graph::kUnreachable <-> kNoDist; no pristine diameter comes near it).
  const std::size_t pairs = static_cast<std::size_t>(n_) * n_;
  std::vector<std::uint16_t> dist(pairs);
  for (Vertex s = 0; s < n_; ++s) {
    for (Vertex d = 0; d < n_; ++d) {
      const std::uint32_t hd = routing_->distance(s, d);
      if (hd != graph::kUnreachable && hd >= kNoDist) {
        throw std::logic_error("Network: routing distance overflows uint16");
      }
      dist[static_cast<std::size_t>(s) * n_ + d] =
          hd == graph::kUnreachable ? kNoDist : static_cast<std::uint16_t>(hd);
    }
  }

  // Minimal route ports per pair. A distance-minimal routing's candidates
  // are exactly the ports whose neighbor is one hop closer, ascending, so
  // they come straight from dist; any other routing is asked per pair.
  // Each pair's ports are collected into cand and hashed with the
  // distance; a per-row open-addressing table then finds an earlier entry
  // of the row with the same distance and ports, or appends a new one.
  // Slots are stamped with the row (s + 1), so the table is never cleared.
  const bool derive = routing_->next_hops_are_distance_minimal();
  route_id_.resize(pairs);
  entry_base_.assign(n_ + 1, 0);
  struct Slot {
    std::uint32_t row = 0;  // s + 1 of the row that filled it, 0 = never
    std::uint32_t id = 0;
  };
  const int slot_bits =
      std::bit_width(2 * std::max<std::size_t>(n_, 1) - 1);  // load <= 1/2
  std::vector<Slot> slots(std::size_t{1} << slot_bits);
  const std::size_t slot_mask = slots.size() - 1;
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::vector<Vertex> hops;
  std::vector<std::uint16_t> cand;  // cand[0, k): the current pair's ports
  for (Vertex s = 0; s < n_; ++s) {
    auto nb = topo_->g.neighbors(s);
    const std::uint16_t* row = dist.data() + static_cast<std::size_t>(s) * n_;
    if (derive) {
      // The derivation reads neighbors from the topology, so the routing
      // must describe the same graph: its distance-1 routers are s's links.
      const auto ones = std::count(row, row + n_, std::uint16_t{1});
      if (static_cast<std::size_t>(ones) != nb.size() ||
          !std::all_of(nb.begin(), nb.end(),
                       [row](Vertex w) { return row[w] == 1; })) {
        throw std::invalid_argument(
            "Network: routing distance 1 disagrees with the topology links");
      }
      cand.resize(nb.size());
    }
    const std::size_t base = entries_.size();
    entry_base_[s] = static_cast<std::uint32_t>(base);
    for (Vertex d = 0; d < n_; ++d) {
      std::size_t k = 0;
      if (derive) {
        if (s != d && row[d] != kNoDist) {
          // Branch-free compaction: write every port, keep the closer ones.
          for (std::uint32_t p = 0; p < nb.size(); ++p) {
            cand[k] = static_cast<std::uint16_t>(p);
            k += dist[static_cast<std::size_t>(nb[p]) * n_ + d] + 1 == row[d];
          }
        }
      } else if (s != d) {
        hops.clear();
        routing_->next_hops(s, d, hops);
        cand.clear();
        for (Vertex w : hops) {
          cand.push_back(static_cast<std::uint16_t>(port_toward(s, w)));
        }
        k = cand.size();
      }
      std::uint64_t h = (row[d] + 1ull) * kMul;
      for (std::size_t j = 0; j < k; ++j) h = (h ^ (cand[j] + 1ull)) * kMul;
      const auto same = [&](const RouteEntry& e) {
        return e.dist == row[d] && e.count == k &&
               std::equal(cand.data(), cand.data() + k,
                          route_ports_.data() + e.ports);
      };
      std::size_t i = h >> (64 - slot_bits);  // multiplicative: top bits
      while (slots[i].row == s + 1 && !same(entries_[base + slots[i].id])) {
        i = (i + 1) & slot_mask;
      }
      if (slots[i].row != s + 1) {
        // First time this row sees the route: a new entry.
        if (entries_.size() - base > kMaxPorts) {
          throw std::length_error("Network: route entries exceed uint16 ids");
        }
        if (route_ports_.size() + k > kMaxIndex ||
            entries_.size() >= kMaxIndex) {
          throw std::length_error("Network: route table exceeds uint32 offsets");
        }
        slots[i] = {s + 1, static_cast<std::uint32_t>(entries_.size() - base)};
        entries_.push_back({static_cast<std::uint32_t>(route_ports_.size()),
                            row[d], static_cast<std::uint16_t>(k)});
        route_ports_.insert(route_ports_.end(), cand.data(), cand.data() + k);
      }
      route_id_[static_cast<std::size_t>(s) * n_ + d] =
          static_cast<std::uint16_t>(slots[i].id);
    }
  }
  entry_base_[n_] = static_cast<std::uint32_t>(entries_.size());
  entries_.shrink_to_fit();
  route_ports_.shrink_to_fit();
}

std::uint32_t Network::port_toward(Vertex r, Vertex u) const {
  auto nb = topo_->g.neighbors(r);
  auto it = std::lower_bound(nb.begin(), nb.end(), u);
  if (it == nb.end() || *it != u) {
    throw std::logic_error("Network::port_toward: not a neighbor");
  }
  return static_cast<std::uint32_t>(it - nb.begin());
}

}  // namespace polarstar::sim

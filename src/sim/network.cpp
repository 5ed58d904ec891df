#include "sim/network.h"

#include <algorithm>
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
  // one uint16 matrix (the DistanceMatrix convention: graph::kUnreachable
  // <-> 0xFFFF; no pristine diameter comes near it).
  const std::size_t pairs = static_cast<std::size_t>(n_) * n_;
  dist_.resize(pairs);
  for (Vertex s = 0; s < n_; ++s) {
    for (Vertex d = 0; d < n_; ++d) {
      const std::uint32_t dist = routing_->distance(s, d);
      if (dist != graph::kUnreachable && dist >= 0xFFFFu) {
        throw std::logic_error("Network: routing distance overflows uint16");
      }
      dist_[static_cast<std::size_t>(s) * n_ + d] =
          dist == graph::kUnreachable ? std::uint16_t{0xFFFFu}
                                      : static_cast<std::uint16_t>(dist);
    }
  }

  // Minimal route ports per pair. A distance-minimal routing's candidates
  // are exactly the ports whose neighbor is one hop closer, ascending, so
  // they come straight from dist_; any other routing is asked per pair.
  const bool derive = routing_->next_hops_are_distance_minimal();
  route_ranges_.resize(pairs);
  std::vector<Vertex> hops;
  for (Vertex s = 0; s < n_; ++s) {
    auto nb = topo_->g.neighbors(s);
    const std::uint16_t* row = dist_.data() + static_cast<std::size_t>(s) * n_;
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
    }
    for (Vertex d = 0; d < n_; ++d) {
      const auto begin = static_cast<std::uint32_t>(route_ports_.size());
      if (derive) {
        if (s != d && row[d] != 0xFFFFu) {
          for (std::uint32_t p = 0; p < nb.size(); ++p) {
            if (dist_[static_cast<std::size_t>(nb[p]) * n_ + d] + 1 == row[d]) {
              route_ports_.push_back(static_cast<std::uint16_t>(p));
            }
          }
        }
      } else if (s != d) {
        hops.clear();
        routing_->next_hops(s, d, hops);
        for (Vertex w : hops) {
          route_ports_.push_back(static_cast<std::uint16_t>(port_toward(s, w)));
        }
      }
      if (route_ports_.size() > kMaxIndex) {
        throw std::length_error("Network: route ports exceed uint32 offsets");
      }
      route_ranges_[static_cast<std::size_t>(s) * n_ + d] = {
          begin, static_cast<std::uint32_t>(route_ports_.size())};
    }
  }
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

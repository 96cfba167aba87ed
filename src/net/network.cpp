#include "net/network.hpp"

namespace mic::net {

void Device::attach(Network* network, topo::NodeId node) {
  network_ = network;
  node_ = node;
}

Network::Network(sim::Simulator& simulator, const topo::Graph& graph,
                 LinkConfig default_link, std::uint64_t loss_seed)
    : sim_(simulator), graph_(graph), loss_rng_(loss_seed) {
  devices_.resize(graph.size());
  directions_.resize(2 * graph.link_count());

  // Discover both directions of every link from the adjacency lists.
  for (topo::NodeId n = 0; n < graph.size(); ++n) {
    for (const auto& adj : graph.neighbors(n)) {
      // Each link appears twice (once per endpoint); record the direction
      // n -> adj.peer.  Slot 0 of a link is the direction leaving the lower
      // node id, slot 1 the reverse, which makes indexing deterministic.
      const std::size_t slot = n < adj.peer ? 0 : 1;
      Direction& dir = directions_[2 * adj.link + slot];
      dir.from = n;
      dir.to = adj.peer;
      dir.to_port = adj.peer_port;
      dir.config = default_link;
    }
  }
}

void Network::set_device(topo::NodeId node, std::unique_ptr<Device> device) {
  MIC_ASSERT(node < devices_.size());
  device->attach(this, node);
  devices_[node] = std::move(device);
}

void Network::configure_link(topo::LinkId link, LinkConfig config) {
  MIC_ASSERT(2 * link + 1 < directions_.size());
  directions_[2 * link].config = config;
  directions_[2 * link + 1].config = config;
}

void Network::set_link_up(topo::LinkId link, bool up) {
  MIC_ASSERT(2 * link + 1 < directions_.size());
  if (directions_[2 * link].up == up) return;  // no state change, no event
  directions_[2 * link].up = up;
  directions_[2 * link + 1].up = up;

  // Loss of signal (or its return) is visible at both endpoints' PHYs.
  // Each direction's to_port is the receiving endpoint's port, so the two
  // slots between them cover both attachment points.
  for (const std::size_t slot : {2 * link, 2 * link + 1}) {
    const Direction& dir = directions_[slot];
    if (Device* device = devices_[dir.to].get()) {
      device->on_port_status(dir.to_port, up);
    }
  }
}

void Network::add_link_tap(topo::LinkId link, Tap tap) {
  MIC_ASSERT(2 * link + 1 < directions_.size());
  directions_[2 * link].taps.push_back(tap);
  directions_[2 * link + 1].taps.push_back(std::move(tap));
}

void Network::add_global_tap(Tap tap) {
  global_taps_.push_back(std::move(tap));
}

bool Network::transmit(topo::NodeId node, topo::PortId out_port,
                       Packet packet) {
  MIC_ASSERT(out_port < graph_.port_count(node));
  const topo::Adjacency& adj = graph_.out_port(node, out_port);
  const std::size_t slot = node < adj.peer ? 0 : 1;
  Direction& dir = directions_[2 * adj.link + slot];

  if (!dir.up) {
    ++dir.stats.drops;
    return false;
  }
  if (dir.config.random_drop_probability > 0.0 &&
      loss_rng_.chance(dir.config.random_drop_probability)) {
    ++dir.stats.drops;
    return false;
  }

  const sim::SimTime now = sim_.now();

  // Lazily retire bytes whose serialization finished: this replaces the
  // per-packet tx_done event the pre-wheel engine scheduled.  Occupancy is
  // only ever read right here, so draining the released prefix before the
  // capacity check is equivalent to the eager decrement.
  while (dir.released < dir.in_flight.size() &&
         dir.in_flight[dir.released].tx_done <= now) {
    MIC_ASSERT(dir.queued_bytes >= dir.in_flight[dir.released].wire);
    dir.queued_bytes -= dir.in_flight[dir.released].wire;
    ++dir.released;
  }

  const std::uint32_t wire = packet.wire_bytes();
  if (dir.queued_bytes + wire > dir.config.queue_capacity_bytes) {
    ++dir.stats.drops;
    return false;
  }

  const sim::SimTime start = now > dir.busy_until ? now : dir.busy_until;
  const sim::SimTime tx_done =
      start + sim::transmission_delay(wire, dir.config.bandwidth_bps);
  const sim::SimTime arrival = tx_done + dir.config.propagation_delay;

  dir.busy_until = tx_done;
  dir.queued_bytes += wire;
  ++dir.stats.packets;
  dir.stats.bytes += wire;

  // Taps observe at transmission start: the adversary sees the wire.
  for (const auto& tap : dir.taps) tap(adj.link, node, adj.peer, packet, start);
  for (const auto& tap : global_taps_) {
    tap(adj.link, node, adj.peer, packet, start);
  }

  const auto index = static_cast<std::size_t>(&dir - directions_.data());
  dir.in_flight.push_back(InFlight{std::move(packet), tx_done, arrival, wire});
  // One delivery event per packet, scheduled HERE so the insertion
  // sequence -- and with it the firing order among same-nanosecond events
  // anywhere in the simulation -- is exactly what the pre-batching engine
  // produced.  (A single chained event per direction was measured to
  // reorder same-time ties and change drop decisions; see DESIGN.md §3f.)
  sim_.schedule_at(arrival, [this, index] { deliver(index); });
  return true;
}

void Network::deliver(std::size_t index) {
  Direction& dir = directions_[index];
  const sim::SimTime now = sim_.now();
  // Drain the whole ripe prefix: arrivals are strictly increasing per
  // direction, so normally exactly one packet is ripe per event, but the
  // burst FIFO keeps delivery robust if a callback re-enters transmit().
  while (!dir.in_flight.empty() && dir.in_flight.front().arrival <= now) {
    InFlight entry = std::move(dir.in_flight.front());
    dir.in_flight.pop_front();
    if (dir.released > 0) {
      --dir.released;  // occupancy already debited by a transmit()
    } else {
      MIC_ASSERT(dir.queued_bytes >= entry.wire);  // tx_done <= arrival <= now
      dir.queued_bytes -= entry.wire;
    }
    Device* device = devices_[dir.to].get();
    MIC_ASSERT_MSG(device != nullptr, "packet arrived at node without device");
    device->receive(entry.packet, dir.to_port);
  }
}

std::uint64_t Network::total_drops() const noexcept {
  std::uint64_t drops = 0;
  for (const auto& dir : directions_) drops += dir.stats.drops;
  return drops;
}

}  // namespace mic::net

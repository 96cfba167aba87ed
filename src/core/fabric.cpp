#include "core/fabric.hpp"

#include "switchd/sdn_switch.hpp"

namespace mic::core {

namespace {

/// The leftover engine options only accept the serial engine's values.
void assert_serial_engine(const FabricOptions& options) {
  constexpr const char* kRemoved = "the pod-sharded engine was removed";
  MIC_ASSERT_MSG(options.sim_shards <= 1, kRemoved);
  MIC_ASSERT_MSG(options.sim_threads <= 1, kRemoved);
  MIC_ASSERT_MSG(!options.sim_parallel, kRemoved);
}

/// The wiring both fabrics share: an SDN switch on every switch node, a
/// host on every addressed node, then the MC with (optionally) default
/// routing and failure detection.  Fills `hosts` in `host_addrs` order.
std::unique_ptr<MimicController> wire_fabric(
    net::Network& network, const topo::Graph& graph,
    const std::vector<std::pair<topo::NodeId, net::Ipv4>>& host_addrs,
    const FabricOptions& options, Rng& rng,
    std::vector<transport::Host*>& hosts) {
  assert_serial_engine(options);
  ctrl::HostAddressing addressing;
  for (const topo::NodeId sw : graph.switches()) {
    network.set_device(sw, std::make_unique<switchd::SdnSwitch>());
  }
  for (const auto& [node, ip] : host_addrs) {
    MIC_ASSERT_MSG(graph.is_host(node), "host address on a switch node");
    auto host = std::make_unique<transport::Host>(ip);
    hosts.push_back(host.get());
    addressing.add(node, ip);
    network.set_device(node, std::move(host));
  }
  auto mc = std::make_unique<MimicController>(
      network, std::move(addressing), rng.next(), options.mic,
      options.controller);
  if (options.install_default_routing) mc->install_default_routing();
  // Loss of signal anywhere in the fabric reaches the MC by itself; the
  // harness only has to flip links, never to report them.
  mc->enable_failure_detection();
  return mc;
}

}  // namespace

Fabric::Fabric(FabricOptions options)
    : options_(options),
      fattree_(options.k),
      network_(simulator_, fattree_.graph(), options.link),
      rng_(options.seed) {
  std::vector<std::pair<topo::NodeId, net::Ipv4>> host_addrs;
  for (const topo::NodeId h : fattree_.hosts()) {
    host_addrs.emplace_back(h, net::Ipv4{fattree_.host_ip(h)});
  }
  mc_ = wire_fabric(network_, fattree_.graph(), host_addrs, options_, rng_,
                    hosts_);
}

GenericFabric::GenericFabric(
    const topo::Graph& graph,
    std::vector<std::pair<topo::NodeId, net::Ipv4>> host_addrs,
    FabricOptions options)
    : host_addrs_(std::move(host_addrs)),
      network_(simulator_, graph, options.link),
      rng_(options.seed) {
  mc_ = wire_fabric(network_, graph, host_addrs_, options, rng_, hosts_);
}

}  // namespace mic::core

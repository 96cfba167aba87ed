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

}  // namespace

Fabric::Fabric(FabricOptions options)
    : options_(options),
      fattree_(options.k),
      network_(simulator_, fattree_.graph(), options.link),
      rng_(options.seed) {
  assert_serial_engine(options_);
  ctrl::HostAddressing addressing;
  for (const topo::NodeId sw : fattree_.graph().switches()) {
    network_.set_device(sw, std::make_unique<switchd::SdnSwitch>());
  }
  for (const topo::NodeId h : fattree_.hosts()) {
    const net::Ipv4 ip{fattree_.host_ip(h)};
    auto host = std::make_unique<transport::Host>(ip);
    hosts_.push_back(host.get());
    addressing.add(h, ip);
    network_.set_device(h, std::move(host));
  }
  mc_ = std::make_unique<MimicController>(network_, std::move(addressing),
                                          rng_.next(), options_.mic,
                                          options_.controller);
  if (options_.install_default_routing) {
    mc_->install_default_routing();
  }
  // Loss of signal anywhere in the fabric reaches the MC by itself; the
  // harness only has to flip links, never to report them.
  mc_->enable_failure_detection();
}

GenericFabric::GenericFabric(
    const topo::Graph& graph,
    std::vector<std::pair<topo::NodeId, net::Ipv4>> host_addrs,
    FabricOptions options)
    : host_addrs_(std::move(host_addrs)),
      network_(simulator_, graph, options.link),
      rng_(options.seed) {
  assert_serial_engine(options);
  ctrl::HostAddressing addressing;
  for (const topo::NodeId sw : graph.switches()) {
    network_.set_device(sw, std::make_unique<switchd::SdnSwitch>());
  }
  for (const auto& [node, ip] : host_addrs_) {
    MIC_ASSERT_MSG(graph.is_host(node), "host address on a switch node");
    auto host = std::make_unique<transport::Host>(ip);
    hosts_.push_back(host.get());
    addressing.add(node, ip);
    network_.set_device(node, std::move(host));
  }
  mc_ = std::make_unique<MimicController>(network_, std::move(addressing),
                                          rng_.next(), options.mic,
                                          options.controller);
  if (options.install_default_routing) {
    mc_->install_default_routing();
  }
  mc_->enable_failure_detection();
}

}  // namespace mic::core

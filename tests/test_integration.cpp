// Cross-module integration tests: determinism of full runs, mixed
// workloads, restrictions consistency, fabric assembly.
#include <gtest/gtest.h>

#include "core/collision_audit.hpp"
#include "core/fabric.hpp"
#include "topology/leafspine.hpp"
#include "core/mic_client.hpp"
#include "transport/apps.hpp"

namespace mic {
namespace {

using core::Fabric;
using core::FabricOptions;

TEST(Fabric, AssemblesPaperTestbed) {
  Fabric fabric;
  EXPECT_EQ(fabric.host_count(), 16u);
  // Every host has an IP and a device.
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    EXPECT_EQ(fabric.host(i).ip(), fabric.ip(i));
  }
  // Default routing was installed on every switch.
  for (const topo::NodeId sw : fabric.network().graph().switches()) {
    EXPECT_GT(fabric.mc().switch_at(sw)->table().rule_count(), 0u);
  }
}

TEST(Fabric, CommonFlowsTaggedCfOnFabricLinks) {
  // Common traffic carries a CF label while transiting (and none on the
  // access links).
  Fabric fabric;
  bool saw_tagged = false;
  fabric.network().add_global_tap([&](topo::LinkId, topo::NodeId from,
                                      topo::NodeId to, const net::Packet& p,
                                      sim::SimTime) {
    const auto& graph = fabric.network().graph();
    if (graph.is_switch(from) && graph.is_switch(to) &&
        p.mpls != net::kNoMpls) {
      saw_tagged = true;
      EXPECT_EQ(fabric.mc().registry().class_of_label(p.mpls),
                fabric.mc().registry().c_id());
    }
    if (graph.is_host(to)) {
      EXPECT_EQ(p.mpls, net::kNoMpls);  // popped before delivery
    }
  });

  std::uint64_t received = 0;
  fabric.host(12).listen(6000, [&](transport::TcpConnection& conn) {
    conn.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });
  auto& conn = fabric.host(0).connect(fabric.ip(12), 6000);
  conn.set_on_ready([&] { conn.send(transport::Chunk::virtual_bytes(65536)); });
  fabric.simulator().run_until();
  EXPECT_EQ(received, 65536u);
  EXPECT_TRUE(saw_tagged);
}

TEST(Determinism, IdenticalSeedsIdenticalTraces) {
  // SIM-1: two runs with the same seed produce identical packet traces.
  auto run_trace = [](std::uint64_t seed) {
    FabricOptions options;
    options.seed = seed;
    Fabric fabric(options);
    std::vector<std::uint64_t> trace;
    fabric.network().add_global_tap(
        [&](topo::LinkId link, topo::NodeId from, topo::NodeId,
            const net::Packet& p, sim::SimTime t) {
          trace.push_back(t ^ (static_cast<std::uint64_t>(link) << 40) ^
                          (static_cast<std::uint64_t>(from) << 48) ^
                          p.src.value ^ p.dst.value ^ p.mpls);
        });
    core::MicServer server(fabric.host(12), 7000, fabric.rng());
    core::MicChannelOptions channel_options;
    channel_options.responder_ip = fabric.ip(12);
    channel_options.responder_port = 7000;
    channel_options.flow_count = 2;
    core::MicChannel channel(fabric.host(0), fabric.mc(), channel_options,
                             fabric.rng());
    channel.send(transport::Chunk::virtual_bytes(128 * 1024));
    fabric.simulator().run_until();
    return trace;
  };

  const auto a = run_trace(777);
  const auto b = run_trace(777);
  EXPECT_EQ(a, b);
  const auto c = run_trace(778);
  EXPECT_NE(a, c);
}

TEST(Determinism, QuickstartScenarioTracesAndStatsReproduce) {
  // SIM-1 regression on the full quickstart lifecycle (bring-up, channel
  // establishment, ping/pong, teardown): identical seeds must reproduce
  // not just the packet trace but every per-switch observable -- forwarded
  // and dropped counts and the two-tier table's lookup stats.  A lookup
  // tier gone nondeterministic (e.g. hash-order dependent) would show up
  // here even if packets still flowed.
  struct RunResult {
    std::vector<std::uint64_t> trace;
    std::vector<std::uint64_t> switch_stats;
    std::string reply;
    bool operator==(const RunResult&) const = default;
  };
  auto run_quickstart = [](std::uint64_t seed) {
    FabricOptions options;
    options.seed = seed;
    Fabric fabric(options);
    RunResult result;
    fabric.network().add_global_tap(
        [&](topo::LinkId link, topo::NodeId from, topo::NodeId to,
            const net::Packet& p, sim::SimTime t) {
          result.trace.push_back(
              t ^ (static_cast<std::uint64_t>(link) << 36) ^
              (static_cast<std::uint64_t>(from) << 44) ^
              (static_cast<std::uint64_t>(to) << 52) ^ p.src.value ^
              (static_cast<std::uint64_t>(p.dst.value) << 8) ^ p.mpls ^
              (static_cast<std::uint64_t>(p.sport) << 16) ^ p.dport);
        });

    core::MicServer server(fabric.host(12), 7000, fabric.rng());
    server.set_on_channel([](core::MicServerChannel& channel) {
      channel.set_on_data([&channel](const transport::ChunkView&) {
        channel.send(transport::Chunk::real({'p', 'o', 'n', 'g'}));
      });
    });

    core::MicChannelOptions channel_options;
    channel_options.responder_ip = fabric.ip(12);
    channel_options.responder_port = 7000;
    channel_options.mn_count = 3;
    core::MicChannel channel(fabric.host(0), fabric.mc(), channel_options,
                             fabric.rng());
    channel.set_on_data([&](const transport::ChunkView& view) {
      result.reply.assign(view.bytes.begin(), view.bytes.end());
    });
    channel.send(transport::Chunk::real({'p', 'i', 'n', 'g'}));
    fabric.simulator().run_until();
    channel.close();
    fabric.simulator().run_until();

    for (const topo::NodeId sw : fabric.network().graph().switches()) {
      const auto* dev = fabric.mc().switch_at(sw);
      const switchd::TableStats& stats = dev->table_stats();
      result.switch_stats.insert(
          result.switch_stats.end(),
          {dev->forwarded(), dev->dropped(), dev->table().rule_count(),
           stats.lookups, stats.index_hits, stats.scan_fallbacks,
           stats.misses});
    }
    const switchd::TableStats total = fabric.mc().aggregate_table_stats();
    EXPECT_EQ(total.lookups,
              total.index_hits + total.scan_fallbacks + total.misses);
    // The m-flow data path must actually ride the exact-match index.
    EXPECT_GT(total.index_hits, 0u);
    return result;
  };

  const RunResult a = run_quickstart(4242);
  const RunResult b = run_quickstart(4242);
  EXPECT_EQ(a.reply, "pong");
  EXPECT_TRUE(a == b) << "same-seed quickstart runs diverged";
  const RunResult c = run_quickstart(4243);
  EXPECT_NE(a.trace, c.trace);
}

TEST(Integration, ManyMimicChannelsConcurrently) {
  Fabric fabric;
  std::vector<std::unique_ptr<core::MicServer>> servers;
  std::vector<std::uint64_t> received(4, 0);
  for (int s = 0; s < 4; ++s) {
    auto server = std::make_unique<core::MicServer>(
        fabric.host(static_cast<std::size_t>(12 + s)), 7000, fabric.rng());
    server->set_on_channel([&received, s](core::MicServerChannel& channel) {
      channel.set_on_data(
          [&received, s](const transport::ChunkView& view) {
            received[static_cast<std::size_t>(s)] += view.length;
          });
    });
    servers.push_back(std::move(server));
  }

  std::vector<std::unique_ptr<core::MicChannel>> channels;
  for (int c = 0; c < 4; ++c) {
    core::MicChannelOptions options;
    options.responder_ip = fabric.ip(static_cast<std::size_t>(12 + c));
    options.responder_port = 7000;
    options.flow_count = 1 + c % 3;
    channels.push_back(std::make_unique<core::MicChannel>(
        fabric.host(static_cast<std::size_t>(c)), fabric.mc(), options,
        fabric.rng()));
    channels.back()->send(transport::Chunk::virtual_bytes(256 * 1024));
  }
  fabric.simulator().run_until();

  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(received[static_cast<std::size_t>(s)], 256u * 1024u)
        << "server " << s;
  }
  EXPECT_TRUE(core::audit_collisions(fabric.mc()).ok);
}

TEST(Integration, RestrictionsMatchActualRouting) {
  // Every destination the L3 routing sends out a port must be in that
  // port's allowed_dst set (the restriction sets are supersets of real
  // routing behaviour, so m-addresses are indistinguishable from real
  // destinations).
  Fabric fabric;
  const auto& restrictions = fabric.mc().restrictions();
  const auto& graph = fabric.network().graph();
  for (const topo::NodeId sw : graph.switches()) {
    for (const auto& rule : fabric.mc().switch_at(sw)->table().rules()) {
      if (rule.priority != ctrl::kPriorityTransit || !rule.match.dst) continue;
      for (const auto& action : rule.actions) {
        if (const auto* out = std::get_if<switchd::Output>(&action)) {
          const auto& allowed = restrictions.allowed_dst(sw, out->port);
          EXPECT_NE(std::find(allowed.begin(), allowed.end(), *rule.match.dst),
                    allowed.end())
              << "switch " << sw << " routes " << rule.match.dst->str()
              << " out port " << out->port
              << " but the restriction set disallows it";
        }
      }
    }
  }
}

TEST(Integration, BigFatTreeFabricWorks) {
  FabricOptions options;
  options.k = 6;  // 54 hosts, 45 switches
  Fabric fabric(options);
  core::MicServer server(fabric.host(53), 7000, fabric.rng());
  std::uint64_t received = 0;
  server.set_on_channel([&](core::MicServerChannel& channel) {
    channel.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });
  core::MicChannelOptions channel_options;
  channel_options.responder_ip = fabric.ip(53);
  channel_options.responder_port = 7000;
  channel_options.mn_count = 5;
  core::MicChannel channel(fabric.host(0), fabric.mc(), channel_options,
                           fabric.rng());
  channel.send(transport::Chunk::virtual_bytes(64 * 1024));
  fabric.simulator().run_until();
  EXPECT_EQ(received, 64u * 1024u);
  EXPECT_TRUE(core::audit_collisions(fabric.mc()).ok);
}



TEST(FabricOptions, LinkConfigPropagates) {
  // A 100 Mb/s fabric caps a single flow's goodput accordingly.
  FabricOptions options;
  options.link.bandwidth_bps = 100'000'000;
  Fabric fabric(options);
  std::unique_ptr<transport::BulkSink> sink;
  constexpr std::uint64_t kBytes = 1024 * 1024;
  fabric.host(12).listen(6000, [&](transport::TcpConnection& conn) {
    sink = std::make_unique<transport::BulkSink>(conn, fabric.simulator(),
                                                 kBytes);
  });
  auto& conn = fabric.host(0).connect(fabric.ip(12), 6000);
  conn.set_on_ready([&] { conn.send(transport::Chunk::virtual_bytes(kBytes)); });
  fabric.simulator().run_until();
  ASSERT_TRUE(sink != nullptr && sink->finished());
  EXPECT_LT(sink->goodput_bps(), 100e6);
  EXPECT_GT(sink->goodput_bps(), 70e6);
}

TEST(FabricOptions, ControlLatencyShapesSetupTime) {
  FabricOptions slow;
  slow.mic.control_latency = sim::milliseconds(2);
  Fabric fabric(slow);
  core::MicServer server(fabric.host(12), 7000, fabric.rng());
  core::MicChannelOptions options;
  options.responder_ip = fabric.ip(12);
  options.responder_port = 7000;
  core::MicChannel channel(fabric.host(0), fabric.mc(), options,
                           fabric.rng());
  fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());
  // Two control-channel traversals alone cost 4 ms.
  EXPECT_GT(channel.setup_time(), sim::milliseconds(4));
}

TEST(Apps, BulkSinkGoodputMath) {
  // Synthetic: drive the sink with a hand-rolled stream.
  class FakeStream : public transport::ByteStream {
   public:
    void send(transport::Chunk) override {}
    void close() override {}
    bool ready() const override { return true; }
    void feed(std::uint64_t n) { notify_data({n, {}}); }
  };
  sim::Simulator simulator;
  FakeStream stream;
  transport::BulkSink sink(stream, simulator, 3000);
  simulator.schedule_at(sim::milliseconds(1), [&] { stream.feed(1000); });
  simulator.schedule_at(sim::milliseconds(4), [&] { stream.feed(2000); });
  simulator.run_until();
  ASSERT_TRUE(sink.finished());
  EXPECT_EQ(sink.first_byte_at(), sim::milliseconds(1));
  EXPECT_EQ(sink.finished_at(), sim::milliseconds(4));
  // 3000 bytes over 3 ms = 8 Mb/s.
  EXPECT_DOUBLE_EQ(sink.goodput_bps(), 8e6);
}

TEST(CostModel, HelpersComposeLinearly) {
  const crypto::CostModel& costs = crypto::default_cost_model();
  EXPECT_DOUBLE_EQ(
      costs.stream_crypt_cycles(1000),
      costs.chacha20_cpb * 1000 + costs.hmac_fixed_cycles);
  EXPECT_DOUBLE_EQ(costs.aes_crypt_cycles(64), costs.aes128_cpb * 64);
  EXPECT_GT(costs.dh_modexp_cycles, 1e6);  // asymmetric >> symmetric
  EXPECT_GT(costs.dh_modexp_cycles, 100 * costs.switch_lookup_cycles);
}

TEST(LeafSpine, StructureAndAddressing) {
  const topo::LeafSpine ls(4, 6, 8);
  EXPECT_EQ(ls.spine_count(), 4);
  EXPECT_EQ(ls.leaf_count(), 6);
  EXPECT_EQ(ls.hosts().size(), 48u);
  // Leaves: hosts_per_leaf + spines ports; spines: one port per leaf.
  for (const topo::NodeId leaf : ls.leaf_switches()) {
    EXPECT_EQ(ls.graph().port_count(leaf), 12u);
  }
  for (const topo::NodeId spine : ls.spine_switches()) {
    EXPECT_EQ(ls.graph().port_count(spine), 6u);
  }
  const topo::PathEngine paths(ls.graph());
  // Host to host across leaves: host-leaf-spine-leaf-host = 4 links.
  EXPECT_EQ(paths.distance(ls.hosts()[0], ls.hosts()[47]), 4u);
}

TEST(GenericFabric, MicRunsOnLeafSpine) {
  // MIC on a non-fat-tree topology: everything (paths, restrictions,
  // MAGA, routing, slicing) works unchanged.
  static const topo::LeafSpine ls(3, 4, 4);  // 16 hosts
  std::vector<std::pair<topo::NodeId, net::Ipv4>> addrs;
  for (const topo::NodeId h : ls.hosts()) {
    addrs.push_back({h, net::Ipv4{ls.host_ip(h)}});
  }
  core::GenericFabric fabric(ls.graph(), addrs);

  core::MicServer server(fabric.host(12), 7000, fabric.rng());
  std::uint64_t received = 0;
  server.set_on_channel([&](core::MicServerChannel& channel) {
    channel.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });

  core::MicChannelOptions options;
  options.responder_ip = fabric.ip(12);
  options.responder_port = 7000;
  options.mn_count = 3;
  options.flow_count = 2;
  core::MicChannel channel(fabric.host(0), fabric.mc(), options,
                           fabric.rng());

  // Unlinkability holds on the new topology too.
  std::uint64_t linking = 0;
  const net::Ipv4 a = fabric.ip(0), b = fabric.ip(12);
  fabric.network().add_global_tap(
      [&](topo::LinkId, topo::NodeId, topo::NodeId, const net::Packet& p,
          sim::SimTime) {
        linking += (p.src == a || p.dst == a) && (p.src == b || p.dst == b);
      });

  channel.send(transport::Chunk::virtual_bytes(256 * 1024));
  fabric.simulator().run_until();
  EXPECT_EQ(received, 256u * 1024u);
  EXPECT_EQ(linking, 0u);
  EXPECT_TRUE(core::audit_collisions(fabric.mc()).ok);
}

TEST(FabricDeathTest, RejectsShardedEngineOptions) {
  // One serial engine: the leftover sharding options abort at
  // construction instead of being silently ignored.
  FabricOptions shards;
  shards.sim_shards = 2;
  EXPECT_DEATH({ Fabric fabric(shards); }, "sim_shards <= 1");
  FabricOptions threads;
  threads.sim_threads = 4;
  EXPECT_DEATH({ Fabric fabric(threads); }, "sim_threads <= 1");
  FabricOptions parallel;
  parallel.sim_parallel = true;
  EXPECT_DEATH({ Fabric fabric(parallel); }, "!options.sim_parallel");
}

TEST(GenericFabricDeathTest, RejectsShardedEngineOptions) {
  static const topo::LeafSpine ls(2, 2, 2);
  std::vector<std::pair<topo::NodeId, net::Ipv4>> addrs;
  for (const topo::NodeId h : ls.hosts()) {
    addrs.push_back({h, net::Ipv4{ls.host_ip(h)}});
  }
  FabricOptions shards;
  shards.sim_shards = 2;
  EXPECT_DEATH({ core::GenericFabric fabric(ls.graph(), addrs, shards); },
               "sim_shards <= 1");
  FabricOptions threads;
  threads.sim_threads = 4;
  EXPECT_DEATH({ core::GenericFabric fabric(ls.graph(), addrs, threads); },
               "sim_threads <= 1");
  FabricOptions parallel;
  parallel.sim_parallel = true;
  EXPECT_DEATH({ core::GenericFabric fabric(ls.graph(), addrs, parallel); },
               "!options.sim_parallel");
}

}  // namespace
}  // namespace mic

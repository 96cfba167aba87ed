// Macro dataplane benchmark: end-to-end packet-hops per second of
// wall-clock time on a fat-tree carrying MIC channels.
//
// The workload is steady-state bulk forwarding: channels are established,
// a warm-up transfer fills TCP windows and the payload arena, then the
// measured bulk phase runs.  The bench reports the arena counters across
// the measured phase -- steady-state slicing must allocate nothing
// (`arena_allocs` stays 0 while `arena_reuses` grows).
//
//   --smoke               tiny k=4 run + invariant checks (CI)
//   --k N                 fat-tree arity (default 8)
//   --flows N             concurrent MIC channels (default 8)
//   --mb N                MiB per flow in the measured phase (default 4)
//   --reps N              best-of-N (noise control)
//   --json PATH           write the best run as JSON
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "transport/apps.hpp"
#include "transport/arena.hpp"

namespace {

using mic::core::Fabric;
using mic::core::FabricOptions;
using mic::core::MicChannel;
using mic::core::MicChannelOptions;
using mic::core::MicServer;

struct RunConfig {
  int k = 8;
  int flows = 8;
  std::uint64_t bytes_per_flow = 4ull << 20;
  std::uint64_t seed = 42;
};

struct RunResult {
  bool ok = false;
  double wall_s = 0.0;
  double pps = 0.0;            // packet-hops per wall-clock second
  std::uint64_t packets = 0;   // packet-hops in the measured phase
  std::uint64_t sim_ns = 0;    // simulated time the phase covered
  std::uint64_t arena_allocs = 0;  // heap allocations in the measured phase
  std::uint64_t arena_reuses = 0;  // arena refills in the measured phase
};

std::uint64_t total_link_packets(mic::net::Network& network) {
  std::uint64_t packets = 0;
  const std::size_t links = network.graph().link_count();
  for (std::size_t l = 0; l < links; ++l) {
    packets += network.stats(static_cast<mic::topo::LinkId>(l), 0).packets;
    packets += network.stats(static_cast<mic::topo::LinkId>(l), 1).packets;
  }
  return packets;
}

RunResult run_one(const RunConfig& config) {
  RunResult result;
  FabricOptions options;
  options.k = config.k;
  options.seed = config.seed;
  Fabric fabric(options);
  auto& simulator = fabric.simulator();

  // Clients in the lower half of the pods, servers in the upper half:
  // every channel crosses pods, so the bulk phase exercises edge,
  // aggregation AND core links.
  const std::size_t hosts = fabric.host_count();
  std::vector<std::unique_ptr<MicServer>> servers;
  std::vector<std::unique_ptr<MicChannel>> channels;
  std::vector<std::unique_ptr<mic::transport::BulkSink>> sinks;
  // Warm-up must reach the measured phase's in-flight high-water mark or
  // the arena pool keeps growing (= allocating) into the measurement.
  const std::uint64_t warm_bytes =
      std::max<std::uint64_t>(256 * 1024, config.bytes_per_flow / 2);
  const std::uint64_t sink_bytes = warm_bytes + config.bytes_per_flow;
  for (int i = 0; i < config.flows; ++i) {
    const std::size_t client = static_cast<std::size_t>(i) % (hosts / 2);
    const std::size_t server =
        hosts / 2 + static_cast<std::size_t>(i) % (hosts / 2);
    const mic::net::L4Port port = static_cast<mic::net::L4Port>(7000 + i);
    servers.push_back(std::make_unique<MicServer>(fabric.host(server), port,
                                                  fabric.rng()));
    servers.back()->set_on_channel(
        [&sinks, &simulator, sink_bytes](mic::core::MicServerChannel& ch) {
          sinks.push_back(std::make_unique<mic::transport::BulkSink>(
              ch, simulator, sink_bytes));
        });
    MicChannelOptions mic_options;
    mic_options.responder_ip = fabric.ip(server);
    mic_options.responder_port = port;
    mic_options.mn_count = 3;
    mic_options.flow_count = 2;
    channels.push_back(std::make_unique<MicChannel>(
        fabric.host(client), fabric.mc(), mic_options, fabric.rng()));
  }
  simulator.run_until();
  for (const auto& channel : channels) {
    if (!channel->ready()) {
      std::fprintf(stderr, "macro_dataplane: channel setup failed\n");
      return result;
    }
  }

  // Warm-up: fill TCP windows, fault in server channels, charge the
  // payload arena so the measured phase sees the steady state.
  for (const auto& channel : channels) {
    channel->send(mic::transport::Chunk::virtual_bytes(warm_bytes));
  }
  simulator.run_until();

  const auto arena_before = mic::transport::PayloadArena::local().stats();
  const std::uint64_t packets_before = total_link_packets(fabric.network());
  const std::uint64_t sim_before = simulator.now();

  const auto wall_start = std::chrono::steady_clock::now();
  for (const auto& channel : channels) {
    channel->send(
        mic::transport::Chunk::virtual_bytes(config.bytes_per_flow));
  }
  simulator.run_until();
  const auto wall_end = std::chrono::steady_clock::now();

  if (sinks.size() != static_cast<std::size_t>(config.flows)) {
    std::fprintf(stderr, "macro_dataplane: only %zu/%d channels delivered\n",
                 sinks.size(), config.flows);
    return result;
  }
  for (const auto& sink : sinks) {
    if (!sink->finished()) {
      std::fprintf(stderr, "macro_dataplane: bulk transfer incomplete\n");
      return result;
    }
  }

  const auto arena_after = mic::transport::PayloadArena::local().stats();
  result.packets = total_link_packets(fabric.network()) - packets_before;
  result.sim_ns = simulator.now() - sim_before;
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.pps = result.wall_s > 0
                   ? static_cast<double>(result.packets) / result.wall_s
                   : 0.0;
  result.arena_allocs = arena_after.allocations - arena_before.allocations;
  result.arena_reuses = arena_after.reuses - arena_before.reuses;
  result.ok = true;
  return result;
}

void print_result(const RunResult& result) {
  std::printf(
      "pps=%.0f  packets=%llu  wall=%.3fs  sim=%.3fms  arena_allocs=%llu  "
      "arena_reuses=%llu\n",
      result.pps, static_cast<unsigned long long>(result.packets),
      result.wall_s, static_cast<double>(result.sim_ns) / 1e6,
      static_cast<unsigned long long>(result.arena_allocs),
      static_cast<unsigned long long>(result.arena_reuses));
}

int run_smoke() {
  // Tiny but complete: the same k=4 run twice in one process.  The two
  // runs must move the exact same packets in the same simulated time
  // (SIM-1 determinism), and the second, which starts with a warm
  // payload arena, must not allocate in its steady state.
  RunConfig config;
  config.k = 4;
  config.flows = 4;
  config.bytes_per_flow = 1 << 20;

  const RunResult first = run_one(config);
  const RunResult second = run_one(config);
  print_result(first);
  print_result(second);
  if (!first.ok || !second.ok) return 1;
  if (first.packets != second.packets || first.sim_ns != second.sim_ns) {
    std::fprintf(stderr,
                 "smoke: repeated run diverged (%llu vs %llu packet-hops)\n",
                 static_cast<unsigned long long>(first.packets),
                 static_cast<unsigned long long>(second.packets));
    return 1;
  }
  if (second.arena_allocs != 0 || second.arena_reuses == 0) {
    std::fprintf(stderr,
                 "smoke: steady state allocated (%llu allocs, %llu reuses)\n",
                 static_cast<unsigned long long>(second.arena_allocs),
                 static_cast<unsigned long long>(second.arena_reuses));
    return 1;
  }
  std::printf("smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 1;
  std::string json;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--k") == 0) {
      config.k = std::atoi(next("--k"));
    } else if (std::strcmp(argv[i], "--flows") == 0) {
      config.flows = std::atoi(next("--flows"));
    } else if (std::strcmp(argv[i], "--mb") == 0) {
      config.bytes_per_flow =
          static_cast<std::uint64_t>(std::atoi(next("--mb"))) << 20;
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::max(1, std::atoi(next("--reps")));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = next("--json");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) return run_smoke();

  std::printf("# macro_dataplane: k=%d, %d MIC channels, %llu MiB each\n",
              config.k, config.flows,
              static_cast<unsigned long long>(config.bytes_per_flow >> 20));
  RunResult best;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult result = run_one(config);
    if (!result.ok) return 1;
    if (result.pps > best.pps) best = result;
  }
  print_result(best);

  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"macro_dataplane\",\n");
    std::fprintf(f, "  \"k\": %d,\n  \"flows\": %d,\n", config.k,
                 config.flows);
    std::fprintf(f, "  \"bytes_per_flow\": %llu,\n",
                 static_cast<unsigned long long>(config.bytes_per_flow));
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(
        f,
        "  \"pps\": %.0f,\n  \"packets\": %llu,\n  \"wall_s\": %.6f,\n"
        "  \"sim_ns\": %llu,\n  \"arena_allocs\": %llu,\n"
        "  \"arena_reuses\": %llu\n}\n",
        best.pps, static_cast<unsigned long long>(best.packets), best.wall_s,
        static_cast<unsigned long long>(best.sim_ns),
        static_cast<unsigned long long>(best.arena_allocs),
        static_cast<unsigned long long>(best.arena_reuses));
    std::fclose(f);
    std::printf("# wrote %s\n", json.c_str());
  }
  return 0;
}

// The four MIC benchmark workloads.  Each builds its inputs from the seed,
// drives the simulator through its public API, times the calls from here,
// checks the outputs outside the timed region, and fills a WorkloadResult.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/channel.hpp"
#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the per-seed outcome records and the trace file.
  std::string out_dir = ".";
};

struct Workload {
  const char* name;
  const char* why;
  WorkloadResult (*run)(const RunOptions&, Tracer&);
};

const std::vector<Workload>& workloads();

/// The seeded establish-request sequence of the control-plane workloads:
/// request i joins a random pair of distinct hosts with one m-flow (F=1)
/// through three MNs (N=3).  Each initiator binds fresh source ports in
/// turn, so no two live channels share an endpoint.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::vector<mic::net::Ipv4> hosts);

  mic::core::EstablishRequest next();

 private:
  mic::Rng rng_;
  std::vector<mic::net::Ipv4> hosts_;
  std::vector<std::uint32_t> ports_used_;  // per initiator
};

/// Seeded cross-pod client/server pairs over the first and second half of
/// `host_count` hosts (on a fat-tree, the lower and upper pods).
std::vector<std::pair<std::size_t, std::size_t>> cross_pod_pairs(
    std::uint64_t seed, std::size_t host_count, std::size_t pairs);

}  // namespace perfbench

// Micro-benchmark: flow-table lookup cost vs rule count, two-tier
// exact-match index vs the reference linear scan (google-benchmark).
//
// Rules are shaped like the Mimic Controller's m-flow rewrites: fully
// specified <in_port, src, dst, sport, dport, mpls> matches, the load that
// scales with channel count, plus a low-priority wildcard catch-all like
// the L3 tier.  Lookups cycle over packets that hit distinct rules, so the
// scan pays its average-depth cost instead of always winning on rule 0.
//
//   micro_flowtable               # google-benchmark tables
//   micro_flowtable --sweep_json  # machine-readable sweep for the bench
//                                 # trajectory: one JSON object on stdout
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "switchd/flow_table.hpp"

namespace {

using namespace mic::switchd;

struct BenchTable {
  FlowTable table;
  std::vector<mic::net::Packet> packets;  // packets[i] hits rule i exactly
};

BenchTable build_exact_table(int rules, mic::Rng& rng) {
  BenchTable bench;
  for (int i = 0; i < rules; ++i) {
    FlowRule rule;
    rule.priority = 100;
    rule.match.in_port = 0;
    rule.match.src = mic::net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    rule.match.dst = mic::net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    rule.match.sport = static_cast<mic::net::L4Port>(rng.next());
    rule.match.dport = static_cast<mic::net::L4Port>(rng.next());
    rule.match.mpls = static_cast<std::uint32_t>(rng.next()) | 1;
    rule.actions = {Output{1}};

    mic::net::Packet packet;
    packet.src = *rule.match.src;
    packet.dst = *rule.match.dst;
    packet.sport = *rule.match.sport;
    packet.dport = *rule.match.dport;
    packet.mpls = *rule.match.mpls;
    packet.tcp.payload_len = 64;
    if (bench.table.add(std::move(rule))) {
      bench.packets.push_back(packet);
    }
  }
  // The low-priority wildcard tier underneath (L3-style catch-all).
  FlowRule fallback;
  fallback.priority = 1;
  fallback.actions = {Output{0}};
  bench.table.add(std::move(fallback));
  return bench;
}

void BM_FlowTableLookupIndexed(benchmark::State& state) {
  mic::Rng rng(7);
  BenchTable bench = build_exact_table(static_cast<int>(state.range(0)), rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = bench.packets[i++ % bench.packets.size()];
    benchmark::DoNotOptimize(bench.table.lookup(p, 0, p.wire_bytes()));
  }
  state.counters["index_hits"] =
      static_cast<double>(bench.table.stats().index_hits);
  state.counters["scan_fallbacks"] =
      static_cast<double>(bench.table.stats().scan_fallbacks);
}
BENCHMARK(BM_FlowTableLookupIndexed)->Arg(16)->Arg(256)->Arg(4096);

void BM_FlowTableLookupReference(benchmark::State& state) {
  mic::Rng rng(7);
  BenchTable bench = build_exact_table(static_cast<int>(state.range(0)), rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = bench.packets[i++ % bench.packets.size()];
    benchmark::DoNotOptimize(bench.table.reference_lookup(p, 0));
  }
}
BENCHMARK(BM_FlowTableLookupReference)->Arg(16)->Arg(256)->Arg(4096);

void BM_FlowTableLookupMissToWildcard(benchmark::State& state) {
  // The worst case for the two-tier design: index miss, then the wildcard
  // scan serves the catch-all.  Stays O(wildcard rules), not O(all rules).
  mic::Rng rng(7);
  BenchTable bench = build_exact_table(static_cast<int>(state.range(0)), rng);
  mic::net::Packet packet;
  packet.src = mic::net::Ipv4(10, 0, 0, 1);
  packet.dst = mic::net::Ipv4(10, 0, 0, 2);
  packet.tcp.payload_len = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.table.lookup(packet, 0,
                                                packet.wire_bytes()));
  }
}
BENCHMARK(BM_FlowTableLookupMissToWildcard)->Arg(16)->Arg(256)->Arg(4096);

void BM_FlowTableInstall(benchmark::State& state) {
  mic::Rng rng(8);
  for (auto _ : state) {
    state.PauseTiming();
    FlowTable table;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      FlowRule rule;
      rule.priority = static_cast<std::uint16_t>(rng.below(200));
      rule.match.mpls = static_cast<std::uint32_t>(rng.next()) | 1;
      rule.actions = {Output{1}};
      benchmark::DoNotOptimize(table.add(std::move(rule)));
    }
  }
}
BENCHMARK(BM_FlowTableInstall)->Arg(64)->Arg(256);

/// Self-timed sweep, one JSON object on stdout: rule-count trajectory of
/// indexed vs reference lookup cost and the resulting speedup, plus the
/// table's own stats counters so the fast-path share is auditable.
int run_sweep_json() {
  constexpr int kRuleCounts[] = {16, 256, 4096};
  constexpr int kLookups = 200000;
  using clock = std::chrono::steady_clock;

  std::printf("{\"bench\":\"micro_flowtable\",\"lookups_per_point\":%d,"
              "\"series\":[",
              kLookups);
  bool first = true;
  for (const int rules : kRuleCounts) {
    mic::Rng rng(7);
    BenchTable bench = build_exact_table(rules, rng);

    const FlowRule* sink = nullptr;
    auto t0 = clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto& p = bench.packets[static_cast<std::size_t>(i) %
                                    bench.packets.size()];
      sink = bench.table.reference_lookup(p, 0);
      benchmark::DoNotOptimize(sink);
    }
    const double ref_ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
        kLookups;

    t0 = clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto& p = bench.packets[static_cast<std::size_t>(i) %
                                    bench.packets.size()];
      sink = bench.table.lookup(p, 0, p.wire_bytes());
      benchmark::DoNotOptimize(sink);
    }
    const double idx_ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
        kLookups;

    const TableStats& stats = bench.table.stats();
    std::printf("%s{\"rules\":%d,\"indexed_rules\":%zu,"
                "\"reference_ns_per_lookup\":%.2f,"
                "\"indexed_ns_per_lookup\":%.2f,\"speedup\":%.2f,"
                "\"lookups\":%llu,\"index_hits\":%llu,"
                "\"scan_fallbacks\":%llu,\"misses\":%llu}",
                first ? "" : ",", rules, bench.table.indexed_rule_count(),
                ref_ns, idx_ns, ref_ns / idx_ns,
                static_cast<unsigned long long>(stats.lookups),
                static_cast<unsigned long long>(stats.index_hits),
                static_cast<unsigned long long>(stats.scan_fallbacks),
                static_cast<unsigned long long>(stats.misses));
    first = false;
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--sweep_json") == 0) {
    return run_sweep_json();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Differential harness for the two-tier flow table (invariant FT-1).
//
// The exact-match index is a pure optimization: for every packet the
// two-tier lookup() must return the identical rule object as the retained
// reference linear scan.  A subtly wrong fast path would not crash -- it
// would silently re-route m-flows and corrupt every anonymity measurement
// downstream -- so we fuzz it: thousands of seeded random (rule set, packet
// stream) pairs mixing exact rules, partial wildcards, overlapping
// priorities, duplicate match keys at different priorities, and mid-stream
// rule removal, asserting pointer-identical results throughout.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "switchd/flow_table.hpp"

namespace mic::switchd {
namespace {

// Small value pools so that rules overlap each other and packets actually
// hit rules; a generator over the full 32-bit spaces would only ever
// exercise the miss path.
constexpr net::Ipv4 kIps[] = {{10, 0, 0, 1}, {10, 0, 0, 2}, {10, 0, 0, 3},
                              {10, 1, 0, 1}, {10, 1, 0, 2}, {192, 168, 0, 1}};
constexpr net::L4Port kPorts[] = {80, 443, 7000, 30000};
constexpr net::MplsLabel kLabels[] = {3, 77, 0xabcd, 0x00050001};
constexpr topo::PortId kInPorts[] = {0, 1, 2};
// Repeated values force priority ties (resolved by install order) and
// cross-tier ties between exact and wildcard rules.
constexpr std::uint16_t kPriorities[] = {10, 20, 25, 30, 100, 100, 110, 110};

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&pool)[N]) {
  return pool[rng.below(N)];
}

Match random_exact_match(Rng& rng) {
  Match m;
  m.in_port = pick(rng, kInPorts);
  m.src = pick(rng, kIps);
  m.dst = pick(rng, kIps);
  m.sport = pick(rng, kPorts);
  m.dport = pick(rng, kPorts);
  if (rng.chance(0.3)) {
    m.require_no_mpls = true;  // pinned to "untagged", like a first-MN rule
  } else {
    m.mpls = pick(rng, kLabels);
  }
  return m;
}

Match random_wildcard_match(Rng& rng) {
  Match m;
  if (rng.chance(0.4)) m.in_port = pick(rng, kInPorts);
  if (rng.chance(0.5)) m.src = pick(rng, kIps);
  if (rng.chance(0.5)) m.dst = pick(rng, kIps);
  if (rng.chance(0.3)) m.sport = pick(rng, kPorts);
  if (rng.chance(0.3)) m.dport = pick(rng, kPorts);
  if (rng.chance(0.25)) m.mpls = pick(rng, kLabels);
  if (rng.chance(0.2)) m.require_no_mpls = true;  // may contradict mpls
  return m;
}

FlowTable random_table(Rng& rng, std::size_t rule_target) {
  FlowTable table;
  for (std::size_t i = 0; i < rule_target; ++i) {
    FlowRule rule;
    rule.priority = pick(rng, kPriorities);
    // Bias toward exact rules, mirroring a loaded MN where m-flow rewrite
    // rules dwarf the static L3 wildcards.
    rule.match = rng.chance(0.7) ? random_exact_match(rng)
                                 : random_wildcard_match(rng);
    rule.actions = {Output{static_cast<topo::PortId>(rng.below(4))}};
    rule.cookie = rng.range(1, 4);
    table.add(std::move(rule));  // duplicate (priority, match) rejected
  }
  return table;
}

net::Packet random_packet(Rng& rng) {
  net::Packet p;
  // Mostly pool values (hit exact rules); occasionally stray values that
  // can only hit wildcards or miss.
  p.src = rng.chance(0.9) ? pick(rng, kIps)
                          : net::Ipv4{static_cast<std::uint32_t>(rng.next())};
  p.dst = rng.chance(0.9) ? pick(rng, kIps)
                          : net::Ipv4{static_cast<std::uint32_t>(rng.next())};
  p.sport = rng.chance(0.9) ? pick(rng, kPorts)
                            : static_cast<net::L4Port>(rng.next());
  p.dport = rng.chance(0.9) ? pick(rng, kPorts)
                            : static_cast<net::L4Port>(rng.next());
  if (rng.chance(0.6)) p.mpls = pick(rng, kLabels);
  p.tcp.payload_len = static_cast<std::uint32_t>(rng.below(1461));
  return p;
}

/// One lookup checked against the oracle.  Returns the number of cases
/// exercised (always 1; kept explicit for the tally).
std::size_t check_one(FlowTable& table, Rng& rng) {
  const net::Packet packet = random_packet(rng);
  const topo::PortId in_port = pick(rng, kInPorts);
  const FlowRule* expected = table.reference_lookup(packet, in_port);
  FlowRule* actual = table.lookup(packet, in_port, packet.wire_bytes());
  EXPECT_EQ(actual, expected)
      << "two-tier lookup diverged from the reference scan (rules="
      << table.rule_count() << ", indexed=" << table.indexed_rule_count()
      << ")";
  return 1;
}

TEST(FlowTableDifferential, IndexedLookupEqualsReferenceScan) {
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed * 0x9e3779b9ULL + 7);
    FlowTable table = random_table(rng, rng.range(1, 64));
    for (int i = 0; i < 128; ++i) cases += check_one(table, rng);
    const TableStats& s = table.stats();
    EXPECT_EQ(s.lookups, s.index_hits + s.scan_fallbacks + s.misses);
  }
  // The acceptance bar: thousands of randomized cases, zero divergence.
  EXPECT_GE(cases, 5000u);
}

TEST(FlowTableDifferential, AgreementSurvivesRuleChurn) {
  // Install / lookup / remove-by-cookie cycles: the index must be rebuilt
  // consistently after every mutation, including ones that remove rules
  // shadowing same-key rules at lower priority.
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 0x51ed2701ULL + 3);
    FlowTable table = random_table(rng, 32);
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 24; ++i) cases += check_one(table, rng);
      table.remove_by_cookie(rng.range(1, 4));
      for (int i = 0; i < 8; ++i) {
        FlowRule rule;
        rule.priority = pick(rng, kPriorities);
        rule.match = rng.chance(0.7) ? random_exact_match(rng)
                                     : random_wildcard_match(rng);
        rule.actions = {Output{0}};
        rule.cookie = rng.range(1, 4);
        table.add(std::move(rule));
      }
    }
    for (int i = 0; i < 24; ++i) cases += check_one(table, rng);
  }
  EXPECT_GE(cases, 3000u);
}

TEST(FlowTableDifferential, EmptyAndWildcardOnlyTables) {
  Rng rng(99);
  FlowTable empty;
  for (int i = 0; i < 64; ++i) check_one(empty, rng);
  EXPECT_EQ(empty.stats().misses, empty.stats().lookups);

  FlowTable wildcards;
  for (int i = 0; i < 16; ++i) {
    FlowRule rule;
    rule.priority = pick(rng, kPriorities);
    rule.match = random_wildcard_match(rng);
    rule.actions = {Output{0}};
    wildcards.add(std::move(rule));
  }
  EXPECT_EQ(wildcards.indexed_rule_count(), 0u);
  for (int i = 0; i < 256; ++i) check_one(wildcards, rng);
  EXPECT_EQ(wildcards.stats().index_hits, 0u);
}

TEST(FlowTableDifferential, SameKeyDifferentPriorityKeepsBestIndexed) {
  // Two exact rules with one match key at different priorities: the index
  // must serve the higher-priority one, and keep doing so after the winner
  // is removed.
  FlowTable table;
  Rng rng(1);
  FlowRule low;
  low.priority = 50;
  low.cookie = 1;
  low.match = random_exact_match(rng);
  FlowRule high = low;
  high.priority = 120;
  high.cookie = 2;
  ASSERT_TRUE(table.add(low));
  ASSERT_TRUE(table.add(high));
  EXPECT_EQ(table.indexed_rule_count(), 1u);

  net::Packet p;
  p.src = *low.match.src;
  p.dst = *low.match.dst;
  p.sport = *low.match.sport;
  p.dport = *low.match.dport;
  p.mpls = low.match.mpls.value_or(net::kNoMpls);
  const topo::PortId in = *low.match.in_port;

  FlowRule* hit = table.lookup(p, in, p.wire_bytes());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 2u);
  EXPECT_EQ(hit, table.reference_lookup(p, in));

  table.remove_by_cookie(2);
  hit = table.lookup(p, in, p.wire_bytes());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 1u);
  EXPECT_EQ(hit, table.reference_lookup(p, in));
}

}  // namespace
}  // namespace mic::switchd

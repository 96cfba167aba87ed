#include "switchd/flow_table.hpp"

#include <algorithm>
#include <string>

#include "common/rng.hpp"

namespace mic::switchd {

std::size_t count_set_fields(const std::vector<Action>& actions) noexcept {
  std::size_t n = 0;
  for (const auto& action : actions) {
    if (std::holds_alternative<SetSrc>(action) ||
        std::holds_alternative<SetDst>(action) ||
        std::holds_alternative<SetSport>(action) ||
        std::holds_alternative<SetDport>(action) ||
        std::holds_alternative<SetMpls>(action) ||
        std::holds_alternative<PopMpls>(action)) {
      ++n;
    }
  }
  return n;
}

std::size_t select_bucket(const net::Packet& packet, std::size_t bucket_count,
                          std::uint64_t salt) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ salt;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(packet.src.value);
  mix(packet.dst.value);
  mix(packet.sport);
  mix(packet.dport);
  mix(static_cast<std::uint64_t>(packet.proto));
  // FNV's low bits are weak (linear in the inputs' low bits); finish with
  // a full-avalanche scrambler before reducing.
  std::uint64_t state = h;
  return static_cast<std::size_t>(splitmix64(state) % bucket_count);
}

std::size_t FlowTable::ExactKeyHash::operator()(
    const ExactKey& k) const noexcept {
  std::uint64_t state = (static_cast<std::uint64_t>(k.src.value) << 32) |
                        k.dst.value;
  state ^= (static_cast<std::uint64_t>(k.sport) << 48) |
           (static_cast<std::uint64_t>(k.dport) << 32) | k.mpls;
  state ^= static_cast<std::uint64_t>(k.in_port) << 16;
  return static_cast<std::size_t>(splitmix64(state));
}

FlowTable::ExactKey FlowTable::key_of(const net::Packet& packet,
                                      topo::PortId in_port) noexcept {
  return ExactKey{in_port, packet.src,  packet.dst,
                  packet.sport, packet.dport, packet.mpls};
}

void FlowTable::rebuild_index() {
  index_.clear();
  scan_rules_.clear();
  for (std::size_t pos = 0; pos < rules_.size(); ++pos) {
    const Match& m = rules_[pos].match;
    if (!m.is_exact()) {
      scan_rules_.push_back(pos);
      continue;
    }
    const ExactKey key{*m.in_port, *m.src, *m.dst, *m.sport, *m.dport,
                       m.mpls.value_or(net::kNoMpls)};
    // try_emplace keeps the first (highest-precedence) rule per key; any
    // later rule with the same key matches the same packets and always
    // loses, so it is unreachable from the index by construction.
    index_.try_emplace(key, pos);
  }
}

void FlowTable::clear() {
  rules_.clear();
  groups_.clear();
  index_.clear();
  scan_rules_.clear();
}

bool FlowTable::add_rule(FlowRule rule) {
  if (capacity_ != 0 && rules_.size() >= capacity_) return false;
  for (const auto& existing : rules_) {
    if (existing.priority == rule.priority && existing.match == rule.match) {
      return false;
    }
  }
  const auto pos = std::upper_bound(
      rules_.begin(), rules_.end(), rule,
      [](const FlowRule& a, const FlowRule& b) {
        return a.priority > b.priority;
      });
  rules_.insert(pos, std::move(rule));
  rebuild_index();
  return true;
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
  const auto before = rules_.size();
  std::erase_if(rules_, [cookie](const FlowRule& r) {
    return r.cookie == cookie;
  });
  if (rules_.size() != before) rebuild_index();
  return before - rules_.size();
}

FlowTable::TierHit FlowTable::two_tier_find(
    const net::Packet& packet, topo::PortId in_port) const noexcept {
  // Tier 1: the exact-match index.  A hit pins the best fully-specified
  // candidate; key equality guarantees the rule matches the packet.
  std::size_t best = rules_.size();
  bool from_index = false;
  if (!index_.empty()) {
    const auto it = index_.find(key_of(packet, in_port));
    if (it != index_.end()) {
      best = it->second;
      from_index = true;
    }
  }
  // Tier 2: wildcard rules, in precedence order.  Only those preceding the
  // indexed candidate can still win; scan_rules_ is ascending so the first
  // match is the winner and positions past `best` stop the scan.
  for (const std::size_t pos : scan_rules_) {
    if (pos >= best) break;
    if (rules_[pos].match.matches(packet, in_port)) {
      best = pos;
      from_index = false;
      break;
    }
  }
  return {best, from_index};
}

FlowRule* FlowTable::lookup(const net::Packet& packet, topo::PortId in_port,
                            std::uint32_t wire_bytes) {
  ++stats_.lookups;
  const TierHit hit = two_tier_find(packet, in_port);
  if (hit.pos == rules_.size()) {
    ++stats_.misses;
    return nullptr;
  }
  hit.from_index ? ++stats_.index_hits : ++stats_.scan_fallbacks;
  FlowRule& rule = rules_[hit.pos];
  MIC_ASSERT(rule.match.matches(packet, in_port));
  ++rule.packet_count;
  rule.byte_count += wire_bytes;
  return &rule;
}

const FlowRule* FlowTable::reference_lookup(
    const net::Packet& packet, topo::PortId in_port) const noexcept {
  for (const auto& rule : rules_) {
    if (rule.match.matches(packet, in_port)) return &rule;
  }
  return nullptr;
}

std::size_t FlowTable::self_check(std::vector<std::string>& violations) const {
  const auto complain = [&violations](std::size_t pos, const char* what) {
    violations.push_back("rule #" + std::to_string(pos) + ": " + what);
  };

  // Structural: the two tiers partition the rule list, and each index
  // entry points at the first (highest-precedence) exact rule of its key.
  std::vector<bool> on_scan_tier(rules_.size(), false);
  std::size_t prev_scan = 0;
  for (std::size_t i = 0; i < scan_rules_.size(); ++i) {
    const std::size_t pos = scan_rules_[i];
    if (pos >= rules_.size()) {
      complain(pos, "scan tier points past the rule list");
      return 0;  // positions untrustworthy; probing would read garbage
    }
    if (i > 0 && pos <= prev_scan) {
      complain(pos, "scan tier out of precedence order");
    }
    prev_scan = pos;
    on_scan_tier[pos] = true;
    if (rules_[pos].match.is_exact()) {
      complain(pos, "fully-specified rule left on the scan tier");
    }
  }
  for (const auto& [key, pos] : index_) {
    if (pos >= rules_.size()) {
      complain(pos, "index entry points past the rule list");
      return 0;
    }
    const Match& m = rules_[pos].match;
    if (!m.is_exact()) {
      complain(pos, "index entry points at a wildcard rule");
      continue;
    }
    const ExactKey expect{*m.in_port, *m.src,  *m.dst,
                          *m.sport,   *m.dport, m.mpls.value_or(net::kNoMpls)};
    if (!(expect == key)) {
      complain(pos, "index entry filed under a foreign key");
    }
  }
  for (std::size_t pos = 0; pos < rules_.size(); ++pos) {
    const bool exact = rules_[pos].match.is_exact();
    if (!exact && !on_scan_tier[pos]) {
      complain(pos, "wildcard rule reachable from neither tier");
    }
  }

  // Behavioural: for a probe synthesized from each rule, the two-tier
  // winner must be the reference scan's winner.  Wildcard fields take
  // fixed off-path values so the probe exercises this rule's shape rather
  // than colliding with a random exact rule.
  std::size_t probes = 0;
  for (std::size_t pos = 0; pos < rules_.size(); ++pos) {
    const Match& m = rules_[pos].match;
    net::Packet probe;
    probe.src = m.src.value_or(net::Ipv4(203, 0, 113, 1));
    probe.dst = m.dst.value_or(net::Ipv4(203, 0, 113, 2));
    probe.sport = m.sport.value_or(64999);
    probe.dport = m.dport.value_or(64998);
    probe.mpls = m.require_no_mpls ? net::kNoMpls
                                   : m.mpls.value_or(net::kNoMpls);
    const topo::PortId in_port = m.in_port.value_or(0);
    const FlowRule* expected = reference_lookup(probe, in_port);
    const TierHit hit = two_tier_find(probe, in_port);
    const FlowRule* actual = hit.pos == rules_.size() ? nullptr
                                                      : &rules_[hit.pos];
    ++probes;
    if (expected != actual) {
      complain(pos, "two-tier winner differs from the reference scan");
    }
  }
  return probes;
}

bool FlowTable::add_group(GroupEntry group) {
  if (this->group(group.group_id) != nullptr) return false;
  groups_.push_back(std::move(group));
  return true;
}

bool FlowTable::add(TableOp op) {
  if (auto* rule = std::get_if<FlowRule>(&op)) {
    return add_rule(std::move(*rule));
  }
  return add_group(std::get<GroupEntry>(std::move(op)));
}

std::size_t FlowTable::remove_groups_by_cookie(std::uint64_t cookie) {
  const auto before = groups_.size();
  std::erase_if(groups_, [cookie](const GroupEntry& g) {
    return g.cookie == cookie;
  });
  return before - groups_.size();
}

const GroupEntry* FlowTable::group(std::uint32_t group_id) const noexcept {
  for (const auto& g : groups_) {
    if (g.group_id == group_id) return &g;
  }
  return nullptr;
}

}  // namespace mic::switchd

#include "sim/simulator.hpp"

#include <algorithm>

namespace mic::sim {

Simulator::~Simulator() {
  // Pending callbacks own resources (captured shared_ptrs, heap fallback
  // allocations); destroy them explicitly since the pool holds raw storage.
  for (std::uint32_t i = 0; i < stats_.nodes_allocated; ++i) {
    Node* node = node_at(i);
    if (node->state == kPending) callback_of(node).reset();
  }
}

Simulator::Node* Simulator::acquire_node() {
  if (free_head_ == kNoFreeNode) {
    auto chunk = std::make_unique<Chunk>();
    const std::uint32_t base = stats_.nodes_allocated;
    MIC_ASSERT_MSG(base <= 0xffffffffu - kChunkNodes, "event pool exhausted");
    // Thread the fresh chunk onto the freelist back to front so nodes are
    // handed out in index order (deterministic, cache friendly).
    for (std::uint32_t i = kChunkNodes; i-- > 0;) {
      Node* node = &chunk->nodes[i];
      node->index = base + i;
      node->gen = 1;  // never 0: keeps every EventId distinct from 0
      node->free_next = free_head_;
      free_head_ = node->index;
    }
    chunks_.push_back(std::move(chunk));
    stats_.nodes_allocated = base + kChunkNodes;
  }
  Node* node = node_at(free_head_);
  free_head_ = node->free_next;
  return node;
}

void Simulator::release_node(Node* node) {
  callback_of(node).reset();
  node->state = kFree;
  ++node->gen;  // invalidate outstanding EventIds and slot entries
  node->free_next = free_head_;
  free_head_ = node->index;
}

Simulator::Node* Simulator::lookup(EventId id) const {
  const std::uint64_t index_plus_one = id >> 32;
  if (index_plus_one == 0) return nullptr;  // id 0 and small ids: invalid
  const auto index = static_cast<std::uint32_t>(index_plus_one - 1);
  if (index >= stats_.nodes_allocated) return nullptr;
  Node* node = node_at(index);
  if (node->state != kPending) return nullptr;  // fired, cancelled, free
  if (node->gen != static_cast<std::uint32_t>(id)) return nullptr;  // stale
  return node;
}

void Simulator::cancel(EventId id) {
  Node* node = lookup(id);
  if (node == nullptr) return;  // never scheduled, fired, or done
  release_node(node);  // gen bump turns the slot entry into a tombstone
  --live_events_;
  ++stats_.cancelled;
  if (++stale_entries_ > live_events_ + kSweepSlack) sweep_stale();
}

void Simulator::file(const Entry& entry) {
  // Level = index of the highest bit in which `when` differs from the
  // cursor, / 6: the coarsest wheel digit that still distinguishes them.
  const std::uint64_t diff = entry.when ^ cursor_;
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kSlotBits;
  if (level >= kLevels) {
    overflow_.entries.push_back(entry);
    return;
  }
  const auto slot = static_cast<std::uint32_t>(
      (entry.when >> (level * kSlotBits)) & (kSlotsPerLevel - 1));
  if (level == 0) {
    // The event fires within 64 ns of simulated time -- i.e. within a
    // handful of pops.  Start pulling its node and callback lines now so
    // the fire path does not stall on two cold loads.
    __builtin_prefetch(node_at(entry.index), 0, 1);
    __builtin_prefetch(&callback_at(entry.index), 0, 1);
  }
  occupied_[level] |= 1ULL << slot;
  // FIFO append: slot-local order is insertion order (SIM-1).
  wheel_[level][slot].entries.push_back(entry);
}

void Simulator::cascade(int level, int slot) {
  // Refile the whole slot relative to the advanced cursor.  The entries
  // are a contiguous array walked front to back (FIFO-preserving, and a
  // pure prefetchable stream -- no node memory is touched); every entry
  // lands strictly below `level` because its time now agrees with the
  // cursor on all digits >= level, so file() cannot append to this slot
  // while we iterate.
  Slot& source = wheel_[level][slot];
  occupied_[level] &= ~(1ULL << static_cast<std::uint32_t>(slot));
  for (std::size_t i = source.next; i < source.entries.size(); ++i) {
    file(source.entries[i]);
    ++stats_.cascades;
  }
  source.entries.clear();  // keeps capacity: steady state allocates nothing
  source.next = 0;
}

void Simulator::sweep_stale() {
  // Compact every slot down to its live entries.  Triggered once
  // tombstones outnumber live events + kSweepSlack, so the cost is O(1)
  // amortized per cancel and slot memory stays O(live events).
  // Compaction removes entries without reordering the survivors, so
  // SIM-1 slot-local FIFO order is untouched.
  const auto compact = [this](Slot& slot) {
    std::size_t out = 0;
    for (std::size_t i = slot.next; i < slot.entries.size(); ++i) {
      if (entry_live(slot.entries[i])) slot.entries[out++] = slot.entries[i];
    }
    slot.entries.resize(out);
    slot.next = 0;
    return out != 0;
  };
  for (int level = 0; level < kLevels; ++level) {
    for (int slot = 0; slot < kSlotsPerLevel; ++slot) {
      if ((occupied_[level] >> slot) & 1) {
        if (!compact(wheel_[level][slot])) {
          occupied_[level] &= ~(1ULL << slot);
        }
      }
    }
  }
  compact(overflow_);
  stale_entries_ = 0;
}

void Simulator::reset_empty_wheel() {
  for (int level = 0; level < kLevels; ++level) {
    std::uint64_t bits = occupied_[level];
    while (bits != 0) {
      const int slot = std::countr_zero(bits);
      bits &= bits - 1;
      wheel_[level][slot].entries.clear();
      wheel_[level][slot].next = 0;
    }
    occupied_[level] = 0;
  }
  overflow_.entries.clear();
  overflow_.next = 0;
  stale_entries_ = 0;
  cursor_ = now_;
}

Simulator::Node* Simulator::pop_next(SimTime limit) {
  for (;;) {
    // Level 0: 1-ns slots, so the lowest occupied slot at or after the
    // cursor holds the globally earliest events, already in FIFO order.
    {
      const auto cur =
          static_cast<std::uint32_t>(cursor_ & (kSlotsPerLevel - 1));
      std::uint64_t mask = occupied_[0] & (~0ULL << cur);
      while (mask != 0) {
        const int slot = std::countr_zero(mask);
        Slot& s = wheel_[0][slot];
        // Drop tombstones until a live entry fronts the slot.
        while (s.next < s.entries.size()) {
          const Entry entry = s.entries[s.next];
          // Fetch the callback line in parallel with the node line the
          // liveness check is about to stall on.
          __builtin_prefetch(&callback_at(entry.index), 0, 1);
          if (!entry_live(entry)) {
            ++s.next;
            --stale_entries_;
            continue;
          }
          if (entry.when > limit) return nullptr;
          ++s.next;
          if (s.next == s.entries.size()) {
            s.entries.clear();
            s.next = 0;
            occupied_[0] &= ~(1ULL << slot);
          }
          cursor_ = entry.when;
          now_ = entry.when;
          return node_at(entry.index);
        }
        // Slot was all tombstones: retire it and try the next one.
        s.entries.clear();
        s.next = 0;
        occupied_[0] &= ~(1ULL << slot);
        mask &= mask - 1;
      }
    }
    // Higher levels: cascade the earliest occupied slot at or after the
    // cursor's digit down one level, then rescan.  Slots at the cursor's
    // own digit (for level >= 1) are empty by construction -- they were
    // cascaded when the cursor entered their range -- so the earliest
    // pending event always lives at or after `cur` on every level.
    bool cascaded = false;
    for (int level = 1; level < kLevels; ++level) {
      const auto cur = static_cast<std::uint32_t>(
          (cursor_ >> (level * kSlotBits)) & (kSlotsPerLevel - 1));
      const std::uint64_t mask = occupied_[level] & (~0ULL << cur);
      if (mask == 0) continue;
      const int slot = std::countr_zero(mask);
      // First instant covered by the slot; nothing pending precedes it.
      const SimTime epoch =
          cursor_ & ~((1ULL << ((level + 1) * kSlotBits)) - 1);
      const SimTime start =
          epoch | (static_cast<SimTime>(slot) << (level * kSlotBits));
      if (start > limit) return nullptr;
      cursor_ = std::max(cursor_, start);
      cascade(level, slot);
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    // Wheel empty: pull anything on the overflow list that fits within
    // 2^48 ns of its earliest member, then rescan.  Tombstones may drag
    // min_when below the earliest live event; that only makes the cursor
    // jump conservative, never wrong.
    if (!overflow_.entries.empty()) {
      SimTime min_when = kNever;
      for (const Entry& entry : overflow_.entries) {
        min_when = std::min(min_when, entry.when);
      }
      if (min_when > limit) return nullptr;
      cursor_ = min_when;  // safe: wheel empty, no pending event precedes
      std::size_t keep = 0;
      // In entry order: preserves FIFO for same-timestamp events (SIM-1).
      for (const Entry& entry : overflow_.entries) {
        if ((entry.when ^ cursor_) >> kWheelBits == 0) {
          file(entry);
        } else {
          overflow_.entries[keep++] = entry;
        }
      }
      overflow_.entries.resize(keep);
      continue;
    }
    return nullptr;
  }
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t ran = 0;
  while (Node* node = pop_next(deadline)) {
    // The node is unlinked but NOT yet recycled while its callback runs:
    // re-entrant schedule_at() calls allocate other nodes, and a re-entrant
    // cancel() of this very id is rejected by the kFiring state.
    node->state = kFiring;
    --live_events_;
    ++executed_;
    ++stats_.fired;
    callback_of(node)();
    release_node(node);
    ++ran;
  }
  if (deadline == kNever) {
    // A full drain consumed every live event, so anything left in the
    // wheel is tombstones -- and the cursor may have chased them PAST
    // now_ (a cancelled far-future timer still pulls cascades toward its
    // slot).  Left alone, that breaks filing: a later schedule_at(when)
    // with now_ <= when < cursor_ would land in the wheel's past, in a
    // slot no scan revisits, and the event would never fire.  Purge the
    // corpses and re-anchor the cursor, restoring the invariant that
    // cursor_ <= now_ whenever user code can schedule.
    MIC_ASSERT_MSG(live_events_ == 0, "full drain left live events behind");
    reset_empty_wheel();
  }
  // pop_next returning null proves nothing is pending at or before
  // `deadline`, so the clock may advance to the requested horizon.
  if (deadline != kNever && deadline > now_) now_ = deadline;
  return ran;
}

}  // namespace mic::sim

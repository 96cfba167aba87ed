// Per-thread freelist for packet payload buffers.
//
// Every materialized send used to heap-allocate a fresh
// std::vector<uint8_t> plus a shared_ptr control block, both dropped as
// soon as the packet left every queue.  The arena recycles the whole
// shared_ptr<vector> instead: a pooled buffer whose use_count has fallen
// back to 1 (the pool's own reference) has been released by every packet
// that shared it and can be refilled in place -- control block AND vector
// capacity reused, so steady-state slicing and segmentation allocate
// nothing.
//
// Thread safety: arenas are thread_local, and the simulation runs on one
// thread, so every packet that shares a pooled buffer is created, read and
// released on the arena's own thread.  A use_count() of 1 therefore means
// no packet can still read the buffer, and the refill needs no fence.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mic::transport {

class PayloadArena {
 public:
  struct Stats {
    std::uint64_t allocations = 0;  ///< buffers obtained from the heap
    std::uint64_t reuses = 0;       ///< buffers refilled in place
  };

  /// The calling thread's arena.
  static PayloadArena& local();

  /// A shared immutable buffer holding a copy of `bytes`.
  std::shared_ptr<const std::vector<std::uint8_t>> copy(
      std::span<const std::uint8_t> bytes);

  const Stats& stats() const noexcept { return stats_; }

 private:
  // Bounded pool: beyond this many simultaneously-live buffers, extras are
  // plain heap allocations that die normally (no unbounded hoarding).  The
  // cap must comfortably exceed the peak number of in-flight buffers of
  // the largest bench workload (k=8, 16 bulk connections keep a few
  // thousand 16-byte slice headers alive at once) or steady state keeps
  // allocating.
  static constexpr std::size_t kMaxPooled = 4096;
  // A miss never scans the whole pool: probing this many slots bounds the
  // worst case while the round-robin cursor still finds FIFO-retired
  // buffers on the first probe in steady state.
  static constexpr std::size_t kMaxProbes = 128;

  std::vector<std::shared_ptr<std::vector<std::uint8_t>>> pool_;
  std::size_t cursor_ = 0;
  Stats stats_;
};

}  // namespace mic::transport

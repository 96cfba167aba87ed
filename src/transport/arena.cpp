#include "transport/arena.hpp"

#include "transport/stream.hpp"

namespace mic::transport {

PayloadArena& PayloadArena::local() {
  static PayloadArena arena;
  return arena;
}

std::shared_ptr<const std::vector<std::uint8_t>> PayloadArena::copy(
    std::span<const std::uint8_t> bytes) {
  // Round-robin probe from the last hit: buffers retire in roughly FIFO
  // order, so in steady state the first probe usually lands on a free one.
  const std::size_t slots = pool_.size();
  const std::size_t probes = slots < kMaxProbes ? slots : kMaxProbes;
  for (std::size_t probe = 0; probe < probes; ++probe) {
    auto& slot = pool_[cursor_];
    cursor_ = cursor_ + 1 == slots ? 0 : cursor_ + 1;
    if (slot.use_count() == 1) {
      slot->assign(bytes.begin(), bytes.end());
      ++stats_.reuses;
      return slot;
    }
  }
  ++stats_.allocations;
  auto fresh =
      std::make_shared<std::vector<std::uint8_t>>(bytes.begin(), bytes.end());
  if (pool_.size() < kMaxPooled) pool_.push_back(fresh);
  return fresh;
}

Chunk Chunk::copy(std::span<const std::uint8_t> bytes) {
  Chunk c;
  c.length = bytes.size();
  c.data = PayloadArena::local().copy(bytes);
  return c;
}

}  // namespace mic::transport

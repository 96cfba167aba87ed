#include "core/channel_journal.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "core/journal_store.hpp"

namespace mic::core {

bool structurally_equal(const ChannelState& a, const ChannelState& b) {
  return a.id == b.id && a.initiator == b.initiator &&
         a.responder == b.responder && a.flows == b.flows &&
         a.touched_switches == b.touched_switches &&
         a.install_txn == b.install_txn;
}

ChannelJournal::ChannelJournal(const ChannelJournal& other)
    : records_(other.records_),
      next_seq_(other.next_seq_),
      compacted_size_(other.compacted_size_),
      compactions_(other.compactions_),
      epoch_(other.epoch_) {}

ChannelJournal& ChannelJournal::operator=(const ChannelJournal& other) {
  if (this == &other) return *this;
  records_ = other.records_;
  next_seq_ = other.next_seq_;
  compacted_size_ = other.compacted_size_;
  compactions_ = other.compactions_;
  epoch_ = other.epoch_;
  // store_/listener_/unshipped_ deliberately untouched: the plumbing stays
  // with whatever this journal was wired to (see header).
  return *this;
}

void ChannelJournal::record_establish(const ChannelState& state,
                                      ChannelId next_channel,
                                      std::uint32_t next_group) {
  JournalRecord record;
  record.type = JournalRecordType::kEstablish;
  record.channel = state.id;
  record.state = state;
  record.next_channel = next_channel;
  record.next_group = next_group;
  append(std::move(record));
}

void ChannelJournal::record_repair(const ChannelState& state,
                                   ChannelId next_channel,
                                   std::uint32_t next_group) {
  JournalRecord record;
  record.type = JournalRecordType::kRepair;
  record.channel = state.id;
  record.state = state;
  record.next_channel = next_channel;
  record.next_group = next_group;
  append(std::move(record));
}

void ChannelJournal::record_teardown(ChannelId channel) {
  JournalRecord record;
  record.type = JournalRecordType::kTeardown;
  record.channel = channel;
  append(std::move(record));
}

void ChannelJournal::adopt_record(JournalRecord record) {
  next_seq_ = std::max(next_seq_, record.seq + 1);
  epoch_ = std::max(epoch_, record.epoch);
  records_.push_back(std::move(record));
  maybe_compact();
}

JournalImage ChannelJournal::replay() const {
  JournalImage image;
  for (const JournalRecord& record : records_) {
    image.epoch = std::max(image.epoch, record.epoch);
    switch (record.type) {
      case JournalRecordType::kEstablish:
      case JournalRecordType::kRepair:
      case JournalRecordType::kSnapshot: {
        ChannelState state = record.state;
        // Idle bookkeeping is soft state: a recovered channel restarts
        // its idle clock rather than inheriting a stale timestamp.
        state.idle = false;
        state.idle_since = 0;
        image.channels.insert_or_assign(record.channel, std::move(state));
        image.next_channel = std::max(image.next_channel, record.next_channel);
        image.next_group = std::max(image.next_group, record.next_group);
        break;
      }
      case JournalRecordType::kTeardown:
        image.channels.erase(record.channel);
        break;
    }
  }
  return image;
}

void ChannelJournal::compact() {
  JournalImage image = replay();
  records_.clear();
  for (auto& [id, state] : image.channels) {
    JournalRecord record;
    record.type = JournalRecordType::kSnapshot;
    record.channel = id;
    record.state = std::move(state);
    record.next_channel = image.next_channel;
    record.next_group = image.next_group;
    record.seq = next_seq_++;
    record.epoch = epoch_;
    records_.push_back(std::move(record));
  }
  compacted_size_ = records_.size();
  ++compactions_;
  if (store_ != nullptr) {
    store_->compact(records_);
    // A compaction syncs everything: whatever was pending is durable now.
    maybe_ship();
  }
}

void ChannelJournal::maybe_compact() {
  if (records_.size() >
      std::max(kCompactionFloor, compacted_size_ + compacted_size_ / 4)) {
    compact();
  }
}

void ChannelJournal::truncate_tail(std::size_t n) {
  records_.resize(records_.size() - std::min(n, records_.size()));
}

void ChannelJournal::clear() {
  records_.clear();
  compacted_size_ = 0;
  // Records that never reached the commit frontier die with the crash:
  // they must not ship to a standby after the fact.
  unshipped_.clear();
  if (store_ != nullptr) store_->compact({});
}

void ChannelJournal::attach_store(JournalStore* store) {
  if (store != nullptr) {
    MIC_ASSERT_MSG(records_.empty() && next_seq_ == 1,
                   "attach_store after records were written");
  }
  store_ = store;
}

void ChannelJournal::set_commit_listener(
    std::function<void(const JournalRecord&)> listener) {
  listener_ = std::move(listener);
  if (!listener_) return;
  // Catch-up: everything already committed (= in the log minus the
  // still-unshipped tail) is the follower's starting history.
  MIC_ASSERT(unshipped_.size() <= records_.size());
  const std::size_t committed = records_.size() - unshipped_.size();
  for (std::size_t i = 0; i < committed; ++i) listener_(records_[i]);
}

void ChannelJournal::commit_boundary() {
  if (store_ != nullptr) store_->commit_boundary();
  maybe_ship();
}

std::uint64_t ChannelJournal::durable_frontier() const {
  return store_ != nullptr ? store_->records_durable() : real_appends_;
}

void ChannelJournal::maybe_ship() {
  while (!unshipped_.empty() &&
         real_appends_ - unshipped_.size() < durable_frontier()) {
    JournalRecord record = std::move(unshipped_.front());
    unshipped_.pop_front();
    ++shipped_;
    if (listener_) listener_(record);
  }
}

void ChannelJournal::append(JournalRecord record) {
  record.seq = next_seq_++;
  record.epoch = epoch_;
  records_.push_back(record);
  ++real_appends_;
  if (store_ != nullptr) {
    store_->append(record);
    unshipped_.push_back(std::move(record));
    maybe_ship();
  } else if (listener_) {
    ++shipped_;
    listener_(record);
  }
  maybe_compact();
}

}  // namespace mic::core

// Durable journal storage engine (src/core/journal_store.hpp): the record
// codec (round-trip + corruption degradation), the SimBackend's volatile
// page-cache model and its seeded fault hooks, the FileBackend against a
// real temp directory, fsync policies vs the durability frontier, segment
// rotation + compaction, end-of-log recovery semantics, and the
// journal-bytes fuzzer -- arbitrary truncation/flip/splice of the log must
// always yield a clean parse error with an offset, never a crash (the
// ASan/UBSan tiers run this file too).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/channel_journal.hpp"
#include "core/fabric.hpp"
#include "core/journal_store.hpp"
#include "core/mic_client.hpp"

namespace mic::core {
namespace {

// --- helpers -----------------------------------------------------------------

/// The most records a journal may hold after an append, given its size
/// right after the latest compaction (the latest append is the +1).
std::size_t compaction_bound(std::size_t last) {
  return std::max(ChannelJournal::kCompactionFloor, last + last / 4) + 1;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// Frame one payload the way the segment engine does:
/// [u32 length][u32 crc][payload], little-endian.
void frame(std::vector<std::uint8_t>& log,
           const std::vector<std::uint8_t>& payload) {
  put_u32(log, static_cast<std::uint32_t>(payload.size()));
  put_u32(log, journal_crc32(payload.data(), payload.size()));
  log.insert(log.end(), payload.begin(), payload.end());
}

/// A representative record with every codec branch exercised: multiple
/// m-flows, MN positions, both address directions, decoys.
JournalRecord sample_record(std::uint64_t seq, JournalRecordType type) {
  JournalRecord record;
  record.type = type;
  record.seq = seq;
  record.epoch = 3;
  record.channel = (7ULL << 32) + seq;
  record.next_channel = record.channel + 1;
  record.next_group = static_cast<std::uint32_t>(100 + seq);
  if (type == JournalRecordType::kTeardown) return record;

  ChannelState& state = record.state;
  state.id = record.channel;
  state.initiator = 2;
  state.responder = 14;
  state.touched_switches = {20, 21, 22};
  state.install_txn = seq + 5;
  for (int f = 0; f < 2; ++f) {
    MFlowPlan plan;
    plan.flow_id = static_cast<FlowId>(10 + f);
    plan.path = {2, 20, 21, 22, 14};
    plan.mn_positions = {1, 3};
    for (std::size_t hop = 0; hop + 1 < plan.path.size(); ++hop) {
      HopAddresses fwd;
      fwd.src = net::Ipv4(10, 0, 0, static_cast<std::uint8_t>(hop + 1));
      fwd.dst = net::Ipv4(10, 0, 1, static_cast<std::uint8_t>(hop + 1));
      fwd.sport = static_cast<net::L4Port>(40000 + hop);
      fwd.dport = static_cast<net::L4Port>(50000 + hop);
      fwd.mpls = hop == 1 ? net::MplsLabel{0x0123'4567} : net::kNoMpls;
      plan.forward.push_back(fwd);
      HopAddresses rev = fwd;
      std::swap(rev.src, rev.dst);
      std::swap(rev.sport, rev.dport);
      plan.reverse.push_back(rev);
    }
    if (f == 0) {
      DecoyPlan decoy;
      decoy.tuple.src = net::Ipv4(10, 2, 0, 9);
      decoy.tuple.dst = net::Ipv4(10, 2, 1, 9);
      decoy.tuple.sport = 1234;
      decoy.tuple.dport = 4321;
      decoy.tuple.mpls = net::MplsLabel{0x00ab'00cd};
      decoy.out_port = 3;
      decoy.next_switch = 21;
      decoy.next_in_port = 1;
      decoy.flow_id = 99;
      plan.decoys.push_back(decoy);
    }
    state.flows.push_back(std::move(plan));
  }
  return record;
}

void expect_equal_records(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.next_channel, b.next_channel);
  EXPECT_EQ(a.next_group, b.next_group);
  if (a.type != JournalRecordType::kTeardown) {
    EXPECT_TRUE(structurally_equal(a.state, b.state));
  }
}

// --- record codec ------------------------------------------------------------

TEST(JournalCodec, RoundTripsEveryRecordType) {
  const JournalRecordType types[] = {
      JournalRecordType::kEstablish, JournalRecordType::kRepair,
      JournalRecordType::kTeardown, JournalRecordType::kSnapshot};
  std::vector<std::uint8_t> log;
  std::vector<JournalRecord> originals;
  std::uint64_t seq = 1;
  for (const JournalRecordType type : types) {
    originals.push_back(sample_record(seq++, type));
    frame(log, encode_journal_record(originals.back()));
  }

  std::size_t offset = 0;
  for (const JournalRecord& original : originals) {
    JournalRecord decoded;
    const RecordParse parse =
        decode_journal_record(log.data(), log.size(), offset, &decoded);
    ASSERT_EQ(parse.status, RecordParse::Status::kOk) << parse.error;
    expect_equal_records(original, decoded);
    offset = parse.next_offset;
  }
  JournalRecord unused;
  const RecordParse end =
      decode_journal_record(log.data(), log.size(), offset, &unused);
  EXPECT_EQ(end.status, RecordParse::Status::kEndOfLog);
}

TEST(JournalCodec, TruncationIsTornNeverUB) {
  std::vector<std::uint8_t> log;
  frame(log, encode_journal_record(
                 sample_record(1, JournalRecordType::kEstablish)));
  // Every strict prefix must parse as torn (or clean end at offset 0 is
  // impossible here: size > 0 means the frame started).
  for (std::size_t cut = 0; cut < log.size(); ++cut) {
    JournalRecord out;
    const RecordParse parse = decode_journal_record(log.data(), cut, 0, &out);
    if (cut == 0) {
      EXPECT_EQ(parse.status, RecordParse::Status::kEndOfLog);
    } else {
      ASSERT_EQ(parse.status, RecordParse::Status::kTorn) << "cut=" << cut;
      EXPECT_EQ(parse.error_offset, 0u);
      EXPECT_FALSE(parse.error.empty());
    }
  }
}

TEST(JournalCodec, BitFlipIsBadCrcWithOffset) {
  std::vector<std::uint8_t> log;
  frame(log, encode_journal_record(
                 sample_record(1, JournalRecordType::kEstablish)));
  frame(log, encode_journal_record(sample_record(2, JournalRecordType::kRepair)));

  // Flip one payload bit of the *second* record: the scan decodes record 1
  // and stops at record 2's frame start with a CRC error.
  JournalRecord first;
  const RecordParse head =
      decode_journal_record(log.data(), log.size(), 0, &first);
  ASSERT_EQ(head.status, RecordParse::Status::kOk);
  log[head.next_offset + 8 + 3] ^= 0x10;  // a payload byte of record 2

  JournalRecord out;
  const RecordParse parse =
      decode_journal_record(log.data(), log.size(), head.next_offset, &out);
  EXPECT_EQ(parse.status, RecordParse::Status::kBadCrc);
  EXPECT_EQ(parse.error_offset, head.next_offset);
  EXPECT_NE(parse.error.find("CRC"), std::string::npos);
}

TEST(JournalCodec, LengthFieldIsNeverTrusted) {
  // A frame whose length claims more bytes than exist: torn, not a read
  // past the buffer.
  std::vector<std::uint8_t> log;
  put_u32(log, 64);
  put_u32(log, 0);
  log.resize(log.size() + 16, 0xee);
  JournalRecord out;
  const RecordParse parse = decode_journal_record(log.data(), log.size(), 0, &out);
  EXPECT_EQ(parse.status, RecordParse::Status::kTorn);
  EXPECT_FALSE(parse.error.empty());

  // An implausibly huge length (past the 64 MiB record cap) is rejected as
  // a corrupt header before any allocation or read happens.
  std::vector<std::uint8_t> huge;
  put_u32(huge, 0xffff'ffffu);
  put_u32(huge, 0);
  huge.resize(huge.size() + 16, 0xee);
  const RecordParse capped =
      decode_journal_record(huge.data(), huge.size(), 0, &out);
  EXPECT_EQ(capped.status, RecordParse::Status::kBadPayload);
  EXPECT_FALSE(capped.error.empty());
}

TEST(JournalCodec, ForgedPayloadWithValidCrcIsBadPayload) {
  // CRC over garbage is easy to forge; the *decoder* must still reject it
  // cleanly (kBadPayload), because splice attacks can produce exactly this.
  std::vector<std::uint8_t> payload = {0x7f, 0x00, 0x01, 0x02, 0x03};
  std::vector<std::uint8_t> log;
  frame(log, payload);
  JournalRecord out;
  const RecordParse parse = decode_journal_record(log.data(), log.size(), 0, &out);
  EXPECT_EQ(parse.status, RecordParse::Status::kBadPayload);
  EXPECT_FALSE(parse.error.empty());
}

TEST(JournalCodec, FuzzedLogsAlwaysParseOrFailCleanly) {
  // The fuzzer the header advertises: start from a valid multi-record log,
  // then truncate / flip / splice / substitute random bytes, and scan.  The
  // scan must terminate, report offsets inside the buffer, and never crash
  // (ASan/UBSan enforce the "never" part).
  Rng rng(20260807);
  std::vector<std::uint8_t> pristine;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    const auto type = static_cast<JournalRecordType>(seq % 4);
    frame(pristine, encode_journal_record(sample_record(seq, type)));
  }

  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<std::uint8_t> log = pristine;
    switch (rng.below(4)) {
      case 0:  // truncate
        log.resize(rng.below(log.size() + 1));
        break;
      case 1:  // flip 1..8 bits
        for (std::uint64_t i = 0, n = 1 + rng.below(8); i < n; ++i) {
          if (log.empty()) break;
          log[rng.below(log.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 2: {  // splice a random slice over a random position
        const std::size_t src = rng.below(log.size());
        const std::size_t dst = rng.below(log.size());
        const std::size_t len =
            rng.below(std::min<std::size_t>(64, log.size() - src) + 1);
        std::memmove(log.data() + dst, log.data() + src,
                     std::min(len, log.size() - dst));
        break;
      }
      default:  // pure noise
        log.resize(rng.below(256));
        for (auto& byte : log) byte = static_cast<std::uint8_t>(rng.next());
        break;
    }

    std::size_t offset = 0;
    int guard = 0;
    for (;;) {
      ASSERT_LT(++guard, 10000) << "scan failed to terminate";
      JournalRecord out;
      const RecordParse parse =
          decode_journal_record(log.data(), log.size(), offset, &out);
      if (parse.status == RecordParse::Status::kOk) {
        ASSERT_GT(parse.next_offset, offset);
        ASSERT_LE(parse.next_offset, log.size());
        offset = parse.next_offset;
        continue;
      }
      if (parse.status != RecordParse::Status::kEndOfLog) {
        EXPECT_LE(parse.error_offset, log.size());
        EXPECT_FALSE(parse.error.empty());
      }
      break;
    }
  }
}

// --- SimBackend --------------------------------------------------------------

TEST(SimBackend, CrashDropsEverythingUnsynced) {
  SimBackend backend;
  backend.create("seg-a");
  const std::uint8_t bytes[] = {1, 2, 3, 4, 5, 6};
  backend.append("seg-a", bytes, 4);
  backend.sync("seg-a");
  backend.append("seg-a", bytes + 4, 2);
  EXPECT_EQ(backend.read("seg-a").size(), 6u);
  EXPECT_EQ(backend.durable_bytes("seg-a"), 4u);

  backend.crash();
  EXPECT_EQ(backend.read("seg-a").size(), 4u);
  EXPECT_EQ(backend.crashes(), 1u);
  EXPECT_EQ(backend.bytes_dropped(), 2u);
}

TEST(SimBackend, TornTailKeepsAPartialSector) {
  SimBackend backend;
  backend.create("seg-a");
  const std::uint8_t bytes[] = {1, 2, 3, 4, 5, 6, 7, 8};
  backend.append("seg-a", bytes, 2);
  backend.sync("seg-a");
  backend.append("seg-a", bytes + 2, 6);

  backend.arm_torn_tail(3);
  backend.crash();
  // Durable prefix (2) + 3 torn bytes survive; the rest is gone.  What
  // survived a crash is on stable storage now, torn or not.
  EXPECT_EQ(backend.read("seg-a").size(), 5u);
  EXPECT_EQ(backend.torn_tails_applied(), 1u);
  EXPECT_EQ(backend.durable_bytes("seg-a"), 5u);

  // The torn tail is one-shot: a second crash keeps exactly the same bytes
  // and tears nothing further.
  backend.crash();
  EXPECT_EQ(backend.read("seg-a").size(), 5u);
  EXPECT_EQ(backend.torn_tails_applied(), 1u);
}

TEST(SimBackend, FsyncLapsesSilentlySkipSyncs) {
  SimBackend backend;
  backend.create("seg-a");
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  backend.append("seg-a", bytes, 4);
  backend.lapse_fsyncs(2);
  backend.sync("seg-a");
  backend.sync("seg-a");
  EXPECT_EQ(backend.durable_bytes("seg-a"), 0u);  // the firmware lied twice
  EXPECT_EQ(backend.syncs_lapsed(), 2u);
  backend.sync("seg-a");
  EXPECT_EQ(backend.durable_bytes("seg-a"), 4u);  // honest again
}

TEST(SimBackend, FlipBitCorruptsOnlyDurableBytes) {
  SimBackend backend;
  backend.create("seg-a");
  const std::uint8_t bytes[] = {0x00, 0x00};
  backend.append("seg-a", bytes, 2);
  backend.flip_bit(7);  // nothing durable yet: no-op
  EXPECT_EQ(backend.bits_flipped(), 0u);
  backend.sync("seg-a");
  backend.flip_bit(3);
  EXPECT_EQ(backend.bits_flipped(), 1u);
  const auto after = backend.read("seg-a");
  EXPECT_NE((after[0] | after[1]), 0);
}

TEST(SimBackend, RenameIsAtomicReplaceAndListSorts) {
  SimBackend backend;
  backend.create("b");
  backend.create("a");
  const std::uint8_t byte = 42;
  backend.append("a", &byte, 1);
  backend.sync("a");
  backend.rename("a", "b");
  const auto names = backend.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "b");
  EXPECT_EQ(backend.read("b").size(), 1u);
  EXPECT_EQ(backend.durable_bytes("b"), 1u);  // durability travels with it
  backend.remove("b");
  EXPECT_TRUE(backend.list().empty());
}

// --- FileBackend -------------------------------------------------------------

TEST(FileBackend, RoundTripsAgainstARealDirectory) {
  char tmpl[] = "/tmp/mic_journal_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  {
    FileBackend backend(dir);
    backend.create("seg-b");
    backend.create("seg-a");
    const std::uint8_t bytes[] = {9, 8, 7};
    backend.append("seg-a", bytes, 3);
    backend.sync("seg-a");
    EXPECT_EQ(backend.read("seg-a"), std::vector<std::uint8_t>({9, 8, 7}));
    const auto names = backend.list();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "seg-a");  // sorted
    backend.rename("seg-a", "seg-b");
    EXPECT_EQ(backend.read("seg-b").size(), 3u);
    backend.remove("seg-b");
    EXPECT_TRUE(backend.list().empty());
  }
  ::rmdir(dir.c_str());
}

TEST(FileBackend, StoreSurvivesAProcessRestart) {
  // Same engine, real files: a second JournalStore adopting the directory
  // recovers exactly what the first one wrote.
  char tmpl[] = "/tmp/mic_journal_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  {
    FileBackend backend(dir);
    JournalStore store(backend);
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      store.append(sample_record(seq, JournalRecordType::kEstablish));
    }
  }
  {
    FileBackend backend(dir);
    JournalStore store(backend);
    const JournalLoadResult loaded = store.load();
    EXPECT_TRUE(loaded.clean) << loaded.error;
    ASSERT_EQ(loaded.records.size(), 3u);
    expect_equal_records(loaded.records[1],
                         sample_record(2, JournalRecordType::kEstablish));
    for (const std::string& name : backend.list()) backend.remove(name);
  }
  ::rmdir(dir.c_str());
}

// --- segment engine ----------------------------------------------------------

TEST(JournalStoreEngine, FsyncPolicyDrivesTheDurabilityFrontier) {
  {  // every record
    SimBackend backend;
    JournalStore store(backend);
    store.append(sample_record(1, JournalRecordType::kEstablish));
    EXPECT_EQ(store.records_durable(), 1u);
  }
  {  // every N
    SimBackend backend;
    JournalStoreOptions options;
    options.fsync_policy = FsyncPolicy::kEveryN;
    options.fsync_every_n = 3;
    JournalStore store(backend, options);
    store.append(sample_record(1, JournalRecordType::kEstablish));
    store.append(sample_record(2, JournalRecordType::kEstablish));
    EXPECT_EQ(store.records_durable(), 0u);
    store.append(sample_record(3, JournalRecordType::kEstablish));
    EXPECT_EQ(store.records_durable(), 3u);
    store.append(sample_record(4, JournalRecordType::kEstablish));
    EXPECT_EQ(store.records_durable(), 3u);
    store.commit_boundary();  // flushes the pending tail too
    EXPECT_EQ(store.records_durable(), 4u);
  }
  {  // commit boundary
    SimBackend backend;
    JournalStoreOptions options;
    options.fsync_policy = FsyncPolicy::kCommitBoundary;
    JournalStore store(backend, options);
    store.append(sample_record(1, JournalRecordType::kEstablish));
    store.append(sample_record(2, JournalRecordType::kEstablish));
    EXPECT_EQ(store.records_durable(), 0u);
    store.commit_boundary();
    EXPECT_EQ(store.records_durable(), 2u);
    EXPECT_GT(store.syncs_requested(), 0u);
  }
}

TEST(JournalStoreEngine, SegmentsRotateAndCompactionSwapsAtomically) {
  SimBackend backend;
  JournalStoreOptions options;
  options.segment_rotate_bytes = 512;  // tiny: force rotations
  JournalStore store(backend, options);

  std::vector<JournalRecord> live;
  for (std::uint64_t seq = 1; seq <= 12; ++seq) {
    store.append(sample_record(seq, JournalRecordType::kEstablish));
    if (seq > 9) {
      live.push_back(sample_record(seq, JournalRecordType::kSnapshot));
    }
  }
  EXPECT_GT(store.segments_rotated(), 0u);
  EXPECT_GT(store.segment_count(), 1u);
  EXPECT_EQ(store.load().records.size(), 12u);

  store.compact(live);
  EXPECT_EQ(store.compactions(), 1u);
  EXPECT_EQ(store.segment_count(), 1u);
  // Nothing of the scratch file or old segments remains in the backend.
  for (const std::string& name : backend.list()) {
    EXPECT_EQ(name.rfind("seg-", 0), 0u) << name;
  }
  const JournalLoadResult loaded = store.load();
  EXPECT_TRUE(loaded.clean) << loaded.error;
  ASSERT_EQ(loaded.records.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    expect_equal_records(loaded.records[i], live[i]);
  }
  // The engine appends past a compaction without skipping a beat.
  store.append(sample_record(13, JournalRecordType::kTeardown));
  EXPECT_EQ(store.load().records.size(), live.size() + 1);
}

/// Forwards every op to an inner SimBackend while recording it, so a test
/// can re-apply an op prefix to a fresh backend and observe the exact
/// on-disk state a crash at that point would leave behind.
class RecordingBackend final : public StorageBackend {
 public:
  struct Op {
    enum class Kind : std::uint8_t { kCreate, kAppend, kSync, kRename, kRemove };
    Kind kind;
    std::string name;
    std::string to;                   // kRename only
    std::vector<std::uint8_t> data;   // kAppend only
  };

  void create(const std::string& name) override {
    ops.push_back({Op::Kind::kCreate, name, {}, {}});
    inner.create(name);
  }
  void append(const std::string& name, const std::uint8_t* data,
              std::size_t size) override {
    ops.push_back({Op::Kind::kAppend, name, {}, {data, data + size}});
    inner.append(name, data, size);
  }
  void sync(const std::string& name) override {
    ops.push_back({Op::Kind::kSync, name, {}, {}});
    inner.sync(name);
  }
  void rename(const std::string& from, const std::string& to) override {
    ops.push_back({Op::Kind::kRename, from, to, {}});
    inner.rename(from, to);
  }
  void remove(const std::string& name) override {
    ops.push_back({Op::Kind::kRemove, name, {}, {}});
    inner.remove(name);
  }
  std::vector<std::string> list() const override { return inner.list(); }
  std::vector<std::uint8_t> read(const std::string& name) const override {
    return inner.read(name);
  }

  /// Rebuild the backend state after the first `count` ops, then power-cut.
  static SimBackend replay_and_crash(const std::vector<Op>& ops,
                                     std::size_t count) {
    SimBackend backend;
    for (std::size_t i = 0; i < count; ++i) {
      const Op& op = ops[i];
      switch (op.kind) {
        case Op::Kind::kCreate: backend.create(op.name); break;
        case Op::Kind::kAppend:
          backend.append(op.name, op.data.data(), op.data.size());
          break;
        case Op::Kind::kSync: backend.sync(op.name); break;
        case Op::Kind::kRename: backend.rename(op.name, op.to); break;
        case Op::Kind::kRemove: backend.remove(op.name); break;
      }
    }
    backend.crash();
    return backend;
  }

  SimBackend inner;
  std::vector<Op> ops;
};

TEST(JournalStoreEngine, CompactionSurvivesACrashAtEveryOp) {
  // The committed image must survive power loss at *any* point inside
  // compact()'s create/append/sync/rename/remove sequence.  The regression
  // this pins down: removing the old segments before renaming the scratch
  // into place left a window where the only copy of the log was a file the
  // next startup discards.
  RecordingBackend recorder;
  JournalStoreOptions options;
  options.segment_rotate_bytes = 512;  // several segments => several removes
  JournalStore store(recorder, options);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    store.append(sample_record(seq, JournalRecordType::kEstablish));
  }
  // Tear down record 2's channel so the old history holds a dead channel:
  // a crash-recovered log must not resurrect it.
  JournalRecord teardown = sample_record(5, JournalRecordType::kTeardown);
  teardown.channel = sample_record(2, JournalRecordType::kEstablish).channel;
  store.append(teardown);
  ASSERT_GT(store.segment_count(), 1u);

  const auto fold = [](const JournalLoadResult& loaded) {
    ChannelJournal journal;
    for (const JournalRecord& record : loaded.records) {
      journal.adopt_record(record);
    }
    return journal.replay();
  };
  const JournalImage expected = fold(store.load());
  ASSERT_EQ(expected.channels.size(), 3u);

  std::vector<JournalRecord> live;
  for (const auto& [id, state] : expected.channels) {
    JournalRecord snapshot;
    snapshot.type = JournalRecordType::kSnapshot;
    snapshot.channel = id;
    snapshot.state = state;
    snapshot.next_channel = expected.next_channel;
    snapshot.next_group = expected.next_group;
    live.push_back(std::move(snapshot));
  }
  const std::size_t ops_before = recorder.ops.size();
  store.compact(live);

  for (std::size_t cut = ops_before; cut <= recorder.ops.size(); ++cut) {
    SimBackend at_crash =
        RecordingBackend::replay_and_crash(recorder.ops, cut);
    JournalStore reopened(at_crash, options);
    const JournalImage image = fold(reopened.load());
    ASSERT_EQ(image.channels.size(), expected.channels.size())
        << "cut=" << cut;
    for (const auto& [id, state] : expected.channels) {
      ASSERT_TRUE(image.channels.contains(id)) << "cut=" << cut;
      EXPECT_TRUE(structurally_equal(image.channels.at(id), state))
          << "cut=" << cut;
    }
    EXPECT_EQ(image.next_channel, expected.next_channel) << "cut=" << cut;
    EXPECT_EQ(image.next_group, expected.next_group) << "cut=" << cut;
  }
}

TEST(JournalStoreEngine, StrayFilesAreNeverAdoptedAsSegments) {
  // Files the engine did not write -- wrong prefix, non-digit suffix, or
  // names too short to even hold "seg-" -- must not corrupt segment
  // accounting or be decoded as journal history.
  SimBackend backend;
  const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef};
  for (const char* name : {"x", "seg", "seg-", "seg-12ab", "notes.txt"}) {
    backend.create(name);
    backend.append(name, junk, sizeof(junk));
    backend.sync(name);
  }
  JournalStore store(backend);
  store.append(sample_record(1, JournalRecordType::kEstablish));
  const JournalLoadResult loaded = store.load();
  EXPECT_TRUE(loaded.clean) << loaded.error;
  ASSERT_EQ(loaded.records.size(), 1u);
  expect_equal_records(loaded.records[0],
                       sample_record(1, JournalRecordType::kEstablish));
  EXPECT_EQ(store.segment_count(), 1u);
}

TEST(JournalStoreEngine, CrashRecoveryDegradesToEndOfLog) {
  SimBackend backend;
  JournalStoreOptions options;
  options.fsync_policy = FsyncPolicy::kCommitBoundary;
  JournalStore store(backend, options);
  store.append(sample_record(1, JournalRecordType::kEstablish));
  store.append(sample_record(2, JournalRecordType::kEstablish));
  store.commit_boundary();
  store.append(sample_record(3, JournalRecordType::kEstablish));

  // Torn tail: a few bytes of record 3's frame survive the power cut.  The
  // scan recovers records 1-2 and reports exactly where the log tore.
  backend.arm_torn_tail(5);
  backend.crash();
  JournalStore reopened(backend, options);
  const JournalLoadResult loaded = reopened.load();
  EXPECT_FALSE(loaded.clean);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_FALSE(loaded.error.empty());
  EXPECT_EQ(loaded.error_segment.rfind("seg-", 0), 0u);
  EXPECT_GT(loaded.error_offset, 0u);

  // A clean cut at the durable frontier parses clean: end-of-log is not an
  // error when the last record is whole.
  SimBackend backend2;
  JournalStore store2(backend2);
  store2.append(sample_record(1, JournalRecordType::kEstablish));
  backend2.crash();
  JournalStore reopened2(backend2);
  const JournalLoadResult loaded2 = reopened2.load();
  EXPECT_TRUE(loaded2.clean) << loaded2.error;
  EXPECT_EQ(loaded2.records.size(), 1u);
}

// --- ChannelJournal integration ---------------------------------------------

TEST(JournalStoreEngine, JournalShipsOnlyDurableRecords) {
  // The replication contract: with a kCommitBoundary store attached, an
  // appended record reaches the commit listener only at the boundary --
  // and a record the disk never synced is a record no follower ever saw.
  SimBackend backend;
  JournalStoreOptions options;
  options.fsync_policy = FsyncPolicy::kCommitBoundary;
  JournalStore store(backend, options);

  ChannelJournal journal;
  journal.attach_store(&store);
  journal.set_epoch(1);
  std::vector<std::uint64_t> shipped;
  journal.set_commit_listener(
      [&shipped](const JournalRecord& record) { shipped.push_back(record.seq); });

  ChannelState state = sample_record(1, JournalRecordType::kEstablish).state;
  journal.record_establish(state, state.id + 1, 200);
  EXPECT_TRUE(shipped.empty());  // appended, not yet durable
  journal.commit_boundary();
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(journal.records_shipped(), 1u);

  journal.record_teardown(state.id);
  EXPECT_EQ(shipped.size(), 1u);
  journal.commit_boundary();
  EXPECT_EQ(shipped.size(), 2u);

  // A late subscriber catches up on the committed prefix immediately.
  std::vector<std::uint64_t> late;
  journal.set_commit_listener(
      [&late](const JournalRecord& record) { late.push_back(record.seq); });
  EXPECT_EQ(late, shipped);
}

TEST(JournalStoreEngine, ControllerJournalPersistsAndReloads) {
  // End-to-end with a live fabric: attach a store to the MC's journal,
  // establish real channels, then rebuild a journal purely from the stored
  // bytes and check it replays to the same image the MC carries.
  Fabric fabric;
  SimBackend backend;
  JournalStore store(backend);
  fabric.mc().journal().attach_store(&store);

  MicServer server(fabric.host(12), 7000, fabric.rng());
  server.set_on_channel([](MicServerChannel&) {});
  MicChannelOptions o;
  o.responder_ip = fabric.ip(12);
  o.responder_port = 7000;
  MicChannel c1(fabric.host(0), fabric.mc(), o, fabric.rng());
  MicChannel c2(fabric.host(3), fabric.mc(), o, fabric.rng());
  fabric.simulator().run_until();
  ASSERT_TRUE(c1.ready() && c2.ready());

  const JournalLoadResult loaded = store.load();
  EXPECT_TRUE(loaded.clean) << loaded.error;
  ChannelJournal rebuilt;
  for (const JournalRecord& record : loaded.records) {
    rebuilt.adopt_record(record);
  }
  const JournalImage from_disk = rebuilt.replay();
  const JournalImage from_memory = fabric.mc().journal().replay();
  ASSERT_EQ(from_disk.channels.size(), from_memory.channels.size());
  for (const auto& [id, state] : from_memory.channels) {
    ASSERT_TRUE(from_disk.channels.contains(id));
    EXPECT_TRUE(structurally_equal(from_disk.channels.at(id), state));
  }
  EXPECT_EQ(from_disk.next_channel, from_memory.next_channel);
  EXPECT_EQ(from_disk.next_group, from_memory.next_group);
  EXPECT_EQ(from_disk.epoch, from_memory.epoch);
}

// --- compaction rule ---------------------------------------------------------

TEST(JournalCompaction, StaysGeometricUnderChurnPastTheFloor) {
  // 1,500 live channels through a store, then 3,000 teardown/establish
  // pairs: the log stays within 1.25x its post-compaction size, and every
  // compaction is paid for by at least a quarter of a log of appends.
  SimBackend backend;
  JournalStore store(backend);
  ChannelJournal journal;
  journal.attach_store(&store);
  journal.set_epoch(1);
  // A follower adopting the shipped stream compacts by the same rule.
  ChannelJournal follower;
  journal.set_commit_listener([&follower](const JournalRecord& record) {
    follower.adopt_record(record);
  });

  std::uint64_t next = 1;
  std::deque<ChannelId> live;
  std::size_t last = 0;  // journal size right after its latest compaction
  std::uint64_t compactions_seen = 0;
  std::size_t worst_excess = 0;  // records beyond the bound, worst case
  auto establish = [&] {
    const ChannelState state =
        sample_record(next++, JournalRecordType::kEstablish).state;
    journal.record_establish(state, state.id + 1,
                             static_cast<std::uint32_t>(next));
    live.push_back(state.id);
  };
  auto check = [&] {
    if (journal.compactions() != compactions_seen) {
      compactions_seen = journal.compactions();
      last = journal.size();
    }
    const std::size_t bound = compaction_bound(last);
    if (journal.size() > bound) {
      worst_excess = std::max(worst_excess, journal.size() - bound);
    }
  };
  for (int i = 0; i < 1500; ++i) {
    establish();
    check();
  }
  for (int pair = 0; pair < 3000; ++pair) {
    journal.record_teardown(live.front());
    live.pop_front();
    check();
    establish();
    check();
  }

  EXPECT_EQ(worst_excess, 0u);
  EXPECT_GT(journal.compactions(), 0u);
  EXPECT_LE(journal.compactions(), 20u);
  EXPECT_EQ(store.compactions(), journal.compactions());
  EXPECT_GT(follower.compactions(), 0u);
  EXPECT_LE(follower.size(), compaction_bound(live.size()));

  const JournalImage leader_image = journal.replay();
  const JournalImage follower_image = follower.replay();
  ASSERT_EQ(leader_image.channels.size(), live.size());
  ASSERT_EQ(follower_image.channels.size(), live.size());
  for (const auto& [id, state] : leader_image.channels) {
    ASSERT_TRUE(follower_image.channels.contains(id));
    EXPECT_TRUE(structurally_equal(follower_image.channels.at(id), state));
  }
  EXPECT_EQ(follower_image.next_channel, leader_image.next_channel);
  EXPECT_EQ(follower_image.next_group, leader_image.next_group);
  EXPECT_EQ(follower_image.epoch, leader_image.epoch);
}

TEST(JournalCompaction, ControllerChurnPastTheFloorIsAmortized) {
  // A k=8 controller journaling to a store, past the 1,024-record floor:
  // 1,100 establishes, then 400 teardown/establish pairs.  An absolute
  // threshold compacts (and rewrites the store) on nearly every append
  // here; the geometric rule compacts a handful of times.
  FabricOptions fo;
  fo.k = 8;
  Fabric fabric(fo);
  SimBackend backend;
  JournalStore store(backend);
  fabric.mc().journal().attach_store(&store);
  MimicController& mc = fabric.mc();

  Rng rng(7);
  std::vector<net::L4Port> next_sport(fabric.host_count(), 1024);
  std::deque<ChannelId> live;
  int requests = 0;
  auto establish = [&] {
    const std::size_t a = rng.below(fabric.host_count());
    std::size_t b = rng.below(fabric.host_count() - 1);
    if (b >= a) ++b;
    EstablishRequest request;
    request.initiator_ip = fabric.ip(a);
    request.responder_ip = fabric.ip(b);
    request.responder_port = 7000;
    request.initiator_sports = {next_sport[a]++};
    const EstablishResult result = mc.establish(request);
    if (result.ok) live.push_back(result.channel);
    if (++requests % 200 == 0) fabric.simulator().run_until();
  };
  for (int i = 0; i < 1100; ++i) establish();
  for (int pair = 0; pair < 400; ++pair) {
    mc.teardown(live.front());
    live.pop_front();
    establish();
  }
  fabric.simulator().run_until();

  EXPECT_GT(live.size(), ChannelJournal::kCompactionFloor);
  EXPECT_EQ(mc.active_channel_count(), live.size());
  EXPECT_GT(mc.journal().compactions(), 0u);
  EXPECT_LE(mc.journal().compactions(), 6u);
  EXPECT_EQ(mc.journal().replay().channels.size(), live.size());
}

}  // namespace
}  // namespace mic::core

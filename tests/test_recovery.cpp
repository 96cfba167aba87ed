// Controller crash-recovery: the write-ahead channel journal (round-trip,
// compaction, truncation), crash()/recover() with switch resync and
// orphan-rule reconciliation (RC-1), client-side survival of controller
// silence (establishment timeout, heartbeat re-attach), selective L3
// reinstall counters, and recovery of synchronously established channels.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/audit_registry.hpp"
#include "core/channel_journal.hpp"
#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "topology/fattree.hpp"

namespace mic::core {
namespace {

/// Fabric + responder + one-line counters, like the chaos-test beds.
struct RecoveryBed {
  explicit RecoveryBed(FabricOptions fo = {}) : fabric(fo) {
    server = std::make_unique<MicServer>(fabric.host(12), 7000, fabric.rng());
    server->set_on_channel([this](MicServerChannel& channel) {
      channel.set_on_data([this](const transport::ChunkView& view) {
        received += view.length;
      });
    });
  }

  MicChannelOptions options() {
    MicChannelOptions o;
    o.responder_ip = fabric.ip(12);
    o.responder_port = 7000;
    return o;
  }

  std::unique_ptr<MicChannel> client(std::size_t host,
                                     MicChannelOptions o) {
    return std::make_unique<MicChannel>(fabric.host(host), fabric.mc(), o,
                                        fabric.rng());
  }

  void run() { fabric.simulator().run_until(); }
  void run_for(sim::SimTime dt) {
    fabric.simulator().run_until(fabric.simulator().now() + dt);
  }

  Fabric fabric;
  std::unique_ptr<MicServer> server;
  std::uint64_t received = 0;
};

// --- journal -----------------------------------------------------------------

TEST(ChannelJournal, ReplayMatchesLiveChannelsAcrossTeardown) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready());
  ASSERT_TRUE(c2->ready());

  const ChannelJournal& journal = bed.fabric.mc().journal();
  JournalImage image = journal.replay();
  ASSERT_EQ(image.channels.size(), 2u);
  for (const ChannelId id : bed.fabric.mc().channel_ids()) {
    ASSERT_TRUE(image.channels.contains(id));
    EXPECT_TRUE(
        structurally_equal(image.channels.at(id), *bed.fabric.mc().channel(id)));
  }
  // The high-water marks cover every id that may be wired into a switch.
  EXPECT_GT(image.next_channel, c2->id());

  // A teardown folds into the replay as an absence, not a special case.
  const ChannelId gone = c1->id();
  c1->close();
  bed.run();
  image = bed.fabric.mc().journal().replay();
  EXPECT_EQ(image.channels.size(), 1u);
  EXPECT_FALSE(image.channels.contains(gone));
  EXPECT_GE(journal.appends(), 3u);  // two establishes + a tombstone
}

TEST(ChannelJournal, AutoCompactionBoundsTheLog) {
  // Churn on a bare journal: establish + teardown repeatedly so tombstones
  // pile up past the compaction floor and compaction rewrites the log as
  // snapshots, while one keeper channel stays live throughout.
  auto state_of = [](ChannelId id) {
    ChannelState state;
    state.id = id;
    state.initiator = 0;
    state.responder = 12;
    state.install_txn = 1;
    return state;
  };
  ChannelJournal journal;
  const ChannelId keeper = 1;
  journal.record_establish(state_of(keeper), keeper + 1, 1);
  ChannelId next = keeper + 1;
  std::uint32_t next_group = 1;
  for (std::size_t i = 0; i < ChannelJournal::kCompactionFloor; ++i) {
    journal.record_establish(state_of(next), next + 1, ++next_group);
    journal.record_teardown(next++);
    ASSERT_LE(journal.size(), ChannelJournal::kCompactionFloor);
  }

  EXPECT_GT(journal.compactions(), 0u);
  const JournalImage image = journal.replay();
  ASSERT_EQ(image.channels.size(), 1u);
  EXPECT_TRUE(image.channels.contains(keeper));
  // Compaction must not lose the allocator high-water marks.
  EXPECT_EQ(image.next_channel, next);
  EXPECT_EQ(image.next_group, next_group);
}

TEST(ChannelJournal, TruncateTailModelsACrashMidCommit) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  bed.run();
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready());
  ASSERT_TRUE(c2->ready());

  ChannelJournal damaged = bed.fabric.mc().journal();
  damaged.truncate_tail(1);  // the second establish never hit stable storage
  const JournalImage image = damaged.replay();
  ASSERT_EQ(image.channels.size(), 1u);
  EXPECT_TRUE(image.channels.contains(c1->id()));
  EXPECT_FALSE(image.channels.contains(c2->id()));
}

// --- crash / recover ---------------------------------------------------------

TEST(CrashRecovery, DataPlaneOutlivesACrashedController) {
  RecoveryBed bed;
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());

  bed.fabric.mc().crash();
  EXPECT_TRUE(bed.fabric.mc().crashed());

  // Control plane: silent (a synchronous establish is refused, the async
  // path simply never answers).
  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(1);
  request.responder_ip = bed.fabric.ip(12);
  request.responder_port = 7000;
  request.initiator_sports = {41001};
  EXPECT_FALSE(bed.fabric.mc().establish(request).ok);

  // Data plane: the installed rules keep forwarding without the MC.
  constexpr std::uint64_t kBytes = 128 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);

  const auto report = bed.fabric.mc().recover(bed.fabric.mc().journal());
  EXPECT_FALSE(bed.fabric.mc().crashed());
  EXPECT_EQ(report.channels_recovered, 1u);
  bed.run();
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

TEST(CrashRecovery, CleanJournalRecoversEverythingInPlace) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready() && c2->ready());
  const std::uint64_t rules_before =
      audit::run_all(bed.fabric).check("FD-1").metric("mflow_rules");

  bed.fabric.mc().crash();
  const auto report = bed.fabric.mc().recover(bed.fabric.mc().journal());
  bed.run();

  // Nothing moved: every switch already held exactly its journaled rules,
  // so recovery verifies in place and issues zero flow-mods.
  EXPECT_EQ(report.channels_recovered, 2u);
  EXPECT_EQ(report.channels_kept, 2u);
  EXPECT_EQ(report.channels_reinstalled, 0u);
  EXPECT_EQ(report.channels_replanned, 0u);
  EXPECT_EQ(report.channels_lost, 0u);
  EXPECT_EQ(report.orphan_rules_removed, 0u);
  EXPECT_GT(report.switches_resynced, 0u);

  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
  EXPECT_EQ(audit.check("FD-1").metric("mflow_rules"), rules_before);

  // Surviving channels still deliver byte-for-byte.
  constexpr std::uint64_t kBytes = 64 * 1024;
  c1->send(transport::Chunk::virtual_bytes(kBytes));
  c2->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, 2 * kBytes);
  EXPECT_EQ(bed.fabric.mc().crashes(), 1u);
}

TEST(CrashRecovery, TruncatedJournalSweepsTheUnexplainedChannel) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  bed.run();
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready() && c2->ready());

  bed.fabric.mc().crash();
  ChannelJournal damaged = bed.fabric.mc().journal();
  damaged.truncate_tail(1);  // c2's establish record is gone
  const auto report = bed.fabric.mc().recover(damaged);
  bed.run();

  // The journal can no longer explain c2's rules: reconcile-by-audit tears
  // down every cookie the replayed image does not own.
  EXPECT_EQ(report.channels_recovered, 1u);
  EXPECT_GT(report.orphan_rules_removed, 0u);
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 1u);
  EXPECT_EQ(bed.fabric.mc().channel(c2->id()), nullptr);

  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  // The survivor is untouched.
  constexpr std::uint64_t kBytes = 64 * 1024;
  c1->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
}

TEST(CrashRecovery, RecoveryRepairsChannelsWhoseLinksDiedMeanwhile) {
  // The MC is down when a path link fails: nobody repairs, nothing is
  // lost -- recovery's failure-view resync derives the cut from the PHY
  // and re-plans the stranded channel before reopening the control plane.
  RecoveryBed bed;
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());
  const auto& plan = bed.fabric.mc().channel(client->id())->flows[0];
  const topo::LinkId victim = bed.fabric.network().graph().link_between(
      plan.path[plan.path.size() / 2], plan.path[plan.path.size() / 2 + 1]);

  bed.fabric.mc().crash();
  bed.fabric.network().set_link_up(victim, false);
  bed.run();  // the port-status reports fall on deaf ears

  const auto report = bed.fabric.mc().recover(bed.fabric.mc().journal());
  bed.run();
  EXPECT_GT(report.links_resynced, 0u);
  EXPECT_EQ(report.channels_replanned, 1u);
  EXPECT_TRUE(bed.fabric.mc().failed_links().contains(victim));

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);

  bed.fabric.network().set_link_up(victim, true);
  bed.run();
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

// --- client-side survival ----------------------------------------------------

TEST(ClientSurvival, EstablishmentRetriesAcrossControllerOutage) {
  RecoveryBed bed;
  bed.fabric.mc().crash();

  // Recovery lands 5 ms in; the client's timeout machinery must bridge it.
  bed.fabric.simulator().schedule_in(sim::milliseconds(5), [&bed] {
    bed.fabric.mc().recover(bed.fabric.mc().journal());
  });

  MicChannelOptions o = bed.options();
  o.control_timeout = sim::milliseconds(1);
  o.control_retry_limit = 16;
  auto client = bed.client(0, o);
  bed.run();

  EXPECT_TRUE(client->ready());
  EXPECT_FALSE(client->failed());
  EXPECT_GE(client->controller_silences(), 1u);

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

TEST(ClientSurvival, SilenceBudgetExhaustionFailsTheChannel) {
  RecoveryBed bed;
  bed.fabric.mc().crash();  // and never recovers

  MicChannelOptions o = bed.options();
  o.control_timeout = sim::milliseconds(1);
  o.control_retry_limit = 3;
  auto client = bed.client(0, o);
  bed.run();

  EXPECT_TRUE(client->failed());
  EXPECT_FALSE(client->ready());
  EXPECT_EQ(client->controller_silences(), 4u);  // limit + the final straw
  EXPECT_NE(client->error().find("unreachable"), std::string::npos);
}

TEST(ClientSurvival, HeartbeatReattachesTheListenerAfterRecovery) {
  // crash() wipes channel listeners; without the heartbeat a kept channel
  // would never hear about later repairs.  The probe re-registers on its
  // next beat, so a post-recovery link cut is announced as kRepaired.
  RecoveryBed bed;
  MicChannelOptions o = bed.options();
  o.heartbeat_interval = sim::milliseconds(1);
  // Generous: the first contact pays the ~4.5 ms DH key exchange before
  // the request even leaves, and that must not read as MC silence.
  o.control_timeout = sim::milliseconds(10);
  auto client = bed.client(0, o);
  bed.run_for(sim::milliseconds(20));
  ASSERT_TRUE(client->ready());

  bed.fabric.mc().crash();
  bed.fabric.mc().recover(bed.fabric.mc().journal());
  ASSERT_EQ(bed.fabric.mc().last_recovery().channels_kept, 1u);
  bed.run_for(sim::milliseconds(5));  // at least one heartbeat round trip

  const auto& plan = bed.fabric.mc().channel(client->id())->flows[0];
  const topo::LinkId victim = bed.fabric.network().graph().link_between(
      plan.path[plan.path.size() / 2], plan.path[plan.path.size() / 2 + 1]);
  bed.fabric.network().set_link_up(victim, false);
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(client->repair_count(), 1u);  // the re-registered listener heard

  bed.fabric.network().set_link_up(victim, true);
  bed.run_for(sim::milliseconds(5));
  const audit::RunReport report = audit::run_all(bed.fabric);
  EXPECT_TRUE(report.ok) << report.first_violation();

  // close() stops the heartbeat, so the simulator can actually drain.
  client->close();
  bed.run();
  EXPECT_TRUE(bed.fabric.simulator().idle());
}

TEST(ClientSurvival, ProbeReportsDeadChannelAndClientReestablishes) {
  // The client's channel was in the truncated journal tail: recovery
  // swept its rules, the heartbeat learns the channel is gone, and
  // auto-reestablishment builds a fresh one.
  RecoveryBed bed;
  MicChannelOptions o = bed.options();
  o.heartbeat_interval = sim::milliseconds(1);
  o.control_timeout = sim::milliseconds(10);
  o.auto_reestablish = true;
  auto client = bed.client(0, o);
  bed.run_for(sim::milliseconds(20));
  ASSERT_TRUE(client->ready());

  bed.fabric.mc().crash();
  ChannelJournal damaged = bed.fabric.mc().journal();
  damaged.truncate_tail(damaged.size());  // stable storage lost everything
  const auto report = bed.fabric.mc().recover(damaged);
  EXPECT_EQ(report.channels_recovered, 0u);
  EXPECT_GT(report.orphan_rules_removed, 0u);

  bed.run_for(sim::milliseconds(30));
  EXPECT_TRUE(client->ready());
  EXPECT_FALSE(client->failed());
  EXPECT_GE(client->reestablish_attempts(), 1);

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run_for(sim::milliseconds(50));
  EXPECT_EQ(bed.received, kBytes);
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  client->close();
  bed.run();
  EXPECT_TRUE(bed.fabric.simulator().idle());
}

// --- selective L3 reinstall (satellite) --------------------------------------

TEST(SelectiveReroute, OnlySwitchesWithChangedNextHopsReinstall) {
  RecoveryBed bed;
  const ctrl::RerouteStats before = bed.fabric.mc().reroute_stats();

  // Cut one core-aggregation link.  In a k=4 fat-tree most switches keep
  // identical next-hop sets (multipath absorbs the loss), so the reroute
  // must skip them and reinstall only the switches the cut actually moved.
  const auto& graph = bed.fabric.network().graph();
  topo::LinkId victim = topo::kInvalidLink;
  for (const topo::NodeId core : bed.fabric.fattree().core_switches()) {
    for (const auto& adj : graph.neighbors(core)) {
      victim = adj.link;
      break;
    }
    if (victim != topo::kInvalidLink) break;
  }
  ASSERT_NE(victim, topo::kInvalidLink);
  bed.fabric.network().set_link_up(victim, false);
  bed.run();

  const ctrl::RerouteStats after = bed.fabric.mc().reroute_stats();
  EXPECT_GT(after.reroutes, before.reroutes);
  EXPECT_GT(after.switches_scanned, before.switches_scanned);
  EXPECT_GT(after.switches_reinstalled, before.switches_reinstalled);
  EXPECT_GT(after.switches_skipped, before.switches_skipped);
  EXPECT_EQ(after.switches_scanned,
            after.switches_reinstalled + after.switches_skipped);

  bed.fabric.network().set_link_up(victim, true);
  bed.run();
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

// --- synchronous establishment ----------------------------------------------

TEST(CrashRecovery, SynchronouslyEstablishedChannelsRecoverInPlace) {
  RecoveryBed bed;
  bed.fabric.host(13).listen(7100, [](transport::TcpConnection&) {});

  // Interleave two destinations and vary flow counts so each result is
  // attributable to its request by shape.
  std::vector<EstablishRequest> requests;
  std::vector<EstablishResult> results;
  for (int i = 0; i < 4; ++i) {
    EstablishRequest r;
    r.initiator_ip = bed.fabric.ip(static_cast<std::size_t>(i));
    r.responder_ip = bed.fabric.ip(i % 2 == 0 ? 12 : 13);
    r.responder_port = i % 2 == 0 ? 7000 : 7100;
    r.flow_count = 1 + i % 3;
    r.initiator_sports.clear();
    for (int f = 0; f < r.flow_count; ++f) {
      r.initiator_sports.push_back(
          static_cast<net::L4Port>(42000 + 10 * i + f));
    }
    requests.push_back(r);
    results.push_back(bed.fabric.mc().establish(r));
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].entries.size(),
              static_cast<std::size_t>(requests[i].flow_count));
  }
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), requests.size());
  // Distinct channels throughout.
  std::vector<ChannelId> ids;
  for (const auto& r : results) ids.push_back(r.channel);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);

  // Synchronous establishments are journaled like asynchronous ones: a
  // crash right now recovers all of them in place.
  bed.fabric.mc().crash();
  const auto report = bed.fabric.mc().recover(bed.fabric.mc().journal());
  bed.run();
  EXPECT_EQ(report.channels_recovered, requests.size());
  EXPECT_EQ(report.channels_kept, requests.size());
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

// --- partial multicast across repair and recovery ---------------------------

TEST(CrashRecovery, DecoyChannelsReleaseEverythingAfterRepairAndRecovery) {
  // Decoy channels (F=2, N=3, two decoys each) exercise the decoy branch of
  // every per-MN tuple walk: generation, release on repair, re-adoption at
  // recovery, and release at teardown.  After all three, nothing may stay
  // allocated, and fresh decoy channels must plan collision-free.
  RecoveryBed bed;
  auto& mc = bed.fabric.mc();
  const auto establish = [&](int round) {
    std::vector<ChannelId> ids;
    for (const std::size_t host : {0u, 1u, 4u, 5u}) {
      EstablishRequest r;
      r.initiator_ip = bed.fabric.ip(host);
      r.responder_ip = bed.fabric.ip(12);
      r.responder_port = 7000;
      r.flow_count = 2;
      r.mn_count = 3;
      r.multicast_decoys = 2;
      for (int f = 0; f < r.flow_count; ++f) {
        r.initiator_sports.push_back(static_cast<net::L4Port>(
            43000 + 100 * round + 10 * static_cast<int>(host) + f));
      }
      const EstablishResult result = mc.establish(r);
      EXPECT_TRUE(result.ok) << result.error;
      ids.push_back(result.channel);
    }
    return ids;
  };
  const std::vector<ChannelId> ids = establish(0);
  ASSERT_EQ(mc.active_channel_count(), ids.size());
  for (const ChannelId id : ids) {
    for (const MFlowPlan& plan : mc.channel(id)->flows) {
      ASSERT_EQ(plan.decoys.size(), 2u);
    }
  }
  EXPECT_EQ(mc.registry().active_flow_count(), ids.size() * 2 * 3);
  ASSERT_TRUE(audit::run_all(bed.fabric).ok);

  // Phase 1: cut a core link on the first channel's path; its m-flows are
  // re-planned (new middles and decoys) around the failure.
  const MFlowPlan& plan = mc.channel(ids[0])->flows[0];
  ASSERT_EQ(plan.path.size(), 7u);  // host, edge, agg, core, agg, edge, host
  const topo::LinkId victim =
      bed.fabric.network().graph().link_between(plan.path[3], plan.path[4]);
  bed.fabric.network().set_link_up(victim, false);
  bed.run();
  EXPECT_GE(mc.channels_repaired(), 1u);
  EXPECT_EQ(mc.channels_lost(), 0u);
  EXPECT_EQ(mc.active_channel_count(), ids.size());
  EXPECT_EQ(mc.registry().active_flow_count(), ids.size() * 2 * 3);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);

  // Phase 2: crash and recover from the journal; every channel is re-adopted
  // with its decoys and kept in place.
  mc.crash();
  const auto report = mc.recover(mc.journal());
  bed.run();
  EXPECT_EQ(report.channels_recovered, ids.size());
  EXPECT_EQ(report.channels_kept, ids.size());
  EXPECT_EQ(report.channels_lost, 0u);
  EXPECT_EQ(mc.registry().active_flow_count(), ids.size() * 2 * 3);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);

  bed.fabric.network().set_link_up(victim, true);
  bed.run();
  for (const ChannelId id : ids) mc.teardown(id);
  bed.run();
  EXPECT_EQ(mc.active_channel_count(), 0u);
  EXPECT_EQ(mc.registry().active_flow_count(), 0u);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);

  // Fresh decoy channels reuse the released IDs and tuples collision-free.
  const std::vector<ChannelId> fresh = establish(1);
  EXPECT_EQ(mc.active_channel_count(), fresh.size());
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.check("CA-1").ok);
  EXPECT_TRUE(audit.ok);
}

}  // namespace
}  // namespace mic::core

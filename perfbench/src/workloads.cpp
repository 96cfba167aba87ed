#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>

#include "core/audit_registry.hpp"
#include "core/fabric.hpp"
#include "core/journal_store.hpp"
#include "core/mic_client.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "switchd/sdn_switch.hpp"
#include "transport/arena.hpp"

namespace perfbench {

using namespace mic;

// --- seeded inputs -----------------------------------------------------------

RequestStream::RequestStream(std::uint64_t seed, std::vector<net::Ipv4> hosts)
    : rng_(seed ^ 0x5EED0F5EEDull),
      hosts_(std::move(hosts)),
      ports_used_(hosts_.size(), 0) {}

core::EstablishRequest RequestStream::next() {
  const std::size_t a = rng_.below(hosts_.size());
  std::size_t b = rng_.below(hosts_.size() - 1);
  if (b >= a) ++b;
  core::EstablishRequest request;
  request.initiator_ip = hosts_[a];
  request.responder_ip = hosts_[b];
  request.responder_port = static_cast<net::L4Port>(5000 + rng_.below(1000));
  request.flow_count = 1;
  request.mn_count = 3;
  request.initiator_sports = {
      static_cast<net::L4Port>(1024 + ports_used_[a]++ % 60000)};
  return request;
}

std::vector<std::pair<std::size_t, std::size_t>> cross_pod_pairs(
    std::uint64_t seed, std::size_t host_count, std::size_t pairs) {
  Rng rng(seed ^ 0xC0FFEEull);
  const std::size_t half = host_count / 2;
  std::vector<std::size_t> lower(half), upper(half);
  std::iota(lower.begin(), lower.end(), std::size_t{0});
  std::iota(upper.begin(), upper.end(), half);
  for (auto* side : {&lower, &upper}) {
    for (std::size_t i = side->size(); i > 1; --i) {
      std::swap((*side)[i - 1], (*side)[rng.below(i)]);
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < pairs && i < half; ++i) {
    out.emplace_back(lower[i], upper[i]);
  }
  return out;
}

namespace {

// --- shared set-up -----------------------------------------------------------

constexpr int kFatTreeK = 8;
/// Every timing percentile the benchmark reports as p99 needs at least ten
/// samples beyond it; the measured phase runs until it has this many.
constexpr std::size_t kMinSamples = 1000;
/// Every workload runs its measured sequence this many times, each on a
/// fresh set-up of the seed, and keeps each sample's fastest time (see
/// RepeatMeter).  Odd, so setup_s is the middle set-up.
constexpr std::size_t kRepetitions = 7;

std::unique_ptr<core::Fabric> make_fabric(std::uint64_t seed, Tracer& tracer) {
  Scope span(&tracer, "fabric.construct");
  core::FabricOptions options;
  options.k = kFatTreeK;
  options.seed = seed;
  // The serial engine, pinned: one shard, one thread, no parallel windows.
  options.sim_shards = 1;
  options.sim_threads = 1;
  options.sim_parallel = false;
  return std::make_unique<core::Fabric>(options);
}

std::vector<net::Ipv4> host_ips(core::Fabric& fabric) {
  std::vector<net::Ipv4> ips;
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    ips.push_back(fabric.ip(i));
  }
  return ips;
}

double seconds_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) / 1e9;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0 : percentile(values, 50);
}

/// Whether the current repetition's sequence is complete.  The first
/// repetition measures until at least `min_samples` of its samples carry
/// operations and it has spent its share of --seconds (wall time since
/// `start`); the others replay exactly as many samples.
bool sequence_done(const RepeatMeter& meter, const RunOptions& opts,
                   std::int64_t start, std::size_t min_samples) {
  if (meter.repetitions() > 1) return meter.position() >= meter.length();
  return meter.op_samples() >= min_samples &&
         seconds_between(start, now_ns()) >=
             opts.seconds / static_cast<double>(kRepetitions);
}

/// Packets carried over every link direction so far.
std::uint64_t link_packets(net::Network& network) {
  std::uint64_t hops = 0;
  for (std::size_t l = 0; l < network.graph().link_count(); ++l) {
    const auto link = static_cast<topo::LinkId>(l);
    hops += network.stats(link, 0).packets + network.stats(link, 1).packets;
  }
  return hops;
}

/// Every public counter the per-layer metrics read, at one instant.
struct Counters {
  std::uint64_t events_fired = 0, cascades = 0, heap_callbacks = 0;
  std::uint64_t pkt_hops = 0, drops = 0;
  std::uint64_t rules_installed = 0, lookups = 0, index_hits = 0,
                scan_fallbacks = 0, rules_live = 0, groups_live = 0;
  std::uint64_t rows_computed = 0, row_hits = 0, rows_evicted = 0;
  std::uint64_t offered = 0, shed = 0;
  std::uint64_t arena_allocs = 0, arena_reuses = 0;
  std::uint64_t journal_appends = 0, journal_compactions = 0, journal_size = 0;
  std::uint64_t store_bytes = 0, store_compactions = 0;

  static Counters take(core::Fabric& fabric,
                       const TimedBackend* backend = nullptr,
                       const core::JournalStore* store = nullptr) {
    Counters c;
    auto& mc = fabric.mc();
    const auto& sched = fabric.simulator().stats();
    c.events_fired = sched.fired;
    c.cascades = sched.cascades;
    c.heap_callbacks = sched.heap_callbacks;
    auto& network = fabric.network();
    c.pkt_hops = link_packets(network);
    c.drops = network.total_drops();
    c.rules_installed = mc.rules_installed();
    const auto table = mc.aggregate_table_stats();
    c.lookups = table.lookups;
    c.index_hits = table.index_hits;
    c.scan_fallbacks = table.scan_fallbacks;
    for (const topo::NodeId sw : network.graph().switches()) {
      c.rules_live += mc.switch_at(sw)->table().rule_count();
      c.groups_live += mc.switch_at(sw)->table().group_count();
    }
    const auto paths = mc.paths().stats();
    c.rows_computed = paths.rows_computed;
    c.row_hits = paths.row_hits;
    c.rows_evicted = paths.rows_evicted;
    c.offered = mc.admission().stats().offered;
    c.shed = mc.admission().stats().shed;
    const auto& arena = transport::PayloadArena::local().stats();
    c.arena_allocs = arena.allocations;
    c.arena_reuses = arena.reuses;
    c.journal_appends = mc.journal().appends();
    c.journal_compactions = mc.journal().compactions();
    c.journal_size = mc.journal().size();
    if (backend != nullptr) c.store_bytes = backend->stats().bytes_written;
    if (store != nullptr) c.store_compactions = store->compactions();
    return c;
  }
};

/// In a traced run every other timed sample is traced; comparing the two
/// halves gives the tracing overhead.
struct TraceSplit {
  double traced_ns = 0, untraced_ns = 0;
  std::uint64_t traced = 0, untraced = 0;

  void add(bool was_traced, std::int64_t ns) {
    (was_traced ? traced_ns : untraced_ns) += static_cast<double>(ns);
    ++(was_traced ? traced : untraced);
  }
  double overhead_pct() const {
    if (traced == 0 || untraced == 0 || untraced_ns <= 0) return 0;
    return ((traced_ns / static_cast<double>(traced)) /
                (untraced_ns / static_cast<double>(untraced)) -
            1.0) *
           100.0;
  }
};

/// The end-to-end metrics every workload reports.  `op` names what one
/// operation is on this workload.  The latency percentiles and the late
/// rate are printed with their sample counts but carry no bound: on a
/// shared host their run-to-run spread is wider than any useful bound.
void add_end_to_end(WorkloadResult& result, const char* op,
                    const RepeatMeter& meter,
                    const std::vector<double>& setup_s) {
  const Timing t = summarize(meter.op_us());
  if (t.p99 == 0) {
    result.fail_check("too few samples for a p99 (n=" + std::to_string(t.n) +
                      ")");
  }
  result.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", meter.rate(), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  result.add_report("op = %s; %.0f ops in %zu samples, %.3f CPU s (sum of "
                    "each sample's minimum over %zu repetitions)",
                    op, meter.ops(), meter.length(), meter.best_s(),
                    meter.repetitions());
  result.add_report("setup_s = %.4f s (median of %zu set-ups)", median(setup_s),
                    setup_s.size());
  result.add_report("ops_per_s = %.3f /s; late_ops_per_s = %.3f /s (final "
                    "quarter of the samples)",
                    meter.rate(), meter.rate(meter.length() * 3 / 4,
                                             meter.length()));
  result.add_report("op_p50_us = %.3f us, op_p99_us = %.3f us (n=%zu; highest "
                    "percentile with >=10 samples beyond: p%g = %.3f us)",
                    t.p50, t.p99, t.n, t.tail_p, t.tail);
}

/// A timing report line: median plus the highest percentile with at least
/// ten samples beyond it, named the way the workload's users name it.
void report_timing(WorkloadResult& result, const char* name,
                   std::vector<double> us) {
  const Timing t = summarize(std::move(us));
  result.add_report("%s_p50_us = %.3f us, %s_p%g_us = %.3f us (n=%zu)", name,
                    t.p50, name, t.tail_p, t.tail, t.n);
}

double probe_record_ns() {
  // One SSL data record of the 10-byte RPC: ChaCha20 over the payload and
  // HMAC-SHA256 over the ciphertext, as transport/ssl.cpp does per record.
  crypto::ChaCha20::Key key{};
  crypto::ChaCha20::Nonce nonce{};
  std::vector<std::uint8_t> payload(10, 0x50);
  constexpr int kRounds = 20000;
  const std::int64_t start = cpu_ns();
  for (int i = 0; i < kRounds; ++i) {
    nonce[0] = static_cast<std::uint8_t>(i);
    crypto::ChaCha20::crypt(key, nonce, payload);
    payload[0] ^= crypto::hmac_sha256(key, payload)[0];
  }
  return static_cast<double>(cpu_ns() - start) / kRounds;
}

double probe_dh_ns(std::uint64_t seed) {
  // One DH agreement as an SSL handshake side does it: key pair plus
  // shared secret over RFC 3526 group 14.
  const auto& group = crypto::dh_group_14();
  Rng rng(seed);
  const auto peer = group.public_key(group.sample_private_key(rng));
  std::vector<double> ns;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t start = cpu_ns();
    const auto mine = group.sample_private_key(rng);
    (void)group.public_key(mine);
    (void)group.shared_secret(mine, peer);
    ns.push_back(static_cast<double>(cpu_ns() - start));
  }
  return median(ns);
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// What the per-layer metrics need besides the counters.
struct LayerInputs {
  std::uint64_t control_ops = 0;  // establishes + teardowns to checkpoint
  double drain_ns = 0;            // host time inside run_until drains
  std::uint64_t drain_events = 0;
  TimedBackend::Stats store;  // the first repetition's storage ops
  TraceSplit split;
};

/// Per-layer metrics.  Counts are deltas from `a` (start of the measured
/// phase) to `b` (its deterministic checkpoint), so they repeat exactly for
/// one seed; times come from the traced samples of the whole phase.
void add_per_layer(WorkloadResult& result, const Counters& a, const Counters& b,
                   const LayerInputs& in, const Tracer& tracer,
                   std::uint64_t seed) {
  auto self_ns = [&](const char* name) {
    const auto& t = tracer.totals(name);
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.self_ns) /
                              static_cast<double>(t.count);
  };
  auto op_ns = [](const TimedBackend::OpStats& op) {
    return op.timed == 0 ? 0.0
                         : static_cast<double>(op.ns) /
                               static_cast<double>(op.timed);
  };
  const TimedBackend::Stats& store = in.store;
  const std::uint64_t lookups = b.lookups - a.lookups;
  const std::uint64_t row_queries =
      (b.row_hits - a.row_hits) + (b.rows_computed - a.rows_computed);
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  result.per_layer = {
      {"core.establish_ns", self_ns("core.establish"), "ns"},
      {"core.teardown_ns", self_ns("core.teardown"), "ns"},
      {"core.journal.appends_per_op",
       ratio(b.journal_appends - a.journal_appends, in.control_ops), "ratio"},
      {"core.journal.compactions",
       count(b.journal_compactions - a.journal_compactions), "count"},
      {"core.journal.size", count(b.journal_size), "records"},
      {"core.store.append_ns", op_ns(store.append), "ns"},
      {"core.store.sync_ns", op_ns(store.sync), "ns"},
      {"core.store.rename_ns", op_ns(store.rename), "ns"},
      {"core.store.remove_ns", op_ns(store.remove), "ns"},
      {"core.store.bytes_written", count(b.store_bytes - a.store_bytes),
       "bytes"},
      {"core.store.compactions",
       count(b.store_compactions - a.store_compactions), "count"},
      {"switchd.rules_installed", count(b.rules_installed - a.rules_installed),
       "count"},
      {"switchd.rules_live", count(b.rules_live), "count"},
      {"switchd.groups_live", count(b.groups_live), "count"},
      {"switchd.lookups", count(lookups), "count"},
      {"switchd.index_hit_ratio", ratio(b.index_hits - a.index_hits, lookups),
       "ratio"},
      {"switchd.scan_fallbacks", count(b.scan_fallbacks - a.scan_fallbacks),
       "count"},
      {"sim.events_fired", count(b.events_fired - a.events_fired), "count"},
      {"sim.drain_ns_per_event",
       in.drain_events == 0 ? 0 : in.drain_ns / count(in.drain_events), "ns"},
      {"sim.cascades", count(b.cascades - a.cascades), "count"},
      {"sim.heap_callbacks", count(b.heap_callbacks - a.heap_callbacks),
       "count"},
      {"net.pkt_hops", count(b.pkt_hops - a.pkt_hops), "count"},
      {"net.drops", count(b.drops - a.drops), "count"},
      {"topology.rows_computed", count(b.rows_computed - a.rows_computed),
       "count"},
      {"topology.row_hit_ratio", ratio(b.row_hits - a.row_hits, row_queries),
       "ratio"},
      {"topology.rows_evicted", count(b.rows_evicted - a.rows_evicted),
       "count"},
      {"ctrl.admission.offered", count(b.offered - a.offered), "count"},
      {"ctrl.admission.shed", count(b.shed - a.shed), "count"},
      {"transport.arena_allocs", count(b.arena_allocs - a.arena_allocs),
       "count"},
      {"transport.arena_reuses", count(b.arena_reuses - a.arena_reuses),
       "count"},
      {"crypto.record_probe_ns", probe_record_ns(), "ns"},
      {"crypto.dh_probe_ns", probe_dh_ns(seed), "ns"},
      {"trace.overhead_pct", in.split.overhead_pct(), "%"},
  };
}

/// The simulated counts that must repeat exactly for one seed.
std::vector<std::pair<std::string, std::uint64_t>> outcomes_between(
    const Counters& a, const Counters& b) {
  return {
      {"net.pkt_hops", b.pkt_hops - a.pkt_hops},
      {"net.drops", b.drops - a.drops},
      {"sim.events_fired", b.events_fired - a.events_fired},
      {"switchd.rules_installed", b.rules_installed - a.rules_installed},
      {"switchd.rules_live", b.rules_live},
      {"switchd.groups_live", b.groups_live},
      {"switchd.lookups", b.lookups - a.lookups},
      {"core.journal.appends", b.journal_appends - a.journal_appends},
      {"core.journal.compactions",
       b.journal_compactions - a.journal_compactions},
      {"core.store.bytes_written", b.store_bytes - a.store_bytes},
      {"ctrl.admission.offered", b.offered - a.offered},
      {"ctrl.admission.shed", b.shed - a.shed},
      {"topology.rows_computed", b.rows_computed - a.rows_computed},
  };
}

void audit(WorkloadResult& result, core::Fabric& fabric) {
  const audit::RunReport report = audit::run_all(fabric);
  if (!report.ok) result.fail_check("audit: " + report.first_violation());
}

// Control-plane requests between drains: the simulator advances every 200
// requests so the admission token buckets refill.
constexpr int kDrainEvery = 200;
constexpr sim::SimTime kControlDrain = sim::milliseconds(1);

/// Establish one channel, timing the call in CPU time.  Returns 0 on failure.
core::ChannelId timed_establish(core::Fabric& fabric, Tracer& tracer,
                                const core::EstablishRequest& request,
                                std::uint64_t index, std::int64_t& ns) {
  Scope span(&tracer, "core.establish", index);
  const std::int64_t start = cpu_ns();
  const core::EstablishResult r = fabric.mc().establish(request);
  ns = cpu_ns() - start;
  return r.ok ? r.channel : 0;
}

/// One run_until drain of `slice` simulated time; returns its CPU time.
std::int64_t timed_drain(core::Fabric& fabric, Tracer& tracer,
                         sim::SimTime slice, LayerInputs& layer) {
  Scope span(&tracer, "sim.drain");
  auto& simulator = fabric.simulator();
  const std::uint64_t fired = simulator.stats().fired;
  const std::int64_t start = cpu_ns();
  simulator.run_until(simulator.now() + slice);
  const std::int64_t ns = cpu_ns() - start;
  layer.drain_ns += static_cast<double>(ns);
  layer.drain_events += simulator.stats().fired - fired;
  return ns;
}

/// The control workloads' periodic drain, traced in every traced run.
void control_drain(core::Fabric& fabric, Tracer& tracer,
                   const RunOptions& opts, LayerInputs& layer) {
  tracer.set_enabled(opts.trace);
  timed_drain(fabric, tracer, kControlDrain, layer);
}

// --- control_plane -----------------------------------------------------------

/// Live channels the growth reaches and the churn then holds: past the
/// default journal compaction threshold (1,024 records), so both phases
/// run into the compaction storm.
constexpr int kLive = 1536;
/// Churn pairs after which the deterministic counts are taken.
constexpr int kChurnCheckpoint = 200;

/// A fabric whose journal writes through a JournalStore over the timing
/// decorator from the first record on.
struct ControlBed {
  std::unique_ptr<TimedBackend> backend;
  std::unique_ptr<core::JournalStore> store;
  std::unique_ptr<core::Fabric> fabric;  // destroyed first: it uses the store
  std::unique_ptr<RequestStream> requests;
  std::deque<core::ChannelId> live;  // oldest first
  std::uint64_t next_index = 0;      // request index of the next establish
};

std::unique_ptr<ControlBed> build_control(const RunOptions& opts,
                                          Tracer& tracer) {
  auto bed = std::make_unique<ControlBed>();
  bed->backend = std::make_unique<TimedBackend>(&tracer);
  bed->store = std::make_unique<core::JournalStore>(*bed->backend);
  bed->fabric = make_fabric(opts.seed, tracer);
  bed->fabric->mc().journal().attach_store(bed->store.get());
  bed->requests =
      std::make_unique<RequestStream>(opts.seed, host_ips(*bed->fabric));
  return bed;
}

/// Establish the next request, timed, and keep the channel if it opened.
void establish_next(WorkloadResult& result, ControlBed& bed, Tracer& tracer,
                    RepeatMeter& meter, LayerInputs& layer, bool traced) {
  std::int64_t ns = 0;
  const core::ChannelId id = timed_establish(
      *bed.fabric, tracer, bed.requests->next(), bed.next_index++, ns);
  result.attempted += 1;
  if (id != 0) {
    bed.live.push_back(id);
  } else {
    ++result.failed;
  }
  meter.add(ns, 1);
  layer.split.add(traced, ns);
}

/// One repetition's checks on the bed, outside the timed region.
void check_control(WorkloadResult& result, ControlBed& bed) {
  auto& mc = bed.fabric->mc();
  if (mc.active_channel_count() != bed.live.size()) {
    result.fail_check("live channel count does not match the operations");
  }
  audit(result, *bed.fabric);
  // The durable log must fold to exactly the live channel set.
  const core::JournalLoadResult loaded = bed.store->load();
  core::ChannelJournal replica;
  for (const auto& record : loaded.records) replica.adopt_record(record);
  std::vector<core::ChannelId> durable;
  for (const auto& [id, state] : replica.replay().channels) {
    durable.push_back(id);
  }
  if (!loaded.clean || durable != mc.channel_ids()) {
    result.fail_check("durable journal does not replay to the live channels");
  }
}

WorkloadResult run_control_plane(const RunOptions& opts, Tracer& tracer) {
  WorkloadResult result;
  std::vector<double> setup_s;
  RepeatMeter meter;
  LayerInputs layer;
  Counters first_from, first_checkpoint;
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    meter.begin_repetition();
    std::unique_ptr<ControlBed> bed;
    {
      Scope span(&tracer, "setup");
      const std::int64_t start = cpu_ns();
      bed = build_control(opts, tracer);
      setup_s.push_back(seconds_between(start, cpu_ns()));
    }
    core::Fabric& fabric = *bed->fabric;
    auto& mc = fabric.mc();
    const Counters from =
        Counters::take(fabric, bed->backend.get(), bed->store.get());
    const std::int64_t rep_start = now_ns();
    // Growth: establish into growing state, from 0 to kLive live channels.
    for (int i = 0; i < kLive; ++i) {
      const bool traced = opts.trace && i % 2 == 0;
      tracer.set_enabled(traced);
      establish_next(result, *bed, tracer, meter, layer, traced);
      if ((i + 1) % kDrainEvery == 0) {
        control_drain(fabric, tracer, opts, layer);
      }
    }
    // Churn at constant live state: tear down the oldest channel and
    // establish a new one in its place.
    Counters checkpoint;
    for (int pair = 0;; ++pair) {
      if (pair == kChurnCheckpoint) {
        checkpoint = Counters::take(fabric, bed->backend.get(), bed->store.get());
      }
      if (pair >= kChurnCheckpoint &&
          sequence_done(meter, opts, rep_start, kMinSamples)) {
        break;
      }
      const bool traced = opts.trace && pair % 2 == 0;
      tracer.set_enabled(traced);
      const core::ChannelId victim = bed->live.front();
      bed->live.pop_front();
      std::int64_t ns = 0;
      {
        Scope span(&tracer, "core.teardown", bed->next_index);
        const std::int64_t start = cpu_ns();
        mc.teardown(victim);
        ns = cpu_ns() - start;
      }
      result.attempted += 1;
      if (mc.channel(victim) != nullptr) ++result.failed;
      meter.add(ns, 1);
      layer.split.add(traced, ns);
      establish_next(result, *bed, tracer, meter, layer, traced);
      if ((pair + 1) % (kDrainEvery / 2) == 0) {
        control_drain(fabric, tracer, opts, layer);
      }
    }
    tracer.set_enabled(opts.trace);
    check_control(result, *bed);
    if (rep == 0) {
      first_from = from;
      first_checkpoint = checkpoint;
      layer.control_ops = kLive + 2 * kChurnCheckpoint;
      layer.store = bed->backend->stats();
      result.outcomes = outcomes_between(from, checkpoint);
    } else if (outcomes_between(from, checkpoint) != result.outcomes) {
      result.fail_check("repetitions of one seed differ");
    }
  }

  add_end_to_end(result, "one establish or teardown call", meter, setup_s);
  // Samples [0, kLive) are the growth's establishes; after them the churn
  // alternates teardown, establish.
  const std::vector<double> us = meter.op_us();
  const std::vector<double> grow_us(us.begin(), us.begin() + kLive);
  std::vector<double> churn_est_us, churn_td_us;
  for (std::size_t i = kLive; i < us.size(); ++i) {
    ((i - kLive) % 2 == 0 ? churn_td_us : churn_est_us).push_back(us[i]);
  }
  result.add_report("establish_rate = %.2f est/s (growth to %d live)",
                    meter.rate(0, kLive), kLive);
  result.add_report(
      "establish_rate_last = %.2f est/s (final quarter of growth)",
      meter.rate(kLive * 3 / 4, kLive));
  report_timing(result, "establish", grow_us);
  result.add_report("churn_pairs_per_s = %.2f pairs/s (%zu pairs at %d live)",
                    meter.rate(kLive, meter.length()) / 2,
                    churn_td_us.size(), kLive);
  report_timing(result, "churn_establish", churn_est_us);
  report_timing(result, "teardown", churn_td_us);
  if (opts.trace) {
    add_per_layer(result, first_from, first_checkpoint, layer, tracer,
                  opts.seed);
  }
  return result;
}

// --- rpc_small ---------------------------------------------------------------

/// MIC-SSL channels (F=1, N=3) between seeded cross-pod host pairs, with
/// the server side of each channel handed to `on_server` once its first
/// bytes arrive.
struct DataBed {
  std::unique_ptr<core::Fabric> fabric;
  std::vector<std::unique_ptr<core::MicServer>> servers;
  std::vector<std::unique_ptr<core::MicChannel>> channels;
};

std::unique_ptr<DataBed> build_channels(
    const RunOptions& opts, Tracer& tracer, std::size_t count,
    const std::function<void(core::MicServerChannel&)>& on_server) {
  auto bed = std::make_unique<DataBed>();
  bed->fabric = make_fabric(opts.seed, tracer);
  core::Fabric& fabric = *bed->fabric;
  const auto pairs = cross_pod_pairs(opts.seed, fabric.host_count(), count);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [client, server] = pairs[i];
    const auto port = static_cast<net::L4Port>(7000 + i);
    bed->servers.push_back(std::make_unique<core::MicServer>(
        fabric.host(server), port, fabric.rng(), /*use_ssl=*/true));
    bed->servers.back()->set_on_channel(on_server);
    core::MicChannelOptions options;
    options.responder_ip = fabric.ip(server);
    options.responder_port = port;
    options.flow_count = 1;
    options.mn_count = 3;
    options.use_ssl = true;
    bed->channels.push_back(std::make_unique<core::MicChannel>(
        fabric.host(client), fabric.mc(), options, fabric.rng()));
  }
  fabric.simulator().run_until();
  return bed;
}

/// Drive the simulator in fixed slices of simulated time for one
/// repetition's sequence, timing each slice.  `ops()` reads the workload's
/// completed-operation count; `at_checkpoint` runs once after
/// `checkpoint_slices` slices.  False when the slices do not repeat the
/// first repetition's operation counts.
template <typename OpsFn, typename CheckpointFn>
bool run_slices(core::Fabric& fabric, Tracer& tracer, const RunOptions& opts,
                sim::SimTime slice, int checkpoint_slices, RepeatMeter& meter,
                LayerInputs& layer, OpsFn ops, CheckpointFn at_checkpoint) {
  const std::int64_t loop_start = now_ns();
  bool same = true;
  for (int i = 0;; ++i) {
    if (i == checkpoint_slices) at_checkpoint();
    if (i >= checkpoint_slices &&
        sequence_done(meter, opts, loop_start, kMinSamples)) {
      break;
    }
    const bool traced = opts.trace && i % 2 == 0;
    tracer.set_enabled(traced);
    const double before = ops();
    const std::int64_t ns = timed_drain(fabric, tracer, slice, layer);
    if (!meter.add(ns, ops() - before)) {
      same = false;
      break;
    }
    layer.split.add(traced, ns);
  }
  tracer.set_enabled(opts.trace);
  return same;
}

constexpr std::size_t kRpcChannels = 64;
constexpr std::size_t kRpcBytes = 10;
constexpr std::uint64_t kRpcWarmRounds = 10;
constexpr sim::SimTime kRpcSlice = sim::microseconds(50);
constexpr int kRpcCheckpoint = 1000;

/// One channel's closed-loop 10-byte ping-pong with real payloads.  The
/// server echoes; the client checks every echoed byte before the next ping.
struct RpcFlow {
  core::MicChannel* client = nullptr;
  sim::Simulator* simulator = nullptr;
  std::uint64_t sent = 0, completed = 0;
  std::size_t got = 0;  // bytes of the current reply so far
  sim::SimTime sent_at = 0;
  bool corrupt = false;
  std::uint64_t tag = 0;  // seeds this flow's payload pattern

  std::uint8_t byte(std::uint64_t seq, std::size_t j) const {
    return static_cast<std::uint8_t>(tag + seq * 31 + j * 7);
  }
  void ping() {
    std::vector<std::uint8_t> payload(kRpcBytes);
    for (std::size_t j = 0; j < kRpcBytes; ++j) payload[j] = byte(sent, j);
    ++sent;
    got = 0;
    sent_at = simulator->now();
    client->send(transport::Chunk::real(std::move(payload)));
  }
};

struct RpcBed {
  std::vector<std::unique_ptr<RpcFlow>> flows;
  std::uint64_t rounds_limit = 0;  // per flow; pings stop there
  std::vector<sim::SimTime>* rtts = nullptr;  // recorded while set
  std::unique_ptr<DataBed> data;  // destroyed first: it calls into flows
};

std::unique_ptr<RpcBed> build_rpc(const RunOptions& opts, Tracer& tracer) {
  auto bed = std::make_unique<RpcBed>();
  for (std::size_t i = 0; i < kRpcChannels; ++i) {
    bed->flows.push_back(std::make_unique<RpcFlow>());
    bed->flows.back()->tag = opts.seed * 131 + i;
  }
  bed->data = build_channels(
      opts, tracer, kRpcChannels, [](core::MicServerChannel& ch) {
        ch.set_on_data([&ch](const transport::ChunkView& view) {
          ch.send(transport::Chunk::real(
              std::vector<std::uint8_t>(view.bytes.begin(), view.bytes.end())));
        });
      });
  RpcBed* raw = bed.get();
  for (std::size_t i = 0; i < kRpcChannels; ++i) {
    RpcFlow* flow = bed->flows[i].get();
    flow->client = bed->data->channels[i].get();
    flow->simulator = &bed->data->fabric->simulator();
    flow->client->set_on_data([raw, flow](const transport::ChunkView& view) {
      if (view.bytes.size() != view.length) flow->corrupt = true;
      for (const std::uint8_t b : view.bytes) {
        if (flow->got >= kRpcBytes ||
            b != flow->byte(flow->sent - 1, flow->got)) {
          flow->corrupt = true;
        }
        ++flow->got;
      }
      if (flow->got < kRpcBytes) return;
      ++flow->completed;
      if (raw->rtts != nullptr) {
        raw->rtts->push_back(flow->simulator->now() - flow->sent_at);
      }
      if (flow->sent < raw->rounds_limit) flow->ping();
    });
  }
  // Warm-up: a few round trips per channel.
  bed->rounds_limit = kRpcWarmRounds;
  for (const auto& flow : bed->flows) flow->ping();
  bed->data->fabric->simulator().run_until();
  return bed;
}

WorkloadResult run_rpc_small(const RunOptions& opts, Tracer& tracer) {
  WorkloadResult result;
  std::vector<double> setup_s;
  RepeatMeter meter;
  LayerInputs layer;
  Counters first_from, first_checkpoint;
  double loop_hops = 0;  // packet-hops of the first repetition's slices
  std::vector<sim::SimTime> rtts;
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    meter.begin_repetition();
    std::unique_ptr<RpcBed> bed;
    {
      Scope span(&tracer, "setup");
      const std::int64_t start = cpu_ns();
      bed = build_rpc(opts, tracer);
      setup_s.push_back(seconds_between(start, cpu_ns()));
    }
    core::Fabric& fabric = *bed->data->fabric;
    result.attempted += kRpcChannels;  // the establishments
    for (const auto& ch : bed->data->channels) {
      if (!ch->ready()) ++result.failed;
    }
    for (const auto& f : bed->flows) {
      if (f->completed != kRpcWarmRounds) result.fail_check("warm-up RPCs lost");
    }
    auto completed = [&] {
      std::uint64_t n = 0;
      for (const auto& f : bed->flows) n += f->completed;
      return n;
    };

    const Counters from = Counters::take(fabric);
    Counters checkpoint;
    rtts.clear();
    bed->rtts = &rtts;
    bed->rounds_limit = ~0ull;
    for (const auto& flow : bed->flows) flow->ping();
    if (!run_slices(
            fabric, tracer, opts, kRpcSlice, kRpcCheckpoint, meter, layer,
            [&] { return static_cast<double>(completed()); },
            [&] {
              checkpoint = Counters::take(fabric);
              bed->rtts = nullptr;
            })) {
      result.fail_check("rpc repetitions of one seed differ");
    }
    if (rep == 0) {
      loop_hops =
          static_cast<double>(link_packets(fabric.network()) - from.pkt_hops);
    }
    // Stop pinging and let every RPC in flight complete.
    bed->rounds_limit = 0;
    fabric.simulator().run_until();

    std::uint64_t sent = 0;
    for (const auto& f : bed->flows) {
      if (f->corrupt) result.fail_check("an RPC reply differs from its request");
      if (f->completed != f->sent) result.fail_check("an RPC did not complete");
      sent += f->sent - kRpcWarmRounds;
    }
    result.attempted += sent;
    audit(result, fabric);

    auto outcomes = outcomes_between(from, checkpoint);
    std::vector<double> rtt_ns(rtts.begin(), rtts.end());
    const Timing rtt = summarize(rtt_ns);
    if (rtt.p99 == 0) result.fail_check("too few RPCs before the checkpoint");
    outcomes.emplace_back("rpc.checkpoint_rpcs", rtt.n);
    outcomes.emplace_back("sim_rtt_p50_ns", static_cast<std::uint64_t>(rtt.p50));
    outcomes.emplace_back("sim_rtt_p99_ns", static_cast<std::uint64_t>(rtt.p99));
    if (rep == 0) {
      first_from = from;
      first_checkpoint = checkpoint;
      result.add_report("sim_rtt_p50_us = %.3f us, sim_rtt_p99_us = %.3f us "
                        "(n=%zu RPCs in the first %d slices; highest "
                        "supported p%g = %.3f us)",
                        rtt.p50 / 1e3, rtt.p99 / 1e3, rtt.n, kRpcCheckpoint,
                        rtt.tail_p, rtt.tail / 1e3);
      result.outcomes = std::move(outcomes);
    } else if (outcomes != result.outcomes) {
      result.fail_check("rpc repetitions of one seed differ");
    }
  }

  add_end_to_end(result, "one 10-byte RPC (timed per 50 us simulator slice)",
                 meter, setup_s);
  result.add_report("rpc_per_s = %.1f rpc/s", meter.rate());
  result.add_report("pkt_hops_per_s = %.0f hops/s (first repetition's hops "
                    "over the best-of-repetitions CPU time)",
                    loop_hops / meter.best_s());
  if (opts.trace) {
    add_per_layer(result, first_from, first_checkpoint, layer, tracer,
                  opts.seed);
  }
  return result;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"control_plane",
       "growth from 0 to 1536 live channels, then teardown-oldest/establish "
       "churn at 1536 live, journal on a durable store",
       run_control_plane},
      {"rpc_small",
       "64 MIC-SSL channels in closed-loop 10-byte ping-pong with real "
       "payloads",
       run_rpc_small},
  };
  return all;
}

}  // namespace perfbench

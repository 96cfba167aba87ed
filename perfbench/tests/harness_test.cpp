// Tests for the benchmark harness itself: the percentile rule, the
// per-sample minimum over repetitions, self time from nested spans, and
// seeded input generation.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);

  EXPECT_EQ(highest_supported_percentile(19), 0);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(999), 90);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(9999), 99);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100000), 99.99);
}

TEST(PercentileRule, SummaryUsesNearestRank) {
  std::vector<double> samples(1000);
  std::iota(samples.begin(), samples.end(), 1.0);
  std::reverse(samples.begin(), samples.end());  // summarize sorts
  const Timing t = summarize(samples);
  EXPECT_EQ(t.n, 1000u);
  EXPECT_EQ(t.p50, 500);
  EXPECT_EQ(t.tail_p, 99);
  EXPECT_EQ(t.tail, 990);
  EXPECT_EQ(t.p99, 990);

  samples.resize(999);
  EXPECT_EQ(summarize(samples).p99, 0) << "p99 needs ten samples beyond it";
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(RepeatMeter, KeepsEachSamplesMinimumOverRepetitions) {
  RepeatMeter meter;
  meter.begin_repetition();
  EXPECT_TRUE(meter.add(400, 2));
  EXPECT_TRUE(meter.add(100, 0));
  EXPECT_TRUE(meter.add(300, 1));
  meter.begin_repetition();
  EXPECT_TRUE(meter.add(200, 2));
  EXPECT_TRUE(meter.add(500, 0));
  EXPECT_TRUE(meter.add(600, 1));
  EXPECT_EQ(meter.repetitions(), 2u);
  EXPECT_EQ(meter.length(), 3u);
  EXPECT_EQ(meter.op_samples(), 2u);
  EXPECT_EQ(meter.ops(), 3);
  EXPECT_DOUBLE_EQ(meter.best_s(), 600e-9);  // 200 + 100 + 300
  EXPECT_DOUBLE_EQ(meter.rate(), 3 / 600e-9);
  EXPECT_DOUBLE_EQ(meter.rate(1, 3), 1 / 400e-9);
  const std::vector<double> us = meter.op_us();
  ASSERT_EQ(us.size(), 2u);
  EXPECT_DOUBLE_EQ(us[0], 0.1);  // 200 ns over 2 ops
  EXPECT_DOUBLE_EQ(us[1], 0.3);
}

TEST(RepeatMeter, LaterRepetitionsMustRepeatTheFirst) {
  RepeatMeter meter;
  meter.begin_repetition();
  EXPECT_TRUE(meter.add(100, 5));
  meter.begin_repetition();
  EXPECT_FALSE(meter.add(100, 4)) << "another operation count";
  EXPECT_EQ(meter.position(), 0u);
  EXPECT_TRUE(meter.add(50, 5));
  EXPECT_EQ(meter.position(), meter.length());
  EXPECT_FALSE(meter.add(10, 1)) << "beyond the first repetition's length";
  EXPECT_DOUBLE_EQ(meter.best_s(), 50e-9);
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.open_at("establish", 7, 0);
  tracer.open_at("store", 0, 10);
  tracer.open_at("sync", 0, 12);
  tracer.close_at(15);  // sync: 3
  tracer.close_at(20);  // store: 10, self 7
  tracer.open_at("store", 0, 30);
  tracer.close_at(35);  // store: 5
  tracer.close_at(50);  // establish: 50, self 50 - 15

  EXPECT_EQ(tracer.totals("establish").count, 1u);
  EXPECT_EQ(tracer.totals("establish").total_ns, 50);
  EXPECT_EQ(tracer.totals("establish").self_ns, 35);
  EXPECT_EQ(tracer.totals("store").count, 2u);
  EXPECT_EQ(tracer.totals("store").total_ns, 15);
  EXPECT_EQ(tracer.totals("store").self_ns, 12);
  EXPECT_EQ(tracer.totals("sync").self_ns, 3);
  EXPECT_EQ(tracer.totals("never").count, 0u);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, Tracer::kNoParent);
  EXPECT_EQ(spans[0].id, 7u);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].parent, 0u);
  EXPECT_EQ(spans[3].end_ns, 35);
}

TEST(Tracer, TotalsStayExactBeyondTheStorageCap) {
  Tracer tracer(/*max_stored=*/1);
  tracer.set_enabled(true);
  tracer.open_at("parent", 0, 0);
  tracer.open_at("child", 0, 1);
  tracer.close_at(4);
  tracer.close_at(10);
  EXPECT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(tracer.totals("parent").self_ns, 7);
  EXPECT_EQ(tracer.totals("child").self_ns, 3);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  { Scope span(&tracer, "off"); }
  tracer.open_at("off", 0, 0);
  tracer.close_at(5);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.totals("off").count, 0u);
}

std::vector<mic::net::Ipv4> hosts(std::size_t n) {
  std::vector<mic::net::Ipv4> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(mic::net::Ipv4{static_cast<std::uint32_t>(0x0A000000 + i)});
  }
  return out;
}

TEST(SeededInputs, OneSeedGivesOneRequestSequence) {
  RequestStream a(11, hosts(128)), b(11, hosts(128)), c(12, hosts(128));
  bool differs = false;
  std::set<std::pair<std::uint32_t, std::uint16_t>> endpoints;
  for (int i = 0; i < 5000; ++i) {
    const auto ra = a.next(), rb = b.next(), rc = c.next();
    EXPECT_EQ(ra.initiator_ip, rb.initiator_ip);
    EXPECT_EQ(ra.responder_ip, rb.responder_ip);
    EXPECT_EQ(ra.responder_port, rb.responder_port);
    EXPECT_EQ(ra.initiator_sports, rb.initiator_sports);
    EXPECT_NE(ra.initiator_ip, ra.responder_ip);
    ASSERT_EQ(ra.initiator_sports.size(), 1u);
    EXPECT_TRUE(
        endpoints.emplace(ra.initiator_ip.value, ra.initiator_sports[0]).second)
        << "initiator endpoint reused";
    differs = differs || ra.initiator_ip != rc.initiator_ip ||
              ra.responder_ip != rc.responder_ip;
  }
  EXPECT_TRUE(differs) << "another seed should give other requests";
}

TEST(SeededInputs, CrossPodPairsAreSeededAndDisjoint) {
  const auto a = cross_pod_pairs(3, 128, 64);
  EXPECT_EQ(a, cross_pod_pairs(3, 128, 64));
  EXPECT_NE(a, cross_pod_pairs(4, 128, 64));
  ASSERT_EQ(a.size(), 64u);
  std::set<std::size_t> used;
  for (const auto& [client, server] : a) {
    EXPECT_LT(client, 64u);
    EXPECT_GE(server, 64u);
    EXPECT_TRUE(used.insert(client).second);
    EXPECT_TRUE(used.insert(server).second);
  }
}

}  // namespace
}  // namespace perfbench

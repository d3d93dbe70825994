#include "obs/metrics.h"

#include <gtest/gtest.h>

namespace fragdb {
namespace {

/// A key with no label (the label stays empty, spelled out once here).
MetricKey Key(std::string name, NodeId node = kInvalidNode,
              FragmentId fragment = kInvalidFragment) {
  return MetricKey{std::move(name), node, fragment, ""};
}

TEST(HistogramTest, ObserveAndStats) {
  Histogram h(std::vector<int64_t>{10, 20, 40});
  h.Observe(5);
  h.Observe(15);
  h.Observe(30);
  h.Observe(100);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 150);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 37.5);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  Histogram h(std::vector<int64_t>{10, 20, 40});
  for (int i = 0; i < 98; ++i) h.Observe(7);
  h.Observe(15);
  h.Observe(1000);
  // p50 is the 50th of 98 observations in (min=7, 10]: interpolated, not
  // snapped to the bucket's upper bound.
  EXPECT_EQ(h.Percentile(0.5), 8);
  // p99 is the last observation of bucket (10, 20]: exactly the bound.
  EXPECT_EQ(h.Percentile(0.99), 20);
  // Overflow bucket interpolates (bounds.back(), max]; its last
  // observation reports the recorded max.
  EXPECT_EQ(h.Percentile(1.0), 1000);
  EXPECT_EQ(Histogram(std::vector<int64_t>{10}).Percentile(0.5), 0);
}

TEST(HistogramTest, PercentileExactAtBucketBoundaries) {
  // Every value sits exactly on a bucket's closed upper bound: any
  // percentile must report that boundary, never an interpolated value
  // below it.
  Histogram h(std::vector<int64_t>{10, 20});
  for (int i = 0; i < 5; ++i) h.Observe(10);
  EXPECT_EQ(h.Percentile(0.01), 10);
  EXPECT_EQ(h.Percentile(0.5), 10);
  EXPECT_EQ(h.Percentile(1.0), 10);

  // Mixed: boundary value plus one below it in the same bucket.
  Histogram m(std::vector<int64_t>{10});
  m.Observe(5);
  m.Observe(10);
  EXPECT_EQ(m.Percentile(0.5), 7);   // midpoint of (5, 10], rank 1 of 2
  EXPECT_EQ(m.Percentile(1.0), 10);  // last observation = the boundary
}

TEST(HistogramTest, PercentileSingleObservationIsExact) {
  Histogram h(std::vector<int64_t>{10, 20});
  h.Observe(17);
  EXPECT_EQ(h.Percentile(0.0), 17);
  EXPECT_EQ(h.Percentile(0.5), 17);
  EXPECT_EQ(h.Percentile(1.0), 17);
}

TEST(HistogramTest, PercentileInterpolatesUniformFill) {
  Histogram h(std::vector<int64_t>{100});
  for (int v = 1; v <= 100; ++v) h.Observe(v);
  EXPECT_EQ(h.Percentile(0.5), 50);
  EXPECT_EQ(h.Percentile(1.0), 100);
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a(std::vector<int64_t>{10, 20});
  Histogram b(std::vector<int64_t>{10, 20});
  a.Observe(5);
  b.Observe(15);
  b.Observe(99);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 99);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 1u);
}

TEST(MetricKeyTest, ToStringFormats) {
  MetricKey plain = Key("txns_total");
  EXPECT_EQ(plain.ToString(), "txns_total");
  MetricKey scoped{"lag_us", 1, 2, "quasi"};
  EXPECT_EQ(scoped.ToString(), "lag_us{node=1,fragment=2,label=quasi}");
}

TEST(MetricsRegistryTest, HandlesAreStableAndSnapshotFreezes) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter(Key("events_total"));
  EXPECT_EQ(c, reg.GetCounter(Key("events_total")));
  c->Add(3);
  reg.GetGauge(Key("depth", 0))->Set(-4);
  reg.GetHistogram(Key("latency_us", 0))->Observe(25);
  EXPECT_EQ(reg.series_count(), 3u);

  MetricsSnapshot snap = reg.Snapshot();
  c->Add(10);  // must not affect the frozen copy
  const MetricEntry* e = snap.Find(Key("events_total"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->counter, 3u);
  const MetricEntry* g = snap.Find(Key("depth", 0));
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, -4);
  EXPECT_EQ(snap.HistogramCount("latency_us"), 1u);
  EXPECT_EQ(snap.HistogramMax("latency_us"), 25);
}

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry reg;
  reg.GetCounter(Key("txn_committed_total", 0))->Add(7);
  reg.GetCounter({"messages_sent_total", kInvalidNode, kInvalidFragment,
                  "quasi"})
      ->Add(42);
  reg.GetGauge(Key("applied_seq", 1, 2))->Set(13);
  Histogram* h = reg.GetHistogram(Key("commit_latency_us", 0));
  h->Observe(120);
  h->Observe(4500);
  return reg.Snapshot();
}

TEST(MetricsSnapshotTest, TextRoundTrip) {
  MetricsSnapshot snap = SampleSnapshot();
  std::string text = snap.ToText();
  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The round trip is exact: re-serialization is byte-identical.
  EXPECT_EQ(parsed->ToText(), text);
  EXPECT_EQ(parsed->CounterTotal("messages_sent_total"), 42u);
  EXPECT_EQ(parsed->HistogramCount("commit_latency_us"), 2u);
  EXPECT_EQ(parsed->HistogramMax("commit_latency_us"), 4500);
  const MetricEntry* g = parsed->Find(Key("applied_seq", 1, 2));
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, 13);
}

TEST(MetricsSnapshotTest, FromTextRejectsGarbage) {
  EXPECT_FALSE(MetricsSnapshot::FromText("nonsense line\n").ok());
  EXPECT_FALSE(MetricsSnapshot::FromText("counter x notanumber\n").ok());
}

TEST(MetricsSnapshotTest, MergeAddsAndInserts) {
  MetricsSnapshot a = SampleSnapshot();
  MetricsRegistry reg;
  reg.GetCounter(Key("txn_committed_total", 0))->Add(3);
  reg.GetCounter(Key("txn_committed_total", 1))->Add(5);  // new series
  reg.GetHistogram(Key("commit_latency_us", 0))->Observe(80);
  MetricsSnapshot b = reg.Snapshot();

  a.Merge(b);
  const MetricEntry* c0 = a.Find(Key("txn_committed_total", 0));
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->counter, 10u);
  const MetricEntry* c1 = a.Find(Key("txn_committed_total", 1));
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->counter, 5u);
  EXPECT_EQ(a.HistogramCount("commit_latency_us"), 3u);
  EXPECT_EQ(a.CounterTotal("txn_committed_total"), 15u);
}

TEST(MetricsSnapshotTest, PrometheusExposition) {
  std::string prom = SampleSnapshot().ToPrometheus();
  EXPECT_NE(prom.find("# TYPE fragdb_txn_committed_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE fragdb_applied_seq gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE fragdb_commit_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("fragdb_commit_latency_us_count"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("label=\"quasi\""), std::string::npos);
}

TEST(MetricsSnapshotTest, JsonExposition) {
  std::string json = SampleSnapshot().ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"txn_committed_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
}

}  // namespace
}  // namespace fragdb

// Unit tests for the metrics registry (counters, gauges, latency
// histograms, JSON snapshot).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace rmc::metrics {
namespace {

TEST(CounterMetric, AccumulatesAndSaturates) {
  CounterMetric c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.inc(UINT64_MAX);
  EXPECT_EQ(c.value(), UINT64_MAX);  // saturates, like rmc::Counter
}

TEST(Gauge, SetAndHighWater) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(5.0);
  EXPECT_EQ(g.value(), 5.0);
  g.set_max(3.0);  // below the current value: no change
  EXPECT_EQ(g.value(), 5.0);
  g.set_max(9.5);
  EXPECT_EQ(g.value(), 9.5);
  g.set(2.0);  // plain set still overwrites downward
  EXPECT_EQ(g.value(), 2.0);
}

TEST(LatencyHistogram, ExactStatsComeFromRunningStat) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_us(50.0), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean_us(), 2.5);
  EXPECT_DOUBLE_EQ(h.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 4.0);
}

TEST(LatencyHistogram, RecordSecondsConvertsToMicroseconds) {
  LatencyHistogram h;
  h.record_seconds(0.0025);
  EXPECT_DOUBLE_EQ(h.min_us(), 2500.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 2500.0);
}

TEST(LatencyHistogram, BucketBoundsAreGeometric) {
  EXPECT_NEAR(LatencyHistogram::bucket_bound_us(0), 0.1, 1e-12);
  EXPECT_NEAR(LatencyHistogram::bucket_bound_us(2), 0.2, 1e-12);
  EXPECT_NEAR(LatencyHistogram::bucket_bound_us(4), 0.4, 1e-12);
  // Consecutive bounds grow by sqrt(2): ~±19% worst-case bound error.
  for (std::size_t i = 1; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_NEAR(LatencyHistogram::bucket_bound_us(i) /
                    LatencyHistogram::bucket_bound_us(i - 1),
                std::sqrt(2.0), 1e-9);
  }
  // The range covers a full LAN run: the last bound exceeds 100 seconds.
  EXPECT_GT(LatencyHistogram::bucket_bound_us(LatencyHistogram::kBuckets - 1), 1e8);
}

TEST(LatencyHistogram, ValuesLandInTheBucketBelowTheirBound) {
  LatencyHistogram h;
  h.record(0.05);  // below the first bound -> bucket 0
  EXPECT_EQ(h.bucket_count(0), 1u);
  h.record(1.0);
  h.record(1e12);  // far beyond the range: absorbed by the last bucket
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    total += h.bucket_count(i);
    if (h.bucket_count(i) > 0 && i > 0) {
      // Every counted bucket's bound brackets at least one recorded value.
      EXPECT_LE(LatencyHistogram::bucket_bound_us(i - 1), h.max_us());
    }
  }
  EXPECT_EQ(total, h.count());
}

TEST(LatencyHistogram, PercentilesClampToObservedExtremes) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(100.0);
  // All mass in one bucket: interpolation cannot stray outside [min, max].
  EXPECT_DOUBLE_EQ(h.p50_us(), 100.0);
  EXPECT_DOUBLE_EQ(h.p95_us(), 100.0);
  EXPECT_DOUBLE_EQ(h.p99_us(), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile_us(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile_us(100.0), 100.0);
}

TEST(LatencyHistogram, PercentilesAreMonotonicAndOrdered) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  double prev = 0.0;
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double v = h.percentile_us(p);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, h.min_us());
    EXPECT_LE(v, h.max_us());
    prev = v;
  }
  // Bucket interpolation: the estimate should land within one bucket
  // ratio (sqrt 2) of the true percentile.
  EXPECT_GT(h.p50_us(), 500.0 / std::sqrt(2.0));
  EXPECT_LT(h.p50_us(), 500.0 * std::sqrt(2.0));
  EXPECT_GT(h.p99_us(), 990.0 / std::sqrt(2.0));
}

TEST(LatencyHistogram, NegativeAndNanClampToZero) {
  LatencyHistogram h;
  h.record(-5.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min_us(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
}

TEST(Registry, CreateOnUseAndFind) {
  Registry r;
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.find_counter("c"), nullptr);
  EXPECT_EQ(r.find_gauge("g"), nullptr);
  EXPECT_EQ(r.find_histogram("h"), nullptr);

  r.counter("c").inc(3);
  r.gauge("g").set(1.5);
  r.histogram("h").record(10.0);
  EXPECT_EQ(r.size(), 3u);
  ASSERT_NE(r.find_counter("c"), nullptr);
  EXPECT_EQ(r.find_counter("c")->value(), 3u);
  ASSERT_NE(r.find_gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(r.find_gauge("g")->value(), 1.5);
  ASSERT_NE(r.find_histogram("h"), nullptr);
  EXPECT_EQ(r.find_histogram("h")->count(), 1u);

  // Same name -> same metric, not a new one.
  r.counter("c").inc();
  EXPECT_EQ(r.find_counter("c")->value(), 4u);
  EXPECT_EQ(r.size(), 3u);

  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.find_counter("c"), nullptr);
}

TEST(Registry, EmptyJsonIsStillAnObject) {
  Registry r;
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

TEST(Registry, JsonContainsEveryTierAndEscapesNames) {
  Registry r;
  r.counter("sender.data_packets_sent").inc(7);
  r.gauge("net.switch0.port1.queue_hwm_frames").set_max(12.0);
  auto& h = r.histogram("receiver.delivery_latency_us");
  h.record(100.0);
  h.record(200.0);
  r.counter("weird\"name").inc();

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"sender.data_packets_sent\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"net.switch0.port1.queue_hwm_frames\": 12"),
            std::string::npos);
  EXPECT_NE(json.find("\"receiver.delivery_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
  EXPECT_NE(json.find("\"weird\\\"name\""), std::string::npos);

  // write_json emits the same bytes as to_json.
  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  r.write_json(mem);
  std::fclose(mem);
  std::string written(data, size);
  free(data);
  EXPECT_EQ(written, json);
}

TEST(Registry, EmptyHistogramElidesBuckets) {
  Registry r;
  (void)r.histogram("empty");
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_EQ(json.find("\"buckets\""), std::string::npos);
}

// merge() is the sweep engine's fold: merging per-run registries in run
// order must equal accumulating every run into one registry.

TEST(RegistryMerge, CountersSumAndSaturate) {
  Registry a, b;
  a.counter("shared").inc(40);
  b.counter("shared").inc(2);
  b.counter("only_b").inc(7);
  a.merge(b);
  EXPECT_EQ(a.counter("shared").value(), 42u);
  EXPECT_EQ(a.counter("only_b").value(), 7u);

  Registry c, d;
  c.counter("sat").inc(UINT64_MAX - 5);
  d.counter("sat").inc(10);
  c.merge(d);
  EXPECT_EQ(c.counter("sat").value(), UINT64_MAX);  // saturates, not wraps
}

TEST(RegistryMerge, GaugesKeepTheHighWaterMark) {
  Registry a, b;
  a.gauge("depth").set(5.0);
  b.gauge("depth").set(3.0);
  b.gauge("only_b").set(1.5);
  a.merge(b);
  EXPECT_EQ(a.gauge("depth").value(), 5.0);  // lower incoming value ignored
  EXPECT_EQ(a.gauge("only_b").value(), 1.5);
  Registry c;
  c.gauge("depth").set(9.0);
  a.merge(c);
  EXPECT_EQ(a.gauge("depth").value(), 9.0);  // higher incoming value wins
}

TEST(RegistryMerge, HistogramsAddBucketsAndExactStats) {
  Registry a, b;
  for (double v : {1.0, 2.0}) a.histogram("lat").record(v);
  for (double v : {4.0, 100.0}) b.histogram("lat").record(v);
  a.merge(b);

  const LatencyHistogram& h = *a.find_histogram("lat");
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 100.0);
  EXPECT_NEAR(h.mean_us(), 26.75, 1e-9);

  // Bucket-wise addition: the merged buckets are the element-wise sum.
  LatencyHistogram sequential;
  for (double v : {1.0, 2.0, 4.0, 100.0}) sequential.record(v);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(h.bucket_count(i), sequential.bucket_count(i)) << "bucket " << i;
  }
}

TEST(RegistryMerge, OrderedFoldEqualsDirectAccumulation) {
  // Three "runs", folded run-by-run vs accumulated straight into one
  // registry: identical JSON snapshots, byte for byte.
  auto run = [](Registry& r, int i) {
    r.counter("frames").inc(10 * (i + 1));
    r.gauge("queue_peak").set_max(2.0 * i);
    r.histogram("rtt").record(1.0 + i);
  };

  Registry direct;
  Registry folded;
  for (int i = 0; i < 3; ++i) {
    run(direct, i);
    Registry per_run;
    run(per_run, i);
    folded.merge(per_run);
  }
  EXPECT_EQ(folded.to_json(), direct.to_json());
}

TEST(RegistryMerge, EmptySourceAndSelflessTargetAreNoOps) {
  Registry a;
  a.counter("c").inc(3);
  Registry empty;
  a.merge(empty);
  EXPECT_EQ(a.counter("c").value(), 3u);
  EXPECT_EQ(a.size(), 1u);

  Registry fresh;
  fresh.merge(a);  // merge into an empty registry copies everything
  EXPECT_EQ(fresh.to_json(), a.to_json());
}

}  // namespace
}  // namespace rmc::metrics

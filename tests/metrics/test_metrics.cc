/**
 * @file
 * Unit and concurrency tests for the always-on metrics subsystem
 * (metrics/metrics.h, metrics/export.h).  The concurrent cases run
 * under TSan in CI: snapshots taken while writers increment must be
 * race-free and monotonic.  One test guards the instrument names that
 * perfbench and the serving adaptor read from the registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/native_runtime.h"
#include "metrics/export.h"
#include "metrics/metrics.h"
#include "serving/serving_runtime.h"
#include "workloads/workload.h"

namespace {

using repro::metrics::Counter;
using repro::metrics::Gauge;
using repro::metrics::LatencyHistogram;
using repro::metrics::MetricsRegistry;
using repro::metrics::MetricsSnapshot;
using repro::metrics::ScopedTimer;

/** Tests toggle collection; restore the default for later suites. */
class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { repro::metrics::setEnabled(true); }
    void TearDown() override { repro::metrics::setEnabled(true); }
};

TEST_F(MetricsTest, CounterCountsAcrossThreads)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, CounterIncByAmount)
{
    Counter c;
    c.inc(5);
    c.inc(7);
    EXPECT_EQ(c.value(), 12u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, CounterIgnoredWhenDisabled)
{
    Counter c;
    repro::metrics::setEnabled(false);
    c.inc();
    EXPECT_EQ(c.value(), 0u);
    repro::metrics::setEnabled(true);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

/**
 * The documented monotonicity contract: while writers increment, a
 * reader sweeping the shards may miss in-flight additions but can
 * never observe the sum going *down*.  Under TSan this additionally
 * proves the concurrent sweep is race-free.
 */
TEST_F(MetricsTest, SnapshotWhileIncrementingIsMonotonic)
{
    Counter c;
    constexpr int kWriters = 4;
    constexpr int kPerThread = 50000;
    std::atomic<bool> start{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&] {
            while (!start.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    start.store(true);
    std::uint64_t last = 0;
    bool monotonic = true;
    do {
        const std::uint64_t now = c.value();
        monotonic = monotonic && now >= last;
        last = now;
    } while (last <
             static_cast<std::uint64_t>(kWriters) * kPerThread);
    for (std::thread &t : writers)
        t.join();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kWriters) * kPerThread);
}

TEST_F(MetricsTest, GaugeBalancesAcrossThreads)
{
    Gauge g;
    // Producer adds on its shard, consumer subs on another; the
    // aggregate must balance out exactly.
    constexpr int kEvents = 20000;
    std::thread producer([&] {
        for (int i = 0; i < kEvents; ++i)
            g.add(2);
    });
    std::thread consumer([&] {
        for (int i = 0; i < kEvents; ++i)
            g.sub(1);
    });
    producer.join();
    consumer.join();
    EXPECT_EQ(g.value(), static_cast<std::int64_t>(kEvents));
}

TEST_F(MetricsTest, LatencyHistogramBucketsAndStats)
{
    LatencyHistogram h;
    h.observe(1e-3); // 1 ms.
    h.observe(1e-3);
    h.observe(1e-6); // 1 us.
    const LatencyHistogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 3u);
    EXPECT_NEAR(snap.sumSeconds, 2e-3 + 1e-6, 1e-7);
    EXPECT_NEAR(snap.meanSeconds(), (2e-3 + 1e-6) / 3.0, 1e-7);
    std::uint64_t total = 0;
    for (std::uint64_t b : snap.buckets)
        total += b;
    EXPECT_EQ(total, 3u);
}

TEST_F(MetricsTest, LatencyHistogramClampsNegativeSamples)
{
    // A session clock that steps backwards yields a negative latency:
    // it lands in bucket 0 and adds nothing to the sum.
    LatencyHistogram h;
    h.observe(-1.0);
    LatencyHistogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_EQ(snap.buckets[0], 1u);
    EXPECT_EQ(snap.sumSeconds, 0.0);
    h.observe(1e-3);
    snap = h.snapshot();
    EXPECT_NEAR(snap.sumSeconds, 1e-3, 1e-12);
}

TEST_F(MetricsTest, LatencyHistogramQuantiles)
{
    LatencyHistogram h;
    for (int i = 0; i < 90; ++i)
        h.observe(1e-4); // 100 us.
    for (int i = 0; i < 10; ++i)
        h.observe(1e-1); // 100 ms.
    const LatencyHistogram::Snapshot snap = h.snapshot();
    // Power-of-two buckets: quantiles are exact only to a factor of 2,
    // so check the bucket, not the point value.
    const double p50 = snap.quantileSeconds(0.5);
    EXPECT_GE(p50, 0.5e-4);
    EXPECT_LE(p50, 2e-4);
    const double p99 = snap.quantileSeconds(0.99);
    EXPECT_GE(p99, 0.5e-1);
    EXPECT_LE(p99, 2e-1);
    EXPECT_LE(p50, snap.quantileSeconds(0.9));
    EXPECT_LE(snap.quantileSeconds(0.9), p99);
}

TEST_F(MetricsTest, LatencyHistogramBatchMatchesSingleObserves)
{
    // 0, a negative, one sample below bucket 0, one past the last
    // bucket (2^31 us is about 2147 s), and a spread across the rest.
    std::vector<double> samples = {0.0, -2.5, 1e-10, 1e4, 1e-3, 1e-3};
    for (double s = 3e-10; s < 5e3; s *= 1.7)
        samples.push_back(s);
    LatencyHistogram single;
    for (const double s : samples)
        single.observe(s);
    LatencyHistogram batch;
    batch.observe(samples);
    const LatencyHistogram::Snapshot a = single.snapshot();
    const LatencyHistogram::Snapshot b = batch.snapshot();
    EXPECT_EQ(b.count, samples.size());
    EXPECT_EQ(b.count, a.count);
    EXPECT_EQ(b.sumSeconds, a.sumSeconds);
    ASSERT_EQ(b.buckets.size(),
              static_cast<std::size_t>(LatencyHistogram::kBuckets));
    EXPECT_EQ(b.buckets, a.buckets);
    EXPECT_GE(b.buckets.front(), 3u);
    EXPECT_GE(b.buckets.back(), 1u);

    // An empty batch, and a batch while metrics are off, record nothing.
    batch.observe(std::span<const double>());
    repro::metrics::setEnabled(false);
    batch.observe(samples);
    repro::metrics::setEnabled(true);
    const LatencyHistogram::Snapshot c = batch.snapshot();
    EXPECT_EQ(c.count, b.count);
    EXPECT_EQ(c.sumSeconds, b.sumSeconds);
    EXPECT_EQ(c.buckets, b.buckets);
}

TEST_F(MetricsTest, LatencyHistogramBatchAcrossThreads)
{
    // Concurrent batches land exactly: the totals equal the same
    // samples observed one at a time on one thread.
    constexpr int kThreads = 4;
    constexpr int kBatches = 500;
    const std::vector<double> samples = {1e-6, 2e-5, 3e-4, 4e-3,
                                         5e-2, 0.0,  1e-3, 1e-3};
    LatencyHistogram shared;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kBatches; ++i)
                shared.observe(samples);
        });
    }
    for (std::thread &t : threads)
        t.join();
    LatencyHistogram expected;
    for (int i = 0; i < kThreads * kBatches; ++i) {
        for (const double s : samples)
            expected.observe(s);
    }
    const LatencyHistogram::Snapshot got = shared.snapshot();
    const LatencyHistogram::Snapshot want = expected.snapshot();
    EXPECT_EQ(got.count,
              static_cast<std::uint64_t>(kThreads) * kBatches *
                  samples.size());
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.sumSeconds, want.sumSeconds);
    EXPECT_EQ(got.buckets, want.buckets);
}

TEST_F(MetricsTest, ScopedTimerRecordsOneSample)
{
    LatencyHistogram h;
    {
        const ScopedTimer timer(h);
    }
    EXPECT_EQ(h.snapshot().count, 1u);
    repro::metrics::setEnabled(false);
    {
        const ScopedTimer timer(h);
    }
    EXPECT_EQ(h.snapshot().count, 1u);
}

TEST_F(MetricsTest, RegistryReturnsStableReferences)
{
    auto &reg = MetricsRegistry::global();
    Counter &a = reg.counter("test.registry.stable");
    Counter &b = reg.counter("test.registry.stable");
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &reg.counter("test.registry.other"));
}

TEST_F(MetricsTest, RegistrySnapshotIsSortedAndComplete)
{
    // The registry is process-wide: assert on what this test adds.
    auto &reg = MetricsRegistry::global();
    const MetricsSnapshot before = reg.snapshot();
    reg.counter("test.snap.a").inc(3);
    reg.gauge("test.snap.g").add(-2);
    reg.histogram("test.snap.h").observe(1e-3);
    const MetricsSnapshot snap = reg.snapshot();
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
    std::uint64_t a_value = 0;
    bool found_a = false, found_g = false, found_h = false;
    for (const auto &[name, value] : snap.counters) {
        if (name == "test.snap.a") {
            found_a = true;
            a_value = value;
        }
    }
    const std::int64_t g_value = before.gaugeValue("test.snap.g") - 2;
    const std::uint64_t h_count =
        before.histogramValue("test.snap.h").count + 1;
    for (const auto &[name, value] : snap.gauges)
        found_g = found_g || (name == "test.snap.g" && value == g_value);
    for (const auto &[name, value] : snap.histograms)
        found_h = found_h || (name == "test.snap.h" && value.count == h_count);
    EXPECT_TRUE(found_a);
    EXPECT_EQ(a_value, before.counterValue("test.snap.a") + 3);
    EXPECT_TRUE(found_g);
    EXPECT_TRUE(found_h);
}

/** Registry snapshots racing registry writers (the TSan-hunted case:
 *  lookup may rehash the map while a snapshot walks it). */
TEST_F(MetricsTest, SnapshotRacesRegistrationSafely)
{
    auto &reg = MetricsRegistry::global();
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        int i = 0;
        while (!stop.load()) {
            reg.counter("test.race." + std::to_string(i % 32)).inc();
            ++i;
        }
    });
    for (int i = 0; i < 200; ++i)
        (void)reg.snapshot();
    stop.store(true);
    writer.join();
}

/** snapshotDelta: counters report the window's increase. */
TEST_F(MetricsTest, SnapshotDeltaCounterIncrease)
{
    auto &reg = MetricsRegistry::global();
    auto &c = reg.counter("test.delta.c");
    c.inc(10);
    const MetricsSnapshot prev = reg.snapshot();
    c.inc(3);
    const MetricsSnapshot delta = reg.snapshotDelta(prev);
    EXPECT_EQ(delta.counterValue("test.delta.c"), 3u);
    // A counter untouched in the window reports zero, not its total.
    reg.counter("test.delta.idle").inc(5);
    const MetricsSnapshot prev2 = reg.snapshot();
    const MetricsSnapshot delta2 = reg.snapshotDelta(prev2);
    EXPECT_EQ(delta2.counterValue("test.delta.idle"), 0u);
}

/** snapshotDelta: gauges report the last value, never a difference —
 *  "queue depth now" is the signal, "depth changed by -3" is not. */
TEST_F(MetricsTest, SnapshotDeltaGaugeIsLastValue)
{
    auto &reg = MetricsRegistry::global();
    auto &g = reg.gauge("test.delta.g");
    const std::int64_t start = g.value();
    g.add(7);
    const MetricsSnapshot prev = reg.snapshot();
    g.sub(3);
    const MetricsSnapshot delta = reg.snapshotDelta(prev);
    EXPECT_EQ(delta.gaugeValue("test.delta.g"), start + 4);
}

/** snapshotDelta: histograms report the interval view — quantiles
 *  describe only the window's observations. */
TEST_F(MetricsTest, SnapshotDeltaHistogramIntervalView)
{
    auto &reg = MetricsRegistry::global();
    auto &h = reg.histogram("test.delta.h");
    for (int i = 0; i < 100; ++i)
        h.observe(1e-3); // Old regime: 1 ms.
    const MetricsSnapshot prev = reg.snapshot();
    for (int i = 0; i < 10; ++i)
        h.observe(1.0); // Window regime: 1 s.
    const MetricsSnapshot delta = reg.snapshotDelta(prev);
    const auto window = delta.histogramValue("test.delta.h");
    EXPECT_EQ(window.count, 10u);
    EXPECT_NEAR(window.sumSeconds, 10.0, 0.5);
    // The cumulative p50 would sit at 1 ms; the window's sits at 1 s.
    EXPECT_GT(window.quantileSeconds(0.5), 0.5);
}

/** snapshotDelta: an empty window (no activity) is all zeroes. */
TEST_F(MetricsTest, SnapshotDeltaEmptyWindow)
{
    auto &reg = MetricsRegistry::global();
    reg.counter("test.delta.e").inc(4);
    reg.histogram("test.delta.eh").observe(1e-3);
    const MetricsSnapshot prev = reg.snapshot();
    const MetricsSnapshot delta = reg.snapshotDelta(prev);
    EXPECT_EQ(delta.counterValue("test.delta.e"), 0u);
    const auto window = delta.histogramValue("test.delta.eh");
    EXPECT_EQ(window.count, 0u);
    EXPECT_DOUBLE_EQ(window.quantileSeconds(0.99), 0.0);
}

/** A reset between the snapshots degrades to "everything since the
 *  reset" — the delta reports the current value, it never wraps. */
TEST_F(MetricsTest, SnapshotDeltaSurvivesResetBetweenSnapshots)
{
    auto &reg = MetricsRegistry::global();
    auto &c = reg.counter("test.delta.r");
    c.inc(100);
    const MetricsSnapshot prev = reg.snapshot();
    c.reset();
    c.inc(6);
    const MetricsSnapshot delta = reg.snapshotDelta(prev);
    EXPECT_EQ(delta.counterValue("test.delta.r"), 6u);
}

/** An instrument born inside the window reports its full value. */
TEST_F(MetricsTest, SnapshotDeltaNewInstrument)
{
    // A fresh name on every run, so the instrument is new to the
    // registry even when the test repeats in one process.
    static int run = 0;
    const std::string born = "test.delta.born." + std::to_string(run++);
    auto &reg = MetricsRegistry::global();
    const MetricsSnapshot prev = reg.snapshot();
    reg.counter(born).inc(9);
    const MetricsSnapshot delta = reg.snapshotDelta(prev);
    bool found = false;
    for (const auto &[name, value] : delta.counters)
        if (name == born) {
            found = true;
            EXPECT_EQ(value, 9u);
        }
    EXPECT_TRUE(found);
}

/** The lookup helpers answer absent names with zeroes. */
TEST_F(MetricsTest, SnapshotAccessorsOnAbsentNames)
{
    const MetricsSnapshot empty;
    EXPECT_EQ(empty.counterValue("no.such"), 0u);
    EXPECT_EQ(empty.gaugeValue("no.such"), 0);
    EXPECT_EQ(empty.histogramValue("no.such").count, 0u);
}

TEST_F(MetricsTest, JsonExportShape)
{
    // Rendering the test's own window keeps the exported value 7 in
    // any process.
    auto &reg = MetricsRegistry::global();
    const MetricsSnapshot prev = reg.snapshot();
    reg.counter("test.json.count").inc(7);
    reg.histogram("test.json.lat").observe(2e-3);
    const std::string json =
        repro::metrics::toJson(reg.snapshotDelta(prev));
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.count\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"p99_seconds\""), std::string::npos);
}

TEST_F(MetricsTest, PrometheusExportShape)
{
    auto &reg = MetricsRegistry::global();
    const MetricsSnapshot prev = reg.snapshot();
    reg.counter("test.prom.count").inc(2);
    reg.histogram("test.prom.lat").observe(3e-3);
    const std::string text =
        repro::metrics::toPrometheus(reg.snapshotDelta(prev));
    EXPECT_NE(text.find("repro_test_prom_count 2"), std::string::npos);
    EXPECT_NE(text.find("repro_test_prom_lat_bucket{le=\""),
              std::string::npos);
    EXPECT_NE(text.find("repro_test_prom_lat_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("repro_test_prom_lat_count"), std::string::npos);
}

TEST(Metrics, BenchmarkReadInstrumentsExist)
{
    // perfbench leaves a metric out of its result line when the
    // registry counter behind it is gone, and the serving adaptor reads
    // a missing name as zero: every name either reads must exist once a
    // batch run and a served session have gone through the code that
    // ticks it.
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.1);
    const auto &model = workload->model();
    repro::core::StatsConfig config;
    config.numChunks = 3;
    config.altWindowK = 2;
    config.numOriginalStates = 2;
    (void)repro::core::NativeRuntime(2).run(model, config, 11);
    {
        repro::serving::ServingRuntime runtime;
        repro::serving::SessionConfig cfg;
        cfg.chunkInputs = 4;
        const repro::serving::SessionId id = runtime.admit(model, cfg);
        for (int i = 0; i < 8; ++i)
            (void)runtime.submit(id);
        runtime.evict(id);
    }

    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    const auto has = [](const auto &entries, const std::string &name) {
        return std::any_of(entries.begin(), entries.end(),
                           [&](const auto &e) { return e.first == name; });
    };
    for (const char *name :
         {"pool.tasks_executed", "executor.nodes_run", "obs.spans_recorded",
          "obs.dropped_spans", "state.bytes_copied", "state.blocks_shared",
          "state.validation_blocks_compared",
          "state.validation_blocks_skipped", "serving.chunks_committed",
          "serving.chunks_aborted", "serving.outputs_delivered",
          "serving.inputs_submitted", "serving.inputs_rejected",
          "runtime.commit_match_first", "runtime.commit_match_replica",
          "runtime.commit_match_none"})
        EXPECT_TRUE(has(snap.counters, name)) << "counter " << name;
    for (const char *name :
         {"serving.chunk_process_seconds", "serving.queue_depth"})
        EXPECT_TRUE(has(snap.histograms, name)) << "histogram " << name;
}

} // namespace

#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/histogram.h"
#include "util/log.h"

namespace repro::metrics {

namespace {

std::atomic<bool> g_enabled{true};

} // namespace

void
setEnabled(bool enabled)
{
    g_enabled.store(enabled, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

unsigned
shardIndex()
{
    static std::atomic<unsigned> next{0};
    // Round-robin assignment on first use: with <= kShards live
    // threads every thread owns a private shard; beyond that threads
    // share, which is still correct (atomic adds), just contended.
    thread_local const unsigned index =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
}

void
Counter::reset()
{
    for (detail::Cell &cell : shards_)
        cell.v.store(0, std::memory_order_relaxed);
}

int
LatencyHistogram::bucketOf(double seconds)
{
    const double us = seconds * 1e6;
    // Bucket index = floor(log2(us)) - kLog2Lo, clamped into range.
    // log2(0) is -inf; the first bucket absorbs it.
    int b = 0;
    if (us > 0.0) {
        b = static_cast<int>(std::floor(std::log2(us))) - kLog2Lo;
        b = std::max(0, std::min(b, kBuckets - 1));
    }
    return b;
}

void
LatencyHistogram::observe(double seconds)
{
    if (!enabled())
        return;
    // A negative sample (a clock that stepped back) counts as 0 in
    // the bucket and the sum alike; the sum is unsigned.
    seconds = std::max(seconds, 0.0);
    buckets_[bucketOf(seconds)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumNanos_.fetch_add(
        static_cast<std::uint64_t>(std::llround(seconds * 1e9)),
        std::memory_order_relaxed);
}

void
LatencyHistogram::observe(std::span<const double> seconds)
{
    if (!enabled() || seconds.empty())
        return;
    // Accumulate locally with observe(double)'s clamp and rounding;
    // the unsigned sum wraps the same way in any order.
    std::uint64_t counts[kBuckets] = {};
    std::uint64_t sum_nanos = 0;
    for (double s : seconds) {
        s = std::max(s, 0.0);
        ++counts[bucketOf(s)];
        sum_nanos += static_cast<std::uint64_t>(std::llround(s * 1e9));
    }
    for (int b = 0; b < kBuckets; ++b) {
        if (counts[b] != 0)
            buckets_[b].fetch_add(counts[b], std::memory_order_relaxed);
    }
    count_.fetch_add(seconds.size(), std::memory_order_relaxed);
    sumNanos_.fetch_add(sum_nanos, std::memory_order_relaxed);
}

double
LatencyHistogram::Snapshot::bucketHighSeconds(int b)
{
    return std::exp2(static_cast<double>(kLog2Lo + b + 1)) * 1e-6;
}

double
LatencyHistogram::Snapshot::quantileSeconds(double p) const
{
    if (count == 0)
        return 0.0;
    // Materialize the power-of-two buckets into a util::Histogram over
    // log2(us) — equal-width bins there — and reuse its interpolating
    // quantile.  Each bucket's mass is added at the bucket midpoint,
    // which lands it in the matching bin.
    util::Histogram h(static_cast<double>(kLog2Lo),
                      static_cast<double>(kLog2Lo + kBuckets),
                      static_cast<std::size_t>(kBuckets));
    for (int b = 0; b < kBuckets; ++b) {
        h.addCount(static_cast<double>(kLog2Lo + b) + 0.5,
                   buckets[static_cast<std::size_t>(b)]);
    }
    return std::exp2(h.quantile(p)) * 1e-6;
}

LatencyHistogram::Snapshot
LatencyHistogram::Snapshot::deltaSince(const Snapshot &prev) const
{
    Snapshot delta;
    delta.buckets.resize(kBuckets);
    std::uint64_t bucket_total = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const auto i = static_cast<std::size_t>(b);
        const std::uint64_t cur_b = i < buckets.size() ? buckets[i] : 0;
        const std::uint64_t prev_b =
            i < prev.buckets.size() ? prev.buckets[i] : 0;
        delta.buckets[i] = cur_b > prev_b ? cur_b - prev_b : 0;
        bucket_total += delta.buckets[i];
    }
    // Rebuild the count from the delta buckets: the scalar counters of
    // the two snapshots were swept at different instants than their
    // bucket arrays, and a difference of racy counts can disagree with
    // the bucket mass quantileSeconds interpolates over.
    delta.count = bucket_total;
    delta.sumSeconds =
        sumSeconds > prev.sumSeconds ? sumSeconds - prev.sumSeconds : 0.0;
    return delta;
}

LatencyHistogram::Snapshot
LatencyHistogram::snapshot() const
{
    Snapshot snap;
    snap.buckets.resize(kBuckets);
    for (int b = 0; b < kBuckets; ++b) {
        snap.buckets[static_cast<std::size_t>(b)] =
            buckets_[b].load(std::memory_order_relaxed);
    }
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sumSeconds =
        static_cast<double>(sumNanos_.load(std::memory_order_relaxed)) *
        1e-9;
    // Concurrent observes can make the scalar count lag or lead the
    // bucket sweep; clamp so consumers never see sum(buckets) > count.
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t c : snap.buckets)
        bucket_total += c;
    snap.count = std::max(snap.count, bucket_total);
    return snap;
}

namespace {

/** Value of @p name in a sorted name/value vector, or @p fallback. */
template <typename Pair, typename Value>
Value
lookup(const std::vector<Pair> &entries, const std::string &name,
       Value fallback)
{
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const Pair &entry, const std::string &key) {
            return entry.first < key;
        });
    if (it == entries.end() || it->first != name)
        return fallback;
    return it->second;
}

} // namespace

std::uint64_t
MetricsSnapshot::counterValue(const std::string &name) const
{
    return lookup(counters, name, std::uint64_t{0});
}

std::int64_t
MetricsSnapshot::gaugeValue(const std::string &name) const
{
    return lookup(gauges, name, std::int64_t{0});
}

LatencyHistogram::Snapshot
MetricsSnapshot::histogramValue(const std::string &name) const
{
    return lookup(histograms, name, LatencyHistogram::Snapshot{});
}

MetricsSnapshot
snapshotDiff(const MetricsSnapshot &prev, const MetricsSnapshot &cur)
{
    MetricsSnapshot delta;
    delta.counters.reserve(cur.counters.size());
    for (const auto &[name, value] : cur.counters) {
        const std::uint64_t before =
            lookup(prev.counters, name, std::uint64_t{0});
        delta.counters.emplace_back(
            name, value >= before ? value - before : value);
    }
    // Gauges carry their latest value: instantaneous quantities do not
    // difference meaningfully (see snapshotDiff's contract).
    delta.gauges = cur.gauges;
    delta.histograms.reserve(cur.histograms.size());
    for (const auto &[name, snap] : cur.histograms) {
        delta.histograms.emplace_back(
            name, snap.deltaSince(lookup(prev.histograms, name,
                                         LatencyHistogram::Snapshot{})));
    }
    return delta;
}

MetricsSnapshot
MetricsRegistry::snapshotDelta(const MetricsSnapshot &prev) const
{
    return snapshotDiff(prev, snapshot());
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Intentionally immortal: pool workers may still increment during
    // static destruction (ThreadPool::global() stops at exit); an
    // ordinary static could be destroyed first.
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace_back(name, counter->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, gauge] : gauges_)
        snap.gauges.emplace_back(name, gauge->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, hist] : histograms_)
        snap.histograms.emplace_back(name, hist->snapshot());
    return snap;
}

} // namespace repro::metrics

/**
 * @file
 * Always-on runtime metrics: sharded counters, gauges, and streaming
 * latency histograms behind one process-wide registry.
 *
 * The measured trace (trace/measured_trace.h, rebuilt from a batch
 * run's spans) answers "where did the speedup go" for one run,
 * post-mortem.  This subsystem is the complement — counters cheap
 * enough to leave enabled in *every* run, production style, so
 * anomalies (abort storms, queue backlog, state-copy blowup) are
 * attributable after the fact from the numbers the run already
 * exported.  A protocol step's histogram sample and its span come
 * from the same two timestamps (core/stats_protocol.h).
 *
 * Design:
 *  - Counter/Gauge are per-thread *sharded*: each thread increments its
 *    own cache-line-aligned atomic slot (relaxed fetch_add, no CAS
 *    loop, no lock), and readers aggregate across shards on demand.
 *    The hot path never contends; reads pay the (rare) full sweep.
 *    Snapshots taken while writers are incrementing are race-free and
 *    monotonic: each shard is monotone in time, so a later sweep can
 *    only observe a larger sum (tests/metrics enforces this under
 *    TSan).
 *  - LatencyHistogram is a bounded-memory streaming histogram over
 *    power-of-two latency buckets (atomic counts).  Quantiles are
 *    computed at snapshot time by materializing the buckets into a
 *    util::Histogram in log2 space and interpolating with its
 *    quantile() — one quantile engine for figures and metrics.
 *  - MetricsRegistry::global() owns every instrument by name.
 *    Instrument lookups take a mutex; call sites therefore resolve
 *    their instruments once (function-local static reference) and the
 *    steady state is pure shard arithmetic.
 *  - setEnabled(false) turns every instrument into a near-no-op (one
 *    relaxed atomic load) so the cost of the layer itself is
 *    measurable: bench/native_overheads reports the on-vs-off
 *    wall-clock delta in its JSON artifact.
 *
 * Rendering one consistent snapshot as JSON or Prometheus-style text
 * lives in metrics/export.h.
 */

#ifndef REPRO_METRICS_METRICS_H
#define REPRO_METRICS_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace repro::metrics {

/** Globally enables/disables every instrument (default: enabled). */
void setEnabled(bool enabled);

/** Whether instruments currently record. */
bool enabled();

/** Shards per instrument; a small power of two — threads hash onto
 *  shards round-robin, so contention needs > kShards live threads. */
constexpr unsigned kShards = 16;

/** Index of the calling thread's shard (stable per thread). */
unsigned shardIndex();

namespace detail {

/** One cache-line-isolated counter cell (no false sharing between
 *  shards of the same instrument or neighbouring instruments). */
struct alignas(64) Cell
{
    std::atomic<std::int64_t> v{0};
};

} // namespace detail

/**
 * Monotonically increasing event count, per-thread sharded.
 */
class Counter
{
  public:
    /** Adds @p n on the calling thread's shard. */
    void
    inc(std::uint64_t n = 1)
    {
        if (!enabled())
            return;
        shards_[shardIndex()].v.fetch_add(static_cast<std::int64_t>(n),
                                          std::memory_order_relaxed);
    }

    /** Sum over all shards.  Safe, and monotonic across successive
     *  calls, while writers are still incrementing. */
    std::uint64_t
    value() const
    {
        std::int64_t sum = 0;
        for (const detail::Cell &cell : shards_)
            sum += cell.v.load(std::memory_order_relaxed);
        return static_cast<std::uint64_t>(sum);
    }

    /** Zeroes every shard (tests and bench session isolation only —
     *  not safe to race with writers expecting monotonicity). */
    void reset();

  private:
    detail::Cell shards_[kShards];
};

/**
 * Signed instantaneous quantity (queue depth, in-flight nodes),
 * maintained by add/sub deltas.  Sharded like Counter: a thread may
 * add on one shard and another thread sub on a different one — shard
 * values go negative, the aggregate stays exact.
 */
class Gauge
{
  public:
    void
    add(std::int64_t n = 1)
    {
        if (!enabled())
            return;
        shards_[shardIndex()].v.fetch_add(n, std::memory_order_relaxed);
    }

    void sub(std::int64_t n = 1) { add(-n); }

    /** Sum over all shards. */
    std::int64_t
    value() const
    {
        std::int64_t sum = 0;
        for (const detail::Cell &cell : shards_)
            sum += cell.v.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    detail::Cell shards_[kShards];
};

/**
 * Bounded-memory streaming latency histogram: power-of-two buckets
 * over microseconds, from 2^kLog2Lo us (sub-nanosecond) to
 * 2^(kLog2Lo + kBuckets) us (~36 minutes), atomic counts.
 * observe() costs one log2, three relaxed fetch_adds.  The batch
 * overload records n samples with one fetch_add per touched bucket
 * plus two, so writers that share a histogram contend once per batch
 * instead of once per sample.
 */
class LatencyHistogram
{
  public:
    /** Bucket b spans [2^(kLog2Lo + b), 2^(kLog2Lo + b + 1)) us. */
    static constexpr int kLog2Lo = -11;
    static constexpr int kBuckets = 42;

    /** Records one latency of @p seconds (negative clamps to 0). */
    void observe(double seconds);

    /** Records every latency in @p seconds: the same bucket counts,
     *  count and sum as one observe(double) call per element. */
    void observe(std::span<const double> seconds);

    /** Convenience: records now() - @p start. */
    void
    observeSince(std::chrono::steady_clock::time_point start)
    {
        if (!enabled())
            return;
        observe(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    }

    /** Aggregated view of one histogram at a point in time. */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double sumSeconds = 0.0;
        /** Count per power-of-two bucket (same shape as the live
         *  histogram); bucketHighSeconds(b) is bucket b's upper edge. */
        std::vector<std::uint64_t> buckets;

        double
        meanSeconds() const
        {
            return count ? sumSeconds / static_cast<double>(count) : 0.0;
        }

        /** Upper edge of bucket @p b in seconds. */
        static double bucketHighSeconds(int b);

        /** Interpolated quantile in seconds (0 when empty), computed
         *  through util::Histogram::quantile in log2 space. */
        double quantileSeconds(double p) const;

        /**
         * The *interval* view: observations recorded after @p prev was
         * taken and before this snapshot was.  Bucket counts subtract
         * per bucket (clamped at zero, so a @p prev that is not an
         * earlier snapshot of this histogram cannot underflow), count
         * is rebuilt from the delta buckets, and sumSeconds subtracts
         * with the same clamp.  quantileSeconds on the result answers
         * "p99 of this window", which is the windowed-rate primitive
         * the feedback controller consumes.
         * An empty window (no observations between the snapshots) has
         * count == 0 and quantileSeconds == 0.
         */
        Snapshot deltaSince(const Snapshot &prev) const;
    };

    /** Consistent-enough copy of the bucket counts (relaxed reads;
     *  concurrent observes may or may not be included). */
    Snapshot snapshot() const;

  private:
    /** Bucket of a sample already clamped to >= 0. */
    static int bucketOf(double seconds);

    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumNanos_{0};
};

/** One consistent snapshot of every registered instrument, ordered by
 *  name (std::map iteration) so exports are deterministic. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, LatencyHistogram::Snapshot>>
        histograms;

    /** Value of the counter named @p name, or 0 when absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Value of the gauge named @p name, or 0 when absent. */
    std::int64_t gaugeValue(const std::string &name) const;

    /** Snapshot of the histogram named @p name (empty when absent). */
    LatencyHistogram::Snapshot
    histogramValue(const std::string &name) const;
};

/**
 * The windowed delta between two registry snapshots, the first-class
 * input of the adaptive feedback controller:
 *
 *  - counters report the *increase* cur - prev (an instrument that
 *    appears only in @p cur reports its full value; a counter that
 *    shrank — a Counter::reset() between the snapshots — reports its
 *    current value rather than wrapping);
 *  - gauges report the *last* value (the one from @p cur), never a
 *    difference: a gauge is an instantaneous quantity, and "queue
 *    depth now" is the signal, "queue depth changed by -3" is not;
 *  - histograms report the interval view
 *    (LatencyHistogram::Snapshot::deltaSince), so quantiles describe
 *    only the window's observations.
 *
 * Instruments present in @p prev but missing from @p cur are dropped
 * (cannot happen with a live registry — instruments are immortal —
 * but deserialized snapshots may be partial).
 */
MetricsSnapshot snapshotDiff(const MetricsSnapshot &prev,
                             const MetricsSnapshot &cur);

/**
 * Process-wide home of every instrument.  Instruments are created on
 * first lookup and live forever (the global registry is immortal, so
 * a worker thread draining during static destruction can still
 * safely increment).
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry. */
    static MetricsRegistry &global();

    /** The counter named @p name, created on first use.  The returned
     *  reference is stable for the registry's lifetime — call sites
     *  cache it (function-local static) and skip the lock. */
    Counter &counter(const std::string &name);

    /** The gauge named @p name, created on first use. */
    Gauge &gauge(const std::string &name);

    /** The latency histogram named @p name, created on first use. */
    LatencyHistogram &histogram(const std::string &name);

    /** One pass over every instrument, sorted by name. */
    MetricsSnapshot snapshot() const;

    /** The windowed delta between @p prev and the registry's state
     *  now: snapshotDiff(prev, snapshot()).  Callers keeping a rolling
     *  window take snapshot() for the next prev themselves (one sweep
     *  serves both uses). */
    MetricsSnapshot snapshotDelta(const MetricsSnapshot &prev) const;

  private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/**
 * RAII latency probe: records the scope's wall time into a histogram
 * on destruction.  When metrics are disabled at construction the
 * clock is never read.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(LatencyHistogram &hist)
        : hist_(enabled() ? &hist : nullptr),
          start_(hist_ ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{})
    {
    }

    ~ScopedTimer()
    {
        if (hist_)
            hist_->observeSince(start_);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    LatencyHistogram *hist_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace repro::metrics

#endif // REPRO_METRICS_METRICS_H

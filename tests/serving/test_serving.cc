/**
 * @file
 * ServingRuntime behaviour tests: session lifecycle, typed submit
 * backpressure, deterministic fake-clock deadline closure (clock jumps
 * included), closure-order invariance of outputs, e2e latency
 * accounting for a chunk larger than the strand's buffer, concurrent
 * multi-session traffic with its registry accounting, and BlockArena
 * reclamation at eviction.
 *
 * Every deterministic test runs with the background coordinator off
 * and pumps poll() manually against an injected fake clock, so closure
 * traces are exact and repeatable; only the concurrency test uses the
 * real coordinator thread.  Death tests pin the input checks of
 * admit() and SessionPipeline::processChunk().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ema_model.h"
#include "metrics/metrics.h"
#include "serving/serving_runtime.h"
#include "serving/session_pipeline.h"
#include "util/block_arena.h"
#include "workloads/workload.h"

namespace {

using repro::serving::ResultChunk;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SessionPipeline;
using repro::serving::SubmitStatus;
using repro::serving::submitStatusName;
using repro::testing::EmaModel;
using repro::util::BlockArena;

using Clock = std::chrono::steady_clock;

/** Manually advanced clock injected through ServingOptions::clock. */
class FakeClock
{
  public:
    Clock::time_point
    now() const
    {
        return Clock::time_point{} +
               std::chrono::nanoseconds(nanos_.load());
    }

    void
    advance(std::chrono::nanoseconds by)
    {
        nanos_.fetch_add(by.count());
    }

    std::function<Clock::time_point()>
    fn() const
    {
        return [this] { return now(); };
    }

  private:
    std::atomic<std::int64_t> nanos_{0};
};

/** Thread-safe collector of delivered result chunks. */
struct Collector
{
    std::mutex mu;
    std::vector<double> outputs;
    std::vector<unsigned> chunkIndices;
    unsigned deadlineChunks = 0;

    std::function<void(const ResultChunk &)>
    fn()
    {
        return [this](const ResultChunk &chunk) {
            const std::lock_guard<std::mutex> lock(mu);
            chunkIndices.push_back(chunk.chunkIndex);
            if (chunk.deadlineClosed)
                ++deadlineChunks;
            outputs.insert(outputs.end(), chunk.outputs.begin(),
                           chunk.outputs.end());
        };
    }
};

ServingOptions
manualOptions(const FakeClock &clock)
{
    ServingOptions opts;
    opts.backgroundCoordinator = false;
    opts.clock = clock.fn();
    return opts;
}

TEST(ServingRuntime, LifecycleDeliversEveryAcceptedInput)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);
    EXPECT_EQ(runtime.activeSessions(), 1u);

    for (int i = 0; i < 20; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // 20 queued -> two size-closed chunks + 4 open.
    runtime.drain(id); // Drain closes the final partial chunk.

    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.submitted, 20u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.chunksClosed, 3u);
    EXPECT_EQ(stats.chunksProcessed, 3u);
    EXPECT_EQ(stats.outputsDelivered, 20u);
    EXPECT_TRUE(stats.drained);

    const std::lock_guard<std::mutex> lock(results.mu);
    EXPECT_EQ(results.outputs.size(), 20u);
    // Strand delivery is strictly in chunk order.
    ASSERT_EQ(results.chunkIndices.size(), 3u);
    EXPECT_EQ(results.chunkIndices[0], 0u);
    EXPECT_EQ(results.chunkIndices[1], 1u);
    EXPECT_EQ(results.chunkIndices[2], 2u);

    runtime.evict(id);
    EXPECT_EQ(runtime.activeSessions(), 0u);
}

TEST(ServingRuntime, SubmitReportsTypedStatuses)
{
    EmaModel::Config mc;
    mc.inputs = 4;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    // Unknown session.
    EXPECT_EQ(runtime.submit(777).status, SubmitStatus::UnknownSession);

    // Backpressure: ring of 2, nobody draining it.
    SessionConfig small;
    small.queueCapacity = 2;
    small.chunkInputs = 100;
    const SessionId cramped = runtime.admit(model, small);
    EXPECT_EQ(runtime.submit(cramped).status, SubmitStatus::Accepted);
    EXPECT_EQ(runtime.submit(cramped).status, SubmitStatus::Accepted);
    const auto full = runtime.submit(cramped);
    EXPECT_EQ(full.status, SubmitStatus::Backpressure);
    EXPECT_EQ(full.queueDepth, 2u);
    EXPECT_EQ(runtime.sessionStats(cramped).rejected, 1u);

    // Exhausted: the model's input stream has 4 inputs.
    SessionConfig roomy;
    roomy.queueCapacity = 16;
    roomy.chunkInputs = 100;
    const SessionId bounded = runtime.admit(model, roomy);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(runtime.submit(bounded).status, SubmitStatus::Accepted);
    EXPECT_EQ(runtime.submit(bounded).status, SubmitStatus::Exhausted);

    // Draining: intake stops after drain().
    runtime.drain(bounded);
    EXPECT_EQ(runtime.submit(bounded).status, SubmitStatus::Draining);

    // Evicted ids are unknown again.
    runtime.evict(bounded);
    EXPECT_EQ(runtime.submit(bounded).status,
              SubmitStatus::UnknownSession);

    EXPECT_STREQ(submitStatusName(SubmitStatus::Backpressure),
                 "backpressure");
    runtime.evict(cramped);
}

TEST(ServingRuntime, DeadlineClosesPartialChunkOfStalledProducer)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    const auto deadlineBefore =
        repro::metrics::MetricsRegistry::global()
            .counter("serving.deadline_closures")
            .value();

    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 100; // Size closure would need 100 inputs...
    cfg.latencyBudget = std::chrono::milliseconds(50);
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    // ... but the producer stalls after 3.
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);

    // Within the budget: nothing closes.
    clock.advance(std::chrono::milliseconds(10));
    runtime.poll();
    EXPECT_EQ(runtime.sessionStats(id).chunksClosed, 0u);

    // Past the budget: the partial chunk closes and commits without
    // any further producer activity.
    clock.advance(std::chrono::milliseconds(41));
    runtime.poll();
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.chunksClosed, 1u);
    EXPECT_EQ(stats.deadlineClosures, 1u);

    runtime.drain(id);
    EXPECT_EQ(runtime.sessionStats(id).outputsDelivered, 3u);
    {
        const std::lock_guard<std::mutex> lock(results.mu);
        EXPECT_EQ(results.outputs.size(), 3u);
        EXPECT_EQ(results.deadlineChunks, 1u);
    }
    EXPECT_EQ(repro::metrics::MetricsRegistry::global()
                  .counter("serving.deadline_closures")
                  .value(),
              deadlineBefore + 1);
    runtime.evict(id);
}

TEST(ServingRuntime, DeadlineClosureSurvivesClockJumps)
{
    // Pins today's behaviour under a steady clock that jumps: a
    // backwards jump delays deadline closure by the size of the jump,
    // a forwards jump closes everything open at once, and neither
    // changes outputs or wraps a latency sample.
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    auto &e2e = repro::metrics::MetricsRegistry::global().histogram(
        "serving.e2e_latency_seconds");
    const auto e2eBefore = e2e.snapshot();

    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 100;
    cfg.latencyBudget = std::chrono::milliseconds(50);
    cfg.seed = 17;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    clock.advance(-std::chrono::seconds(10));
    runtime.poll();
    EXPECT_EQ(runtime.sessionStats(id).chunksClosed, 0u);
    EXPECT_EQ(runtime.sessionStats(id).deadlineClosures, 0u);

    for (int i = 0; i < 2; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    clock.advance(std::chrono::seconds(20));
    runtime.poll();
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.chunksClosed, 1u);
    EXPECT_EQ(stats.deadlineClosures, 1u);

    runtime.drain(id);
    EXPECT_EQ(runtime.sessionStats(id).outputsDelivered, 5u);
    SessionPipeline replay(model, cfg.stats, cfg.seed);
    const auto expected = replay.processChunk(5);
    {
        const std::lock_guard<std::mutex> lock(results.mu);
        EXPECT_EQ(results.chunkIndices.size(), 1u);
        EXPECT_EQ(results.deadlineChunks, 1u);
        ASSERT_EQ(results.outputs.size(), expected.outputs.size());
        for (std::size_t i = 0; i < expected.outputs.size(); ++i)
            ASSERT_EQ(results.outputs[i], expected.outputs[i])
                << "input " << i;
    }

    // Delivered at t = +10 s: three inputs stamped at 0 s waited 10 s
    // and two stamped at -10 s waited 20 s, 70 s in all.  Raw
    // differences, not deltaSince(), so a wrapped sum cannot be
    // clamped away.
    const auto e2eAfter = e2e.snapshot();
    EXPECT_EQ(e2eAfter.count - e2eBefore.count, 5u);
    const double sumDelta = e2eAfter.sumSeconds - e2eBefore.sumSeconds;
    EXPECT_GT(sumDelta, 0.0);
    EXPECT_LT(sumDelta, 100.0);
    runtime.evict(id);
}

TEST(ServingRuntime, LargeChunkRecordsEveryLatency)
{
    // One chunk larger than the strand's latency buffer: every input
    // still lands in serving.e2e_latency_seconds, each exactly 1 ms.
    constexpr std::size_t kChunk = 300;
    EmaModel::Config mc;
    mc.inputs = kChunk;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    auto &e2e = repro::metrics::MetricsRegistry::global().histogram(
        "serving.e2e_latency_seconds");
    const auto e2eBefore = e2e.snapshot();

    SessionConfig cfg;
    cfg.chunkInputs = kChunk;
    cfg.queueCapacity = 512;
    const SessionId id = runtime.admit(model, cfg);
    for (std::size_t i = 0; i < kChunk; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    clock.advance(std::chrono::milliseconds(1));
    runtime.poll();
    runtime.drain(id);
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.chunksProcessed, 1u);
    EXPECT_EQ(stats.outputsDelivered, kChunk);

    const auto e2eAfter = e2e.snapshot();
    EXPECT_EQ(e2eAfter.count - e2eBefore.count, kChunk);
    EXPECT_NEAR(e2eAfter.sumSeconds - e2eBefore.sumSeconds, 0.3, 1e-9);
    // 1 ms = 1000 us sits in bucket [2^9, 2^10) us.
    const auto b = static_cast<std::size_t>(
        9 - repro::metrics::LatencyHistogram::kLog2Lo);
    EXPECT_EQ(e2eAfter.buckets[b] - e2eBefore.buckets[b], kChunk);
    runtime.evict(id);
}

TEST(ServingRuntime, ClosureMechanismDoesNotChangeOutputs)
{
    // The same closure trace — chunks of 7, 13, 5, 10 — produced two
    // ways: explicit closeChunk() calls vs. deadline expiry.  Outputs
    // must be bit-identical: timing decides *where* chunks close,
    // never what a given trace computes.
    EmaModel::Config mc;
    mc.inputs = 64;
    mc.alpha = 0.2;
    const EmaModel model(mc);
    const std::vector<int> trace = {7, 13, 5, 10};

    SessionConfig base;
    base.chunkInputs = 100; // Never reached: closure is manual/deadline.
    base.queueCapacity = 64;
    base.seed = 99;
    base.stats.altWindowK = 3;
    base.stats.numOriginalStates = 2;

    FakeClock clockA;
    ServingRuntime manual(manualOptions(clockA));
    Collector viaClose;
    SessionConfig cfgA = base;
    cfgA.onResult = viaClose.fn();
    const SessionId a = manual.admit(model, cfgA);
    for (const int n : trace) {
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(manual.submit(a).status, SubmitStatus::Accepted);
        EXPECT_TRUE(manual.closeChunk(a));
    }
    manual.drain(a);

    FakeClock clockB;
    ServingRuntime timed(manualOptions(clockB));
    Collector viaDeadline;
    SessionConfig cfgB = base;
    cfgB.latencyBudget = std::chrono::milliseconds(5);
    cfgB.onResult = viaDeadline.fn();
    const SessionId b = timed.admit(model, cfgB);
    for (const int n : trace) {
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(timed.submit(b).status, SubmitStatus::Accepted);
        clockB.advance(std::chrono::milliseconds(6));
        timed.poll(); // Budget expired -> deadline-closes the burst.
    }
    timed.drain(b);

    const auto statsA = manual.sessionStats(a);
    const auto statsB = timed.sessionStats(b);
    EXPECT_EQ(statsA.deadlineClosures, 0u);
    EXPECT_EQ(statsB.deadlineClosures, 4u);
    EXPECT_EQ(statsA.commits, statsB.commits);
    EXPECT_EQ(statsA.aborts, statsB.aborts);

    const std::lock_guard<std::mutex> lockA(viaClose.mu);
    const std::lock_guard<std::mutex> lockB(viaDeadline.mu);
    ASSERT_EQ(viaClose.outputs.size(), 35u);
    ASSERT_EQ(viaClose.outputs.size(), viaDeadline.outputs.size());
    for (std::size_t i = 0; i < viaClose.outputs.size(); ++i)
        ASSERT_EQ(viaClose.outputs[i], viaDeadline.outputs[i])
            << "output " << i;

    manual.evict(a);
    timed.evict(b);
}

TEST(ServingRuntime, ConcurrentSessionsDeliverIndependently)
{
    EmaModel::Config mc;
    mc.inputs = 512;
    const EmaModel model(mc);

    auto &registry = repro::metrics::MetricsRegistry::global();
    const repro::metrics::MetricsSnapshot before = registry.snapshot();

    ServingRuntime runtime; // Real background coordinator + real clock.

    constexpr int kSessions = 4;
    constexpr int kInputs = 200;
    std::vector<SessionId> ids(kSessions);
    std::vector<Collector> results(kSessions);
    for (int i = 0; i < kSessions; ++i) {
        SessionConfig cfg;
        cfg.chunkInputs = 16;
        cfg.queueCapacity = 32;
        cfg.seed = 1000 + static_cast<std::uint64_t>(i);
        cfg.latencyBudget = std::chrono::milliseconds(1);
        cfg.onResult = results[i].fn();
        ids[i] = runtime.admit(model, cfg);
    }
    EXPECT_EQ(runtime.activeSessions(),
              static_cast<std::size_t>(kSessions));

    std::vector<std::thread> producers;
    for (int i = 0; i < kSessions; ++i) {
        producers.emplace_back([&, i] {
            int accepted = 0;
            while (accepted < kInputs) {
                const auto result = runtime.submit(ids[i]);
                if (result.status == SubmitStatus::Accepted)
                    ++accepted;
                else
                    std::this_thread::yield(); // Backpressure: retry.
            }
        });
    }
    for (std::thread &t : producers)
        t.join();

    // Interleave drains and evictions from two threads.
    std::thread evictor([&] {
        for (int i = 0; i < kSessions; i += 2)
            runtime.evict(ids[i]);
    });
    for (int i = 1; i < kSessions; i += 2)
        runtime.drain(ids[i]);
    evictor.join();

    for (int i = 0; i < kSessions; ++i) {
        if (i % 2 == 1) {
            const auto stats = runtime.sessionStats(ids[i]);
            EXPECT_EQ(stats.submitted,
                      static_cast<std::uint64_t>(kInputs));
            EXPECT_EQ(stats.outputsDelivered,
                      static_cast<std::uint64_t>(kInputs));
            EXPECT_TRUE(stats.drained);
            runtime.evict(ids[i]);
        }
        const std::lock_guard<std::mutex> lock(results[i].mu);
        EXPECT_EQ(results[i].outputs.size(),
                  static_cast<std::size_t>(kInputs))
            << "session " << i;
    }
    EXPECT_EQ(runtime.activeSessions(), 0u);

    // The registry agrees: every accepted input was delivered, every
    // session left the active gauge, and the always-on span rings
    // recorded the traffic without wrapping.
    const repro::metrics::MetricsSnapshot delta =
        repro::metrics::snapshotDiff(before, registry.snapshot());
    EXPECT_EQ(delta.counterValue("serving.inputs_submitted"),
              static_cast<std::uint64_t>(kSessions * kInputs));
    EXPECT_EQ(delta.counterValue("serving.outputs_delivered"),
              delta.counterValue("serving.inputs_submitted"));
    EXPECT_EQ(registry.gauge("serving.sessions_active").value(),
              before.gaugeValue("serving.sessions_active"));
    EXPECT_GT(delta.counterValue("obs.spans_recorded"), 0u);
    EXPECT_EQ(delta.counterValue("obs.dropped_spans"), 0u);
}

TEST(ServingRuntime, EvictionReturnsEveryArenaBlock)
{
    // A block-payload workload allocates its session
    // state from the global BlockArena; evicting the session must
    // return every block it held.
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.1);
    const auto &model = workload->model();

    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    const std::size_t liveBefore = BlockArena::global().liveBlocks();
    const std::size_t freedBefore = BlockArena::global().freedBlocks();

    SessionConfig cfg;
    cfg.chunkInputs = 5;
    cfg.queueCapacity = 32;
    cfg.stats.altWindowK = 2;
    cfg.stats.numOriginalStates = 2;
    const SessionId id = runtime.admit(model, cfg);
    const std::size_t inputs = std::min<std::size_t>(20, model.numInputs());
    for (std::size_t i = 0; i < inputs; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll();
    runtime.drain(id);
    EXPECT_GT(BlockArena::global().liveBlocks(), liveBefore)
        << "drained session still holds its committed state";

    runtime.evict(id);
    EXPECT_EQ(BlockArena::global().liveBlocks(), liveBefore)
        << "eviction must return every block the session held";
    EXPECT_GT(BlockArena::global().freedBlocks(), freedBefore);
}

TEST(SessionPipelineDeathTest, ChunkPastStreamEndPanics)
{
    // A chunk must stay within the model's input range: the protocol
    // core checks it before any update reads past the input arrays.
    const auto workload =
        repro::workloads::makeWorkload("streamclassifier", 0.05);
    const auto &model = workload->model();
    SessionPipeline pipeline(model, {}, 7);
    EXPECT_DEATH(pipeline.processChunk(model.numInputs() + 500),
                 "chunk runs past the model's input range");
}

TEST(ServingRuntimeDeathTest, AdmitRejectsZeroLookahead)
{
    // admit() applies retune()'s knob checks to the initial tuning: a
    // session with K = 0 would speculate every chunk from a cold state.
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    SessionConfig cfg;
    cfg.chunkInputs = 16;
    cfg.stats.altWindowK = 0;
    EXPECT_DEATH(runtime.admit(model, cfg), "altWindowK >= 1");
}

} // namespace

/**
 * @file
 * ServingRuntime behaviour tests: session lifecycle, typed submit
 * backpressure, deterministic fake-clock deadline closure (clock jumps
 * included), closure-order invariance of outputs, e2e latency
 * accounting for a chunk larger than the strand's buffer, the bounded
 * queue (backpressure until delivery, size closure at the ring's
 * capacity), the producer's per-thread session cache across eviction
 * and runtimes, concurrent multi-session traffic with its registry
 * accounting, and BlockArena reclamation at eviction.
 *
 * Every deterministic test runs with the background coordinator off
 * and pumps poll() manually against an injected fake clock, so closure
 * traces are exact and repeatable; only the concurrency tests use the
 * real coordinator thread.  Death tests pin the input checks of
 * admit() and SessionPipeline::processChunk().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/ema_model.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "serving/serving_runtime.h"
#include "serving/session_pipeline.h"
#include "util/block_arena.h"
#include "workloads/workload.h"

namespace {

using repro::obs::SpanRecorder;
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
    std::vector<std::size_t> chunkSizes;
    unsigned deadlineChunks = 0;

    std::function<void(const ResultChunk &)>
    fn()
    {
        return [this](const ResultChunk &chunk) {
            const std::lock_guard<std::mutex> lock(mu);
            chunkIndices.push_back(chunk.chunkIndex);
            chunkSizes.push_back(chunk.outputs.size());
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

/** EmaModel whose update() waits until the test opens its gate, so a
 *  strand can be held inside its first chunk. */
class GatedModel : public EmaModel
{
  public:
    using EmaModel::EmaModel;

    double
    update(repro::core::State &state, std::size_t input,
           repro::core::ExecContext &ctx) const override
    {
        while (!open_.load(std::memory_order_acquire))
            std::this_thread::yield();
        return EmaModel::update(state, input, ctx);
    }

    void open() { open_.store(true, std::memory_order_release); }

  private:
    std::atomic<bool> open_{false};
};

/** Waits (10 s at most) until the session has delivered every input it
 *  accepted. */
bool
awaitDelivery(const ServingRuntime &runtime, SessionId id)
{
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
        const auto stats = runtime.sessionStats(id);
        if (stats.outputsDelivered == stats.submitted)
            return true;
        std::this_thread::yield();
    }
    return false;
}

/** Outputs of a fresh SessionPipeline fed @p chunkSizes: what a session
 *  that delivered those chunks must have produced. */
std::vector<double>
replayChunks(const repro::core::IStateModel &model, const SessionConfig &cfg,
             const std::vector<std::size_t> &chunkSizes)
{
    SessionPipeline replay(model, cfg.stats, cfg.seed);
    std::vector<double> outputs;
    for (const std::size_t size : chunkSizes) {
        const auto chunk = replay.processChunk(size);
        outputs.insert(outputs.end(), chunk.outputs.begin(),
                       chunk.outputs.end());
    }
    return outputs;
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

TEST(ServingRuntime, BackpressureHoldsUntilDelivery)
{
    // The ring is the session's only queue: an input holds its slot
    // until its result is delivered, so closing chunks frees nothing
    // and a held strand keeps the producer pushed back.
    EmaModel::Config mc;
    mc.inputs = 64;
    mc.alpha = 0.2;
    GatedModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 4;
    cfg.queueCapacity = 16;
    cfg.seed = 5;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    std::size_t maxDepth = 0;
    const auto offer = [&] {
        const auto r = runtime.submit(id);
        maxDepth = std::max(maxDepth, r.queueDepth);
        return r.status;
    };
    std::size_t accepted = 0;
    while (accepted <= cfg.queueCapacity &&
           offer() == SubmitStatus::Accepted)
        ++accepted;
    EXPECT_EQ(accepted, cfg.queueCapacity);

    // Four chunks close, the strand blocks in the first one, and the
    // ring stays full: nothing has been delivered.
    runtime.poll();
    EXPECT_EQ(runtime.sessionStats(id).chunksClosed, 4u);
    const SubmitStatus held = offer();
    EXPECT_EQ(held, SubmitStatus::Backpressure);
    if (held == SubmitStatus::Accepted)
        ++accepted;

    // Drain with the ring still full: every accepted input comes out.
    model.open();
    runtime.drain(id);
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.submitted, accepted);
    EXPECT_EQ(stats.outputsDelivered, stats.submitted);
    EXPECT_LE(maxDepth, cfg.queueCapacity);

    const std::lock_guard<std::mutex> lock(results.mu);
    const std::vector<double> expected =
        replayChunks(model, cfg, results.chunkSizes);
    ASSERT_EQ(results.outputs.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(results.outputs[i], expected[i]) << "input " << i;
    runtime.evict(id);
}

TEST(ServingRuntime, ChunkKnobAboveCapacityClosesAtCapacity)
{
    // A chunk knob the ring can never hold closes at the ring's
    // capacity, so a session without a deadline keeps flowing.
    EmaModel::Config mc;
    mc.inputs = 128;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 64;
    cfg.queueCapacity = 16;
    cfg.seed = 8;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    constexpr std::uint64_t kRounds = 4;
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
        std::size_t accepted = 0;
        while (accepted <= cfg.queueCapacity &&
               runtime.submit(id).status == SubmitStatus::Accepted)
            ++accepted;
        EXPECT_EQ(accepted, cfg.queueCapacity) << "round " << round;
        runtime.poll(); // A full ring is one closed chunk.
        ASSERT_EQ(runtime.sessionStats(id).chunksClosed, round);
        ASSERT_TRUE(awaitDelivery(runtime, id)) << "round " << round;
    }
    runtime.drain(id);
    EXPECT_EQ(runtime.sessionStats(id).outputsDelivered,
              kRounds * cfg.queueCapacity);

    const std::lock_guard<std::mutex> lock(results.mu);
    EXPECT_EQ(results.chunkSizes,
              std::vector<std::size_t>(kRounds, cfg.queueCapacity));
    const std::vector<double> expected =
        replayChunks(model, cfg, results.chunkSizes);
    ASSERT_EQ(results.outputs.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(results.outputs[i], expected[i]) << "input " << i;
    runtime.evict(id);
}

TEST(ServingRuntime, SubmitFollowsEvictionAndRuntimeIdentity)
{
    // submit() remembers the session this thread submitted to last;
    // eviction, a second runtime and a rebuilt runtime must each send
    // the next submit to the right session.
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;

    {
        ServingRuntime runtime(manualOptions(clock));
        const SessionId id = runtime.admit(model, cfg);
        EXPECT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
        runtime.evict(id);
        EXPECT_EQ(runtime.submit(id).status, SubmitStatus::UnknownSession);
    }

    {
        // Both runtimes number their first session 1.
        ServingRuntime a(manualOptions(clock));
        ServingRuntime b(manualOptions(clock));
        ASSERT_EQ(a.admit(model, cfg), 1u);
        ASSERT_EQ(b.admit(model, cfg), 1u);
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(a.submit(1).status, SubmitStatus::Accepted);
            if (i % 2 == 0) {
                EXPECT_EQ(b.submit(1).status, SubmitStatus::Accepted);
            }
        }
        EXPECT_EQ(a.sessionStats(1).submitted, 5u);
        EXPECT_EQ(b.sessionStats(1).submitted, 3u);
    }

    {
        // A runtime rebuilt in the same storage reuses the address and
        // the session id of the one destroyed before it.
        std::optional<ServingRuntime> runtime;
        runtime.emplace(manualOptions(clock));
        ASSERT_EQ(runtime->admit(model, cfg), 1u);
        EXPECT_EQ(runtime->submit(1).status, SubmitStatus::Accepted);
        runtime.reset();
        runtime.emplace(manualOptions(clock));
        ASSERT_EQ(runtime->admit(model, cfg), 1u);
        EXPECT_EQ(runtime->submit(1).status, SubmitStatus::Accepted);
        EXPECT_EQ(runtime->sessionStats(1).submitted, 1u);
        runtime->drain(1);
        EXPECT_EQ(runtime->sessionStats(1).outputsDelivered, 1u);
    }
}

TEST(ServingRuntime, ProducersRaceAdmitAndEvict)
{
    // Two producers submit to their own sessions, mostly through their
    // cached entries, while a third thread admits, feeds, drains and
    // evicts other sessions, leaving its own entry stale every round.
    EmaModel::Config mc;
    mc.inputs = 512;
    const EmaModel model(mc);
    auto &registry = repro::metrics::MetricsRegistry::global();
    const repro::metrics::MetricsSnapshot before = registry.snapshot();

    ServingRuntime runtime; // Real background coordinator + real clock.
    SessionConfig cfg;
    cfg.chunkInputs = 16;
    cfg.queueCapacity = 32;
    cfg.latencyBudget = std::chrono::milliseconds(1);

    constexpr int kProducers = 2;
    constexpr std::uint64_t kInputs = 400;
    std::vector<Collector> results(kProducers);
    std::vector<SessionId> ids(kProducers);
    for (int i = 0; i < kProducers; ++i) {
        SessionConfig c = cfg;
        c.seed = 2000 + static_cast<std::uint64_t>(i);
        c.onResult = results[i].fn();
        ids[i] = runtime.admit(model, c);
    }

    std::thread churn([&] {
        for (int round = 0; round < 40; ++round) {
            const SessionId id = runtime.admit(model, cfg);
            for (int accepted = 0; accepted < 8;) {
                if (runtime.submit(id).status == SubmitStatus::Accepted)
                    ++accepted;
                else
                    std::this_thread::yield();
            }
            runtime.drain(id);
            const auto stats = runtime.sessionStats(id);
            EXPECT_EQ(stats.submitted, 8u);
            EXPECT_EQ(stats.outputsDelivered, stats.submitted);
            runtime.evict(id);
            EXPECT_EQ(runtime.submit(id).status,
                      SubmitStatus::UnknownSession);
        }
    });
    std::vector<std::thread> producers;
    for (int i = 0; i < kProducers; ++i) {
        producers.emplace_back([&, i] {
            std::uint64_t accepted = 0;
            while (accepted < kInputs) {
                if (runtime.submit(ids[i]).status == SubmitStatus::Accepted)
                    ++accepted;
                else
                    std::this_thread::yield(); // Backpressure: retry.
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    churn.join();

    for (int i = 0; i < kProducers; ++i) {
        runtime.drain(ids[i]);
        const auto stats = runtime.sessionStats(ids[i]);
        EXPECT_EQ(stats.submitted, kInputs);
        EXPECT_EQ(stats.outputsDelivered, kInputs);
        runtime.evict(ids[i]);
        const std::lock_guard<std::mutex> lock(results[i].mu);
        EXPECT_EQ(results[i].outputs.size(), kInputs) << "session " << i;
    }
    EXPECT_EQ(runtime.activeSessions(), 0u);
    const repro::metrics::MetricsSnapshot delta =
        repro::metrics::snapshotDiff(before, registry.snapshot());
    EXPECT_EQ(delta.counterValue("serving.inputs_submitted"),
              kProducers * kInputs + 40 * 8);
    EXPECT_EQ(delta.counterValue("serving.outputs_delivered"),
              delta.counterValue("serving.inputs_submitted"));
}

TEST(ServingRuntime, ConcurrentSessionsDeliverIndependently)
{
    EmaModel::Config mc;
    mc.inputs = 512;
    const EmaModel model(mc);

    // The span rings are process-wide: spans that earlier work left in
    // them must not count against this test's zero-drop check.
    SpanRecorder::global().clear();
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

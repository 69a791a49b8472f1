/**
 * @file
 * Boundary-reconfiguration determinism tests: live retuning of a
 * serving session must land only at chunk boundaries; a ticking
 * adaptor with every knob pinned must stay bit-identical to the batch
 * oracle; and a live adaptor under backlog must grow the chunk at the
 * next boundary while its outputs still replay bit for bit through a
 * fresh SessionPipeline fed the delivered closure trace.
 *
 * Every test runs the coordinator manually against a fake clock, so
 * closure traces — and therefore outputs — are exact.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "adapt/serving_adaptor.h"
#include "core/ema_model.h"
#include "core/native_runtime.h"
#include "metrics/metrics.h"
#include "serving/serving_runtime.h"
#include "serving/session_pipeline.h"

namespace {

using repro::adapt::Decision;
using repro::adapt::ServingAdaptor;
using repro::core::NativeRuntime;
using repro::core::StatsConfig;
using repro::serving::ResultChunk;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SessionPipeline;
using repro::serving::SessionTuning;
using repro::serving::SubmitStatus;
using repro::testing::EmaModel;

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

/** Collects outputs and the realized per-chunk sizes. */
struct SizedCollector
{
    std::mutex mu;
    std::vector<double> outputs;
    std::vector<std::size_t> chunkSizes;

    std::function<void(const ResultChunk &)>
    fn()
    {
        return [this](const ResultChunk &chunk) {
            const std::lock_guard<std::mutex> lock(mu);
            chunkSizes.push_back(chunk.outputs.size());
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

TEST(ServingAdapt, ChunkKnobChangeTakesEffectAtNextBoundaryOnly)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    SizedCollector results;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    // Half a chunk is queued when the retune arrives: the open chunk
    // must still close at the OLD size, and only later chunks at the
    // new one.
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // 4 inputs into the open chunk — no closure yet.
    ASSERT_TRUE(runtime.retune(id, {4, 2, 1}));
    {
        const auto stats = runtime.sessionStats(id);
        // Mid-chunk: the swap is pending, not applied.
        EXPECT_EQ(stats.retunesApplied, 0u);
        EXPECT_EQ(stats.tuning.chunkInputs, 8u);
    }
    for (int i = 0; i < 12; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Closes 8 (old knob), then 4 (new knob).
    runtime.drain(id);

    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 1u);
    EXPECT_EQ(stats.tuning.chunkInputs, 4u);

    const std::lock_guard<std::mutex> lock(results.mu);
    ASSERT_EQ(results.chunkSizes.size(), 3u);
    EXPECT_EQ(results.chunkSizes[0], 8u) << "open chunk kept old size";
    EXPECT_EQ(results.chunkSizes[1], 4u);
    EXPECT_EQ(results.chunkSizes[2], 4u);
    runtime.evict(id);
}

TEST(ServingAdapt, RetuneAtEmptyBoundaryAppliesImmediately)
{
    EmaModel::Config mc;
    mc.inputs = 32;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    const SessionId id = runtime.admit(model, cfg);

    // Nothing queued: the stream IS at a boundary, the swap lands now.
    ASSERT_TRUE(runtime.retune(id, {16, 4, 2}));
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 1u);
    EXPECT_EQ(stats.tuning.chunkInputs, 16u);
    EXPECT_EQ(stats.tuning.altWindowK, 4u);
    EXPECT_EQ(stats.tuning.numOriginalStates, 2u);
    EXPECT_FALSE(runtime.retune(9999, {8, 2, 1}));
    runtime.evict(id);
}

TEST(ServingAdapt, MidStreamKRSwapMatchesReconfiguredPipelineOracle)
{
    // A K/R change mid-stream must produce exactly what a bare
    // SessionPipeline produces when reconfigure() is called at the
    // same chunk boundary — the protocol never sees a mid-chunk swap.
    EmaModel::Config mc;
    mc.inputs = 64;
    mc.alpha = 0.05;
    mc.tolerance = 0.02; // Mix of commits and aborts.
    const EmaModel model(mc);
    const std::uint64_t seed = 33;

    // Oracle: 4 chunks of 8 at {K=2,R=1}, swap, 4 chunks at
    // {K=5,R=2}.
    SessionPipeline oracle(model, {2, 1}, seed);
    std::vector<double> expected;
    for (int c = 0; c < 8; ++c) {
        if (c == 4)
            oracle.reconfigure({5, 2});
        const auto chunk = oracle.processChunk(8);
        expected.insert(expected.end(), chunk.outputs.begin(),
                        chunk.outputs.end());
    }

    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    SizedCollector results;
    SessionConfig cfg;
    cfg.seed = seed;
    cfg.stats.altWindowK = 2;
    cfg.stats.numOriginalStates = 1;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    for (int i = 0; i < 32; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Chunks 0..3 close under {K=2,R=1}.
    ASSERT_TRUE(runtime.retune(id, {8, 5, 2}));
    for (int i = 0; i < 32; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Chunks 4..7 close under {K=5,R=2}.
    runtime.drain(id);

    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 1u);
    EXPECT_EQ(stats.aborts, oracle.aborts());

    const std::lock_guard<std::mutex> lock(results.mu);
    ASSERT_EQ(results.outputs.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(results.outputs[i], expected[i]) << "input " << i;
    runtime.evict(id);
}

TEST(ServingAdapt, PinnedAdaptorServingMatchesBatchOracle)
{
    // Full adaptive loop attached — adaptor ticking between closures,
    // controller past its warmup — but every knob pinned (min == max):
    // the controller has no candidate, so it never decides, and the
    // serving run stays bit-identical to NativeRuntime::run on the
    // batch boundary schedule.
    EmaModel::Config mc;
    mc.inputs = 120;
    mc.alpha = 0.3;
    mc.tolerance = 0.02;
    const EmaModel model(mc);
    StatsConfig config;
    config.numChunks = 5;
    config.altWindowK = 3;
    config.numOriginalStates = 2;
    const std::uint64_t seed = 77;

    const NativeRuntime native(4);
    const auto oracle = native.run(model, config, seed);

    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    SizedCollector results;
    SessionConfig sc;
    sc.seed = seed;
    sc.stats.altWindowK = config.altWindowK;
    sc.stats.numOriginalStates = config.numOriginalStates;
    sc.chunkInputs = 1000; // Closure driven manually at batch sizes.
    sc.queueCapacity = 128;
    sc.onResult = results.fn();
    const SessionId id = runtime.admit(model, sc);

    const SessionTuning pinned{sc.chunkInputs, config.altWindowK,
                               config.numOriginalStates};
    ServingAdaptor::Options ao;
    ao.controller.initial = pinned;
    ao.controller.minKnobs = pinned;
    ao.controller.maxKnobs = pinned;
    ao.controller.dwellWindows = 0;
    ao.clock = clock.fn();
    ServingAdaptor adaptor(runtime, ao);

    const std::size_t n = model.numInputs();
    for (unsigned c = 0; c < config.numChunks; ++c) {
        const std::size_t size =
            n * (c + 1) / config.numChunks - n * c / config.numChunks;
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(runtime.submit(id).status,
                      SubmitStatus::Accepted);
        ASSERT_TRUE(runtime.closeChunk(id));
        clock.advance(std::chrono::milliseconds(100));
        EXPECT_FALSE(adaptor.tick().has_value());
    }
    runtime.drain(id);

    EXPECT_TRUE(adaptor.controller().decisions().empty());
    EXPECT_EQ(adaptor.controller().windows(), config.numChunks);
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 0u);
    EXPECT_EQ(stats.tuning, pinned);
    EXPECT_EQ(stats.aborts, oracle.aborts);
    // Chunk 0 is never speculative: the runtime counts it as a commit,
    // the batch tally counts boundaries only.
    EXPECT_EQ(stats.commits, oracle.commits + 1u);

    const std::lock_guard<std::mutex> lock(results.mu);
    ASSERT_EQ(results.outputs.size(), oracle.outputs.size());
    for (std::size_t i = 0; i < results.outputs.size(); ++i)
        ASSERT_EQ(results.outputs[i], oracle.outputs[i])
            << "input " << i;
    runtime.evict(id);
}

TEST(ServingAdapt, AdaptorGrowsChunkUnderBacklog)
{
    // serve-spike's shape on a fake clock: 8-input chunks with K and R
    // pinned, a producer that fills the ring to backpressure every
    // window, and the adaptor ticking once per window.  The saturated
    // controller must double the chunk; the swap must land at the next
    // chunk boundary; and the delivered closure trace must replay bit
    // for bit through a fresh SessionPipeline (perfbench's verify()).
    EmaModel::Config mc;
    mc.inputs = 256;
    mc.alpha = 0.05;
    mc.tolerance = 0.02; // Mix of commits and aborts.
    const EmaModel model(mc);
    constexpr unsigned kK = 2;
    constexpr unsigned kR = 1;
    const std::uint64_t seed = 21;

    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    SizedCollector results;
    SessionConfig sc;
    sc.seed = seed;
    sc.stats.altWindowK = kK;
    sc.stats.numOriginalStates = kR;
    sc.chunkInputs = 8;
    // Not a multiple of 8, so a window ends mid-chunk and the decision
    // has to wait for the boundary.
    sc.queueCapacity = 62;
    sc.onResult = results.fn();
    const SessionId id = runtime.admit(model, sc);

    auto &registry = repro::metrics::MetricsRegistry::global();
    const repro::metrics::MetricsSnapshot before = registry.snapshot();

    // Only the chunk knob may move, as in serve-spike.
    ServingAdaptor::Options ao;
    ao.controller.initial = {8, kK, kR};
    ao.controller.minKnobs = {8, kK, kR};
    ao.controller.maxKnobs = {512, kK, kR};
    ao.controller.dwellWindows = 1;
    ao.clock = clock.fn();
    ServingAdaptor adaptor(runtime, ao);

    // One backlogged window: submit until the ring pushes back, close
    // what fits, and wait (10 s at most) until every closed chunk is
    // delivered and counted, so the tick sees the whole window.
    const auto fillAndClose = [&] {
        while (runtime.submit(id).status == SubmitStatus::Accepted) {
        }
        runtime.poll();
        const std::uint64_t closed = runtime.sessionStats(id).chunksClosed;
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        while (Clock::now() < deadline) {
            std::size_t chunks = 0;
            std::uint64_t inputs = 0;
            {
                const std::lock_guard<std::mutex> lock(results.mu);
                chunks = results.chunkSizes.size();
                inputs = results.outputs.size();
            }
            const std::uint64_t counted =
                registry.counter("serving.outputs_delivered").value() -
                before.counterValue("serving.outputs_delivered");
            if (chunks == closed && counted == inputs)
                return true;
            std::this_thread::yield();
        }
        return false;
    };

    std::optional<Decision> decision;
    for (int window = 0; window < 4 && !decision; ++window) {
        ASSERT_TRUE(fillAndClose()) << "window " << window;
        clock.advance(std::chrono::milliseconds(50));
        decision = adaptor.tick();
    }
    ASSERT_TRUE(decision.has_value());
    EXPECT_TRUE(decision->applied);
    EXPECT_EQ(decision->direction, 1);
    EXPECT_EQ(decision->from, (SessionTuning{8, kK, kR}));
    EXPECT_EQ(decision->to, (SessionTuning{16, kK, kR}));

    // The window ended mid-chunk: the swap is pending, not applied.
    std::size_t boundary = 0;
    {
        const std::lock_guard<std::mutex> lock(results.mu);
        boundary = results.chunkSizes.size();
    }
    {
        const auto stats = runtime.sessionStats(id);
        EXPECT_EQ(stats.retunesApplied, 0u);
        EXPECT_EQ(stats.tuning.chunkInputs, 8u);
    }

    ASSERT_TRUE(fillAndClose());
    runtime.drain(id);

    ASSERT_EQ(adaptor.controller().decisions().size(), 1u);
    const auto stats = runtime.sessionStats(id);
    EXPECT_GE(stats.retunesApplied, 1u);
    EXPECT_EQ(stats.tuning.chunkInputs, 16u);
    EXPECT_EQ(stats.outputsDelivered, stats.submitted);
    const repro::metrics::MetricsSnapshot delta =
        repro::metrics::snapshotDiff(before, registry.snapshot());
    EXPECT_EQ(delta.counterValue("adapt.dwell_violations"), 0u);

    const std::lock_guard<std::mutex> lock(results.mu);
    // The open chunk closed at the old size; the next one at the new.
    ASSERT_GT(results.chunkSizes.size(), boundary + 1);
    for (std::size_t c = 0; c <= boundary; ++c)
        EXPECT_EQ(results.chunkSizes[c], 8u) << "chunk " << c;
    EXPECT_EQ(results.chunkSizes[boundary + 1], 16u);

    // Replay the delivered closure trace through a fresh pipeline.
    SessionPipeline replay(model, {kK, kR}, seed);
    std::vector<double> expected;
    for (const std::size_t size : results.chunkSizes) {
        const auto chunk = replay.processChunk(size);
        expected.insert(expected.end(), chunk.outputs.begin(),
                        chunk.outputs.end());
    }
    ASSERT_EQ(results.outputs.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(results.outputs[i], expected[i]) << "input " << i;
    runtime.evict(id);
}

} // namespace

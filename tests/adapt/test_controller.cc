/**
 * @file
 * FeedbackController unit tests: hysteresis (warmup, dwell, deadband),
 * bounded chunk steps with clamping, latency-budget shaping of chunk
 * growth, and the decision trace of perfbench's serve-spike controller.
 *
 * Every test drives the controller with synthetic WindowObservations,
 * so decisions depend only on the fed numbers — no timing, no metrics
 * registry state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "adapt/controller.h"

namespace {

using repro::adapt::ControllerConfig;
using repro::adapt::Decision;
using repro::adapt::FeedbackController;
using repro::adapt::WindowObservation;
using repro::serving::SessionTuning;

constexpr unsigned kWarmup = FeedbackController::kWarmupWindows;

/** A busy saturated window under @p tuning: chunks of exactly the
 *  size knob, measurable time, backpressure present. */
WindowObservation
saturatedWindow(const SessionTuning &tuning, std::uint64_t chunks = 8)
{
    WindowObservation obs;
    obs.seconds = 1.0;
    obs.chunksProcessed = chunks;
    obs.inputsProcessed = chunks * tuning.chunkInputs;
    obs.inputsSubmitted = obs.inputsProcessed + 64;
    obs.inputsRejected = 32; // Backpressure: saturated regime.
    obs.chunkSeconds = 1e-4 * static_cast<double>(obs.inputsProcessed);
    obs.queueDepthP99 = static_cast<double>(4 * tuning.chunkInputs);
    obs.sessions = 1;
    return obs;
}

ControllerConfig
eagerConfig(SessionTuning initial)
{
    ControllerConfig cc;
    cc.initial = initial;
    cc.dwellWindows = 0;
    return cc;
}

/** Feeds the windows before the first one that may decide. */
void
warmUp(FeedbackController &controller, const SessionTuning &tuning)
{
    for (unsigned w = 1; w < kWarmup; ++w)
        ASSERT_FALSE(controller.observe(saturatedWindow(tuning)));
}

TEST(FeedbackController, WarmupBlocksEarlyDecisions)
{
    FeedbackController controller(eagerConfig({8, 8, 1}));
    // Strong grow-chunk signal from the start; warmup must still gate.
    for (unsigned w = 1; w < kWarmup; ++w)
        EXPECT_FALSE(controller.observe(saturatedWindow({8, 8, 1})))
            << "warmup window " << w;
    EXPECT_TRUE(controller.observe(saturatedWindow({8, 8, 1})));
    EXPECT_EQ(controller.windows(), kWarmup);
}

TEST(FeedbackController, GrowsChunkWhenBoundaryOverheadDominates)
{
    // Chunk 8 with K=8: every boundary replays more inputs than the
    // chunk carries — the model must prescribe chunk growth, one
    // doubling at a time, with K and R riding along.
    FeedbackController controller(eagerConfig({8, 8, 1}));
    warmUp(controller, {8, 8, 1});
    const auto d = controller.observe(saturatedWindow({8, 8, 1}));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->direction, 1);
    EXPECT_EQ(d->from, (SessionTuning{8, 8, 1}));
    EXPECT_EQ(d->to, (SessionTuning{16, 8, 1}));
    EXPECT_TRUE(d->applied);
    EXPECT_GT(d->predictedGain, 0.0);
    EXPECT_EQ(controller.current().chunkInputs, 16u);
    EXPECT_EQ(controller.dwellViolations(), 0u);
}

TEST(FeedbackController, DwellSpacesDecisions)
{
    ControllerConfig cc = eagerConfig({8, 8, 1});
    cc.dwellWindows = 3;
    FeedbackController controller(cc);
    warmUp(controller, {8, 8, 1});
    ASSERT_TRUE(controller.observe(saturatedWindow({8, 8, 1})));
    // The signal stays strong, but the next three windows are dwell.
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(controller.observe(saturatedWindow({16, 8, 1})))
            << "dwell window " << i;
    EXPECT_TRUE(controller.observe(saturatedWindow({16, 8, 1})));
    EXPECT_EQ(controller.dwellViolations(), 0u);
}

TEST(FeedbackController, DeadbandBlocksMarginalMoves)
{
    // A 64-input chunk with K=2, R=1 carries 5 input-equivalents of
    // boundary work: doubling it predicts 2.5/69 = 3.6%, positive but
    // under the 5% deadband, and halving it predicts a loss.
    ASSERT_DOUBLE_EQ(FeedbackController::kDeadband, 0.05);
    FeedbackController controller(eagerConfig({64, 2, 1}));
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(controller.observe(saturatedWindow({64, 2, 1})));
    EXPECT_TRUE(controller.decisions().empty());
    EXPECT_EQ(controller.current(), (SessionTuning{64, 2, 1}));
}

TEST(FeedbackController, StepsAreSingleKnobBoundedAndClamped)
{
    ControllerConfig cc = eagerConfig({8, 8, 1});
    cc.maxKnobs.chunkInputs = 64;
    FeedbackController controller(cc);
    SessionTuning t = controller.current();
    for (int i = 0; i < 40; ++i) {
        const auto d = controller.observe(saturatedWindow(t));
        if (!d)
            continue;
        // Each decision doubles or halves the chunk, says which, and
        // carries K and R unchanged.
        EXPECT_EQ(d->from, t);
        EXPECT_EQ(d->to.chunkInputs, d->direction > 0
                                         ? d->from.chunkInputs * 2
                                         : d->from.chunkInputs / 2);
        EXPECT_EQ(d->to.altWindowK, 8u);
        EXPECT_EQ(d->to.numOriginalStates, 1u);
        // Every applied step stays inside the configured box.
        EXPECT_GE(d->to.chunkInputs, cc.minKnobs.chunkInputs);
        EXPECT_LE(d->to.chunkInputs, cc.maxKnobs.chunkInputs);
        t = d->to;
    }
    // The dominant pressure was chunk growth; it must have stopped at
    // the clamp, never beyond.
    EXPECT_EQ(controller.current().chunkInputs, 64u);
    EXPECT_EQ(controller.decisions().size(), 3u);
    EXPECT_EQ(controller.dwellViolations(), 0u);
}

TEST(FeedbackController, LatencyBudgetStopsChunkGrowthWhenUnsaturated)
{
    // Unsaturated stream arriving at 100 inputs/s with a 100 ms
    // budget: deadline closure caps realized chunks at ~10 inputs, so
    // growing the 64-input size threshold predicts no gain.  K=8 makes
    // the saturated doubling worth 7.3%, clear of the deadband.
    ControllerConfig cc = eagerConfig({64, 8, 1});
    cc.latencyBudgetSeconds = 0.1;
    FeedbackController controller(cc);
    const auto unsaturatedWindow = [] {
        WindowObservation obs;
        obs.seconds = 1.0;
        obs.chunksProcessed = 10;
        obs.inputsProcessed = 100; // Deadline-closed ~10-input chunks.
        obs.inputsSubmitted = 100;
        obs.inputsRejected = 0;
        obs.chunkSeconds = 1e-3;
        obs.queueDepthP99 = 10.0;
        obs.sessions = 1;
        return obs;
    };
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(controller.observe(unsaturatedWindow()))
            << "chunk move past the deadline cap";
    // The same stream under backpressure flips to throughput scoring
    // and chunk growth becomes the right move.
    FeedbackController saturatedController(cc);
    std::optional<Decision> d;
    for (int i = 0; i < 4 && !d; ++i)
        d = saturatedController.observe(saturatedWindow({64, 8, 1}));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->direction, 1);
    EXPECT_EQ(d->to.chunkInputs, 128u);
}

/** perfbench's serve-spike controller: 8 sessions from 8-input chunks
 *  that may grow to 512, K=2 and R=1 pinned, a 20 ms budget, dwell 1,
 *  every other field at its default. */
ControllerConfig
serveSpikeConfig()
{
    ControllerConfig cc;
    cc.initial = {8, 2, 1};
    cc.minKnobs = {8, 2, 1};
    cc.maxKnobs = {512, 2, 1};
    cc.latencyBudgetSeconds = 0.020;
    cc.dwellWindows = 1;
    return cc;
}

constexpr unsigned kSpikeSessions = 8;
constexpr double kSpikeTickSeconds = 0.05;
constexpr double kSpikeSecondsPerInput = 1e-6;
constexpr double kSpikeBoundaryInputs = 2 * 1 + 3; // K*R + 3 fixed.

/** One 50 ms serve-spike window with every ring full: 100k inputs in
 *  chunks of the size knob, and refused submits. */
WindowObservation
spikeSaturatedWindow(std::size_t chunkInputs)
{
    WindowObservation obs;
    obs.seconds = kSpikeTickSeconds;
    obs.sessions = kSpikeSessions;
    obs.inputsProcessed = 100000;
    obs.chunksProcessed = obs.inputsProcessed / chunkInputs;
    obs.inputsSubmitted = obs.inputsProcessed;
    obs.inputsRejected = 4096;
    obs.chunkSeconds = kSpikeSecondsPerInput *
                       (static_cast<double>(chunkInputs) +
                        kSpikeBoundaryInputs) *
                       static_cast<double>(obs.chunksProcessed);
    obs.queueDepthP99 = 4096.0;
    return obs;
}

/** One 50 ms window of serve-spike's 3k/s open loop: 375 inputs/s per
 *  session, so the 20 ms deadline closes 7.5-input chunks. */
WindowObservation
spikeOpenLoopWindow()
{
    WindowObservation obs;
    obs.seconds = kSpikeTickSeconds;
    obs.sessions = kSpikeSessions;
    obs.inputsSubmitted = 150; // 375/s * 8 sessions * 50 ms.
    obs.inputsProcessed = 150;
    obs.chunksProcessed = 20;
    obs.chunkSeconds = kSpikeSecondsPerInput *
                       (7.5 + kSpikeBoundaryInputs) * 20.0;
    obs.queueDepthP99 = 7.0;
    return obs;
}

TEST(FeedbackController, ServeSpikeSaturatedClimbStopsAt64)
{
    // The decisions a traced serve-spike run records
    // (adapt.decisions_applied 3, adapt.final_chunk_inputs 64).  With 5
    // input-equivalents per boundary, doubling an L-input chunk
    // predicts 2.5 / (L + 5): 19.2%, 11.9% and 6.8% for L = 8, 16 and
    // 32, then 3.6% for L = 64, under the deadband.
    FeedbackController controller(serveSpikeConfig());
    for (int w = 0; w < 6 + 12; ++w)
        (void)controller.observe(
            spikeSaturatedWindow(controller.current().chunkInputs));

    const std::vector<Decision> &d = controller.decisions();
    ASSERT_EQ(d.size(), 3u);
    const std::size_t from[] = {8, 16, 32};
    // Two warmup windows, then one decision every other window.
    const std::uint64_t window[] = {2, 4, 6};
    for (std::size_t i = 0; i < d.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(d[i].window, window[i]);
        EXPECT_EQ(d[i].direction, 1);
        EXPECT_EQ(d[i].from, (SessionTuning{from[i], 2, 1}));
        EXPECT_EQ(d[i].to, (SessionTuning{2 * from[i], 2, 1}));
        EXPECT_NEAR(d[i].predictedGain,
                    2.5 / (static_cast<double>(from[i]) + 5.0), 1e-9);
    }
    EXPECT_EQ(controller.current(), (SessionTuning{64, 2, 1}));
    EXPECT_EQ(controller.dwellViolations(), 0u);
}

TEST(FeedbackController, ServeSpikeOpenLoopHoldsChunk)
{
    // Below saturation the deadline, not the 8-input threshold, sets
    // the chunk length, so no move predicts a gain.
    FeedbackController controller(serveSpikeConfig());
    for (int w = 0; w < 40; ++w)
        EXPECT_FALSE(controller.observe(spikeOpenLoopWindow()))
            << "window " << w;
    EXPECT_EQ(controller.current(), (SessionTuning{8, 2, 1}));
}

} // namespace

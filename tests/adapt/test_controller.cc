/**
 * @file
 * FeedbackController unit tests: hysteresis (warmup, dwell, deadband),
 * bounded single-knob steps with clamping, evidence gating of K-shrink
 * and replica growth, and latency-budget shaping of chunk growth.
 *
 * Every test drives the controller with synthetic WindowObservations,
 * so decisions depend only on the fed numbers — no timing, no metrics
 * registry state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "adapt/controller.h"

namespace {

using repro::adapt::ControllerConfig;
using repro::adapt::Decision;
using repro::adapt::FeedbackController;
using repro::adapt::WindowObservation;
using repro::serving::SessionTuning;

/** A busy saturated window under @p tuning: chunks of exactly the
 *  size knob, measurable time, backpressure present. */
WindowObservation
saturatedWindow(const SessionTuning &tuning, std::uint64_t chunks = 8,
                std::uint64_t aborts = 0)
{
    WindowObservation obs;
    obs.seconds = 1.0;
    obs.chunksProcessed = chunks;
    obs.inputsProcessed = chunks * tuning.chunkInputs;
    obs.commits = chunks - aborts;
    obs.aborts = aborts;
    obs.matchFirst = chunks - aborts;
    obs.matchNone = aborts;
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
    cc.warmupWindows = 1;
    cc.dwellWindows = 0;
    cc.deadband = 0.02;
    return cc;
}

TEST(FeedbackController, WarmupBlocksEarlyDecisions)
{
    ControllerConfig cc = eagerConfig({8, 8, 1});
    cc.warmupWindows = 3;
    FeedbackController controller(cc);
    // Strong grow-chunk signal from the start; warmup must still gate.
    EXPECT_FALSE(controller.observe(saturatedWindow({8, 8, 1})));
    EXPECT_FALSE(controller.observe(saturatedWindow({8, 8, 1})));
    EXPECT_TRUE(controller.observe(saturatedWindow({8, 8, 1})));
}

TEST(FeedbackController, GrowsChunkWhenBoundaryOverheadDominates)
{
    // Chunk 8 with K=8: every boundary replays more inputs than the
    // chunk carries — the model must prescribe chunk growth, one
    // doubling at a time.
    FeedbackController controller(eagerConfig({8, 8, 1}));
    const auto d = controller.observe(saturatedWindow({8, 8, 1}));
    ASSERT_TRUE(d.has_value());
    EXPECT_STREQ(d->knob, "chunk");
    EXPECT_EQ(d->direction, 1);
    EXPECT_EQ(d->to.chunkInputs, 16u);
    EXPECT_EQ(d->to.altWindowK, 8u);
    EXPECT_EQ(d->to.numOriginalStates, 1u);
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
    ControllerConfig cc = eagerConfig({8, 8, 1});
    cc.deadband = 2.0; // No move can predict a 200% gain.
    FeedbackController controller(cc);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(controller.observe(saturatedWindow({8, 8, 1})));
    EXPECT_TRUE(controller.decisions().empty());
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
        // Exactly one knob moves per decision, by one bounded step.
        int moved = 0;
        if (d->to.chunkInputs != d->from.chunkInputs) {
            ++moved;
            EXPECT_TRUE(d->to.chunkInputs == d->from.chunkInputs * 2 ||
                        d->to.chunkInputs == d->from.chunkInputs / 2);
        }
        if (d->to.altWindowK != d->from.altWindowK) {
            ++moved;
            EXPECT_EQ(
                std::max(d->to.altWindowK, d->from.altWindowK) -
                    std::min(d->to.altWindowK, d->from.altWindowK),
                1u);
        }
        if (d->to.numOriginalStates != d->from.numOriginalStates) {
            ++moved;
            EXPECT_EQ(std::max(d->to.numOriginalStates,
                               d->from.numOriginalStates) -
                          std::min(d->to.numOriginalStates,
                                   d->from.numOriginalStates),
                      1u);
        }
        EXPECT_EQ(moved, 1) << "decision must move exactly one knob";
        // Every applied step stays inside the configured box.
        EXPECT_GE(d->to.chunkInputs, cc.minKnobs.chunkInputs);
        EXPECT_LE(d->to.chunkInputs, cc.maxKnobs.chunkInputs);
        EXPECT_GE(d->to.altWindowK, cc.minKnobs.altWindowK);
        EXPECT_LE(d->to.altWindowK, cc.maxKnobs.altWindowK);
        t = d->to;
    }
    // The dominant pressure was chunk growth; it must have stopped at
    // the clamp, never beyond.
    EXPECT_LE(controller.current().chunkInputs, 64u);
    EXPECT_EQ(controller.dwellViolations(), 0u);
}

TEST(FeedbackController, LookaheadShrinkNeedsQuietWindows)
{
    // Pin the chunk knob (min == max == initial) so the only scorable
    // move is shrinking K, and require 3 abort-free windows for it.
    ControllerConfig cc = eagerConfig({8, 4, 1});
    cc.minKnobs = {8, 1, 1};
    cc.maxKnobs = {8, 16, 4};
    cc.kShrinkQuietWindows = 3;
    FeedbackController controller(cc);
    EXPECT_FALSE(controller.observe(saturatedWindow({8, 4, 1})));
    EXPECT_FALSE(controller.observe(saturatedWindow({8, 4, 1})));
    const auto d = controller.observe(saturatedWindow({8, 4, 1}));
    ASSERT_TRUE(d.has_value());
    EXPECT_STREQ(d->knob, "lookahead");
    EXPECT_EQ(d->direction, -1);
    EXPECT_EQ(d->to.altWindowK, 3u);
}

TEST(FeedbackController, AbortStreakResetsLookaheadQuietStreak)
{
    ControllerConfig cc = eagerConfig({8, 4, 1});
    cc.minKnobs = {8, 1, 1};
    cc.maxKnobs = {8, 16, 4};
    cc.kShrinkQuietWindows = 3;
    FeedbackController controller(cc);
    (void)controller.observe(saturatedWindow({8, 4, 1}));
    (void)controller.observe(saturatedWindow({8, 4, 1}));
    // An abort in window 3 restarts the quiet streak: the shrink that
    // was one window away is off the table again.
    EXPECT_FALSE(
        controller.observe(saturatedWindow({8, 4, 1}, 8, /*aborts=*/2)));
    EXPECT_FALSE(controller.observe(saturatedWindow({8, 4, 1})));
    EXPECT_FALSE(controller.observe(saturatedWindow({8, 4, 1})));
}

TEST(FeedbackController, ReplicaGrowthNeedsAbortEvidence)
{
    // Abort-heavy stream where replicas demonstrably save boundaries:
    // growing R must beat growing the chunk (which would re-execute
    // more on each abort).
    ControllerConfig cc = eagerConfig({64, 2, 1});
    cc.kShrinkQuietWindows = 1000; // Keep K shrink out of the picture.
    cc.warmupWindows = 3; // Let the replica-share calibration settle.
    FeedbackController controller(cc);
    std::optional<Decision> decision;
    for (int i = 0; i < 6 && !decision; ++i) {
        WindowObservation obs = saturatedWindow({64, 2, 1}, 8,
                                                /*aborts=*/4);
        obs.matchFirst = 4;
        obs.matchReplica = 20; // Commit checks replicas rescued...
        obs.matchNone = 4;     // ... vs ones nothing rescued.
        decision = controller.observe(obs);
    }
    ASSERT_TRUE(decision.has_value());
    EXPECT_STREQ(decision->knob, "replicas");
    EXPECT_EQ(decision->direction, 1);
    EXPECT_EQ(decision->to.numOriginalStates, 2u);
}

TEST(FeedbackController, LatencyBudgetStopsChunkGrowthWhenUnsaturated)
{
    // Unsaturated stream arriving at 100 inputs/s with a 100 ms
    // budget: deadline closure caps realized chunks at ~10 inputs, so
    // growing the 64-input size threshold predicts no gain.
    ControllerConfig cc = eagerConfig({64, 2, 1});
    cc.latencyBudgetSeconds = 0.1;
    cc.kShrinkQuietWindows = 1000;
    FeedbackController controller(cc);
    const auto unsaturatedWindow = [] {
        WindowObservation obs;
        obs.seconds = 1.0;
        obs.chunksProcessed = 10;
        obs.inputsProcessed = 100; // Deadline-closed ~10-input chunks.
        obs.commits = 10;
        obs.matchFirst = 10;
        obs.inputsSubmitted = 100;
        obs.inputsRejected = 0;
        obs.chunkSeconds = 1e-3;
        obs.queueDepthP99 = 10.0;
        obs.sessions = 1;
        return obs;
    };
    for (int i = 0; i < 10; ++i) {
        const auto d = controller.observe(unsaturatedWindow());
        if (d) {
            EXPECT_STRNE(d->knob, "chunk")
                << "chunk growth past the deadline cap";
        }
    }
    // The same stream under backpressure flips to throughput scoring
    // and chunk growth becomes the right move.
    FeedbackController saturatedController(cc);
    std::optional<Decision> d;
    for (int i = 0; i < 4 && !d; ++i)
        d = saturatedController.observe(saturatedWindow({64, 2, 1}));
    ASSERT_TRUE(d.has_value());
    EXPECT_STREQ(d->knob, "chunk");
    EXPECT_EQ(d->direction, 1);
}

} // namespace

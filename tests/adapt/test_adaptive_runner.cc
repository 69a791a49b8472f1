/**
 * @file
 * Adaptive batch determinism tests — the acceptance gates of the
 * feedback controller:
 *
 *  - Frozen-mode adaptive runs are bit-identical to the independent
 *    oracle Engine::runStats and to NativeRuntime::run for the same
 *    (model, config, seed): adding the controller changes nothing
 *    unless it decides something.
 *  - Active-mode runs are a pure function of (model, seed, decision
 *    trace): replayAdaptiveBatch on the recorded trace reproduces the
 *    adaptive outputs, commits, aborts, and closure trace bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapt/adaptive_runner.h"
#include "core/ema_model.h"
#include "core/engine.h"
#include "core/native_runtime.h"
#include "util/thread_pool.h"

namespace {

using repro::adapt::AdaptiveBatchOptions;
using repro::adapt::AdaptiveBatchResult;
using repro::adapt::ControllerMode;
using repro::adapt::Decision;
using repro::adapt::replayAdaptiveBatch;
using repro::adapt::runAdaptiveBatch;
using repro::core::Engine;
using repro::core::NativeRuntime;
using repro::core::StatsConfig;
using repro::core::TlpModel;
using repro::testing::EmaModel;

StatsConfig
cfg(unsigned chunks, unsigned k, unsigned r)
{
    StatsConfig c;
    c.numChunks = chunks;
    c.altWindowK = k;
    c.numOriginalStates = r;
    return c;
}

/** A model whose commit checks genuinely mix commits and aborts, so
 *  the frozen comparison exercises both protocol paths. */
EmaModel
abortingModel()
{
    EmaModel::Config mc;
    mc.inputs = 192;
    mc.alpha = 0.05;
    mc.tolerance = 0.02;
    return EmaModel(mc);
}

/** Every output plus the commit/abort tallies of @p run against
 *  @p oracle, exactly. */
template <typename Oracle>
void
expectSameRun(const AdaptiveBatchResult &run, const Oracle &oracle,
              const char *what)
{
    EXPECT_EQ(run.commits, oracle.commits) << what;
    EXPECT_EQ(run.aborts, oracle.aborts) << what;
    ASSERT_EQ(run.outputs.size(), oracle.outputs.size()) << what;
    for (std::size_t i = 0; i < run.outputs.size(); ++i)
        ASSERT_EQ(run.outputs[i], oracle.outputs[i])
            << what << " input " << i;
}

void
expectFrozenMatchesBatch(const EmaModel &model, const StatsConfig &config,
                         std::uint64_t seed)
{
    AdaptiveBatchOptions opts;
    opts.controller.mode = ControllerMode::Frozen;
    // Eager settings: the controller *wants* to move — frozen mode is
    // what must keep the run on the batch schedule.
    opts.controller.warmupWindows = 1;
    opts.controller.dwellWindows = 0;
    opts.controller.deadband = 0.01;
    opts.windowChunks = 2;
    const AdaptiveBatchResult frozen = runAdaptiveBatch(
        model, config, seed, opts, &repro::util::ThreadPool::global());

    expectSameRun(frozen,
                  Engine().runStats(model, {}, TlpModel{}, config, seed),
                  "vs Engine::runStats");
    expectSameRun(frozen, NativeRuntime(4).run(model, config, seed),
                  "vs NativeRuntime::run");
    // Frozen decisions are recorded, never applied.
    for (const Decision &d : frozen.decisions)
        EXPECT_FALSE(d.applied);
}

TEST(AdaptiveRunner, FrozenMatchesEngineAndBatch)
{
    const EmaModel model = abortingModel();
    expectFrozenMatchesBatch(model, cfg(8, 2, 1), 17);
    expectFrozenMatchesBatch(model, cfg(12, 4, 3), 99);
}

TEST(AdaptiveRunner, FrozenRecordsTheDecisionsActiveWouldTake)
{
    // Boundary-heavy configuration: 24 chunks of 8 inputs with K=8
    // replay — the controller must at least want to grow chunks.
    const EmaModel model = abortingModel();
    AdaptiveBatchOptions opts;
    opts.controller.mode = ControllerMode::Frozen;
    opts.controller.warmupWindows = 1;
    opts.controller.dwellWindows = 0;
    opts.controller.deadband = 0.01;
    const auto frozen =
        runAdaptiveBatch(model, cfg(24, 8, 1), 17, opts,
                         &repro::util::ThreadPool::global());
    ASSERT_FALSE(frozen.decisions.empty());
    for (const Decision &d : frozen.decisions)
        EXPECT_FALSE(d.applied);
    // The batch schedule was never left: 24 equal chunks.
    EXPECT_EQ(frozen.chunkSizes.size(), 24u);
}

TEST(AdaptiveRunner, ActiveReplayIsBitIdentical)
{
    const EmaModel model = abortingModel();
    AdaptiveBatchOptions opts;
    opts.controller.mode = ControllerMode::Active;
    opts.controller.warmupWindows = 1;
    opts.controller.dwellWindows = 1;
    opts.controller.deadband = 0.01;
    const StatsConfig config = cfg(24, 8, 1);
    const auto live = runAdaptiveBatch(model, config, 17, opts,
                                       &repro::util::ThreadPool::global());
    // The run must actually have adapted for the replay to mean
    // anything (chunk growth away from 8-input chunks is guaranteed
    // profitable under the cost model).
    bool applied = false;
    for (const Decision &d : live.decisions)
        applied = applied || d.applied;
    ASSERT_TRUE(applied);

    const auto replay =
        replayAdaptiveBatch(model, config, 17, live.decisions,
                            &repro::util::ThreadPool::global());
    EXPECT_EQ(replay.commits, live.commits);
    EXPECT_EQ(replay.aborts, live.aborts);
    EXPECT_EQ(replay.chunkSizes, live.chunkSizes);
    ASSERT_EQ(replay.outputs.size(), live.outputs.size());
    for (std::size_t i = 0; i < replay.outputs.size(); ++i)
        ASSERT_EQ(replay.outputs[i], live.outputs[i]) << "input " << i;
}

TEST(AdaptiveRunner, ActiveDivergesOnlyAtRecordedBoundaries)
{
    // The closure trace must follow the batch formula up to the first
    // applied decision's chunk, then the size knob.
    const EmaModel model = abortingModel();
    AdaptiveBatchOptions opts;
    opts.controller.warmupWindows = 1;
    opts.controller.dwellWindows = 0;
    opts.controller.deadband = 0.01;
    const StatsConfig config = cfg(24, 8, 1);
    const auto live = runAdaptiveBatch(model, config, 17, opts,
                                       &repro::util::ThreadPool::global());
    std::size_t firstApplied = live.chunkSizes.size();
    for (const Decision &d : live.decisions)
        if (d.applied) {
            firstApplied = d.atChunk;
            break;
        }
    ASSERT_LT(firstApplied, live.chunkSizes.size());
    const std::size_t n = model.numInputs();
    for (std::size_t c = 0; c < firstApplied; ++c)
        EXPECT_EQ(live.chunkSizes[c],
                  n * (c + 1) / config.numChunks -
                      n * c / config.numChunks)
            << "pre-divergence chunk " << c;
    // Post-divergence chunks follow the knob trace (last one may be
    // the remainder).
    std::size_t delivered = 0;
    for (const std::size_t size : live.chunkSizes)
        delivered += size;
    EXPECT_EQ(delivered, n);
}

} // namespace

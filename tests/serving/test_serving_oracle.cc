/**
 * @file
 * Oracle tests: a serving session fed the batch runtime's chunk
 * boundaries produces bit-identical outputs, commit decisions, and
 * abort counts to the independent logical oracle, Engine::runStats,
 * for the same (model, config, seed).  NativeRuntime::run shares the
 * protocol core with the session but schedules it differently (eager
 * replicas from speculative snapshots instead of replicas from the
 * committed snapshot), so matching it too checks that the two
 * schedules are equivalent.
 *
 * This is the determinism contract of the serving mode: streaming,
 * deadline closure, and multiplexing change *when* work happens, never
 * what a given closure trace computes.  The batch runtime derives its
 * boundaries as begin[c] = n*c/C; driving the session with exactly
 * those chunk sizes must reproduce the batch run bit for bit.  (C = 1
 * is excluded by construction: the batch runtime treats a single-chunk
 * run as sequential, which is a different — non-STATS — program.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/ema_model.h"
#include "core/engine.h"
#include "core/native_runtime.h"
#include "metrics/metrics.h"
#include "serving/serving_runtime.h"
#include "serving/session_pipeline.h"
#include "workloads/workload.h"

namespace {

using repro::core::Engine;
using repro::core::IStateModel;
using repro::core::NativeRuntime;
using repro::core::StatsConfig;
using repro::core::TlpModel;
using repro::serving::ResultChunk;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SessionPipeline;
using repro::serving::SubmitStatus;
using repro::testing::EmaModel;

/** The batch runtime's chunk sizes for n inputs in C chunks. */
std::vector<std::size_t>
batchChunkSizes(std::size_t n, unsigned chunks)
{
    std::vector<std::size_t> sizes(chunks);
    for (unsigned c = 0; c < chunks; ++c)
        sizes[c] = n * (c + 1) / chunks - n * c / chunks;
    return sizes;
}

/** Every output plus the commit/abort tallies of @p run against
 *  @p oracle, exactly. */
template <typename Run, typename Oracle>
void
expectSameRun(const Run &run, const Oracle &oracle, const char *what)
{
    EXPECT_EQ(run.commits, oracle.commits) << what;
    EXPECT_EQ(run.aborts, oracle.aborts) << what;
    ASSERT_EQ(run.outputs.size(), oracle.outputs.size()) << what;
    for (std::size_t i = 0; i < run.outputs.size(); ++i)
        ASSERT_EQ(run.outputs[i], oracle.outputs[i])
            << what << " input " << i;
}

/** Drives a SessionPipeline with the batch boundaries and compares it
 *  against the independent oracle, Engine::runStats, and against
 *  NativeRuntime::run — the same protocol core under the batch
 *  schedule (eager replicas from speculative snapshots), so the second
 *  comparison checks that the two schedules are equivalent. */
void
expectPipelineMatchesBatch(const IStateModel &model,
                           const StatsConfig &config, std::uint64_t seed)
{
    struct Tally
    {
        unsigned commits = 0;
        unsigned aborts = 0;
        std::vector<double> outputs;
    } streamed;

    SessionPipeline::Config pc;
    pc.altWindowK = config.altWindowK;
    pc.numOriginalStates = config.numOriginalStates;
    SessionPipeline pipeline(model, pc, seed);
    for (const std::size_t size :
         batchChunkSizes(model.numInputs(), config.numChunks)) {
        const auto chunk = pipeline.processChunk(size);
        streamed.outputs.insert(streamed.outputs.end(),
                                chunk.outputs.begin(), chunk.outputs.end());
    }
    streamed.commits = pipeline.commits();
    streamed.aborts = pipeline.aborts();

    expectSameRun(streamed,
                  Engine().runStats(model, {}, TlpModel{}, config, seed),
                  "vs Engine::runStats");
    expectSameRun(streamed, NativeRuntime(4).run(model, config, seed),
                  "vs NativeRuntime::run");
}

StatsConfig
cfg(unsigned chunks, unsigned k, unsigned r)
{
    StatsConfig c;
    c.numChunks = chunks;
    c.altWindowK = k;
    c.numOriginalStates = r;
    return c;
}

TEST(ServingOracle, PipelineMatchesBatchWhenAllCommit)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    expectPipelineMatchesBatch(model, cfg(8, 8, 3), 17);
}

TEST(ServingOracle, PipelineMatchesBatchWhenAbortsOccur)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    ASSERT_GT(Engine().runStats(model, {}, TlpModel{}, cfg(4, 2, 2), 5)
                  .aborts,
              0u)
        << "config must actually exercise the abort path";
    expectPipelineMatchesBatch(model, cfg(4, 2, 2), 5);
}

TEST(ServingOracle, PipelineMatchesBatchWhenReplicasDecide)
{
    // Mixed outcomes: boundaries commit on the committed final state,
    // on a replica, or abort.
    EmaModel::Config mc;
    mc.inputs = 96;
    mc.alpha = 0.5;
    mc.tolerance = 0.05;
    const EmaModel model(mc);
    const repro::metrics::Counter &replicaMatches =
        repro::metrics::MetricsRegistry::global().counter(
            "runtime.commit_match_replica");
    const std::uint64_t before = replicaMatches.value();
    expectPipelineMatchesBatch(model, cfg(6, 4, 3), 21);
    EXPECT_GT(replicaMatches.value(), before)
        << "config must let a replica decide a boundary";
}

TEST(ServingOracle, PipelineMatchesBatchOnBlockStateWorkload)
{
    // A real tracking workload with block-backed particle state: the
    // serving pipeline must reproduce the batch run on the state layer
    // the server actually deploys with.
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.1);
    auto config = workload->tunedConfig(8);
    config.innerTlpThreads = 1;
    expectPipelineMatchesBatch(workload->model(), config, 33);
}

TEST(ServingOracle, EndToEndServingMatchesBatch)
{
    // Full runtime path: submit() through the SPSC ring, closeChunk()
    // at the batch boundaries, strand execution on the pool, callback
    // delivery — outputs still bit-identical to the batch run.
    EmaModel::Config mc;
    mc.inputs = 120;
    mc.alpha = 0.3;
    mc.tolerance = 0.02;
    const EmaModel model(mc);
    const auto config = cfg(5, 3, 2);
    const std::uint64_t seed = 77;

    const auto oracle =
        Engine().runStats(model, {}, TlpModel{}, config, seed);
    const auto batch = NativeRuntime(4).run(model, config, seed);
    expectSameRun(batch, oracle, "NativeRuntime::run vs Engine::runStats");

    ServingOptions opts;
    opts.backgroundCoordinator = false;
    ServingRuntime runtime(opts);

    std::mutex mu;
    std::vector<double> outputs;
    unsigned aborted = 0;
    SessionConfig sc;
    sc.seed = seed;
    sc.stats.altWindowK = config.altWindowK;
    sc.stats.numOriginalStates = config.numOriginalStates;
    sc.chunkInputs = 1000; // Closure is driven manually below.
    sc.queueCapacity = 128;
    sc.onResult = [&](const ResultChunk &chunk) {
        const std::lock_guard<std::mutex> lock(mu);
        if (chunk.aborted)
            ++aborted;
        outputs.insert(outputs.end(), chunk.outputs.begin(),
                       chunk.outputs.end());
    };
    const SessionId id = runtime.admit(model, sc);

    for (const std::size_t size :
         batchChunkSizes(model.numInputs(), config.numChunks)) {
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
        ASSERT_TRUE(runtime.closeChunk(id));
    }
    runtime.drain(id);

    const auto stats = runtime.sessionStats(id);
    // Chunk 0 is never speculative: the runtime counts it as a
    // processed commit, the batch tally counts boundaries only.
    EXPECT_EQ(stats.commits, oracle.commits + 1u);
    EXPECT_EQ(stats.aborts, oracle.aborts);

    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(aborted, oracle.aborts);
    ASSERT_EQ(outputs.size(), oracle.outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i)
        ASSERT_EQ(outputs[i], oracle.outputs[i]) << "input " << i;

    runtime.evict(id);
}

} // namespace

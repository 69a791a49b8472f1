#include "core/native_runtime.h"

#include <chrono>

#include "core/stats_protocol.h"
#include "metrics/metrics.h"
#include "util/log.h"
#include "util/task_graph_executor.h"
#include "util/thread_pool.h"

namespace repro::core {

namespace {

/** Per-run instruments of NativeRuntime; the protocol steps tick the
 *  rest of the runtime.* family (core/stats_protocol.h). */
struct RunMetrics
{
    metrics::Counter &statsRuns;      //!< NativeRuntime::run calls.
    metrics::Counter &sequentialRuns; //!< runSequential calls.
    metrics::LatencyHistogram &run;   //!< Wall time of each STATS run.
};

RunMetrics &
runMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static RunMetrics m{reg.counter("runtime.stats_runs"),
                        reg.counter("runtime.sequential_runs"),
                        reg.histogram("runtime.run_seconds")};
    return m;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

NativeRuntime::NativeRuntime(unsigned max_threads)
    : maxThreads(util::ThreadPool::defaultThreadCount(max_threads))
{
}

NativeRuntime::Result
NativeRuntime::runSequential(const IStateModel &model,
                             std::uint64_t seed) const
{
    runMetrics().sequentialRuns.inc();
    const auto start = std::chrono::steady_clock::now();
    Result result;
    result.outputs.resize(model.numInputs());
    StateHandle state = model.initialState();
    util::Rng rng = util::Rng(seed).split(1);
    runUpdates(model, *state, 0, model.numInputs(), rng,
               result.outputs.data(), trace::TaskKind::ChunkBody);
    result.wallSeconds = secondsSince(start);
    return result;
}

NativeRuntime::Result
NativeRuntime::run(const IStateModel &model, const StatsConfig &config,
                   std::uint64_t seed) const
{
    config.validate(model.numInputs());
    if (!config.useStatsTlp)
        util::fatal("NativeRuntime::run requires useStatsTlp");

    if (config.numChunks == 1) {
        // Degenerate single chunk: the sequential program.
        return runSequential(model, seed);
    }

    const auto start = std::chrono::steady_clock::now();
    runMetrics().statsRuns.inc();
    util::ThreadPool &pool = util::ThreadPool::global();
    const std::size_t n = model.numInputs();
    const unsigned C = config.numChunks;
    const unsigned replicas = config.numOriginalStates - 1;

    StatsProtocol protocol(model, seed);
    std::vector<ChunkRun> chunks;
    chunks.reserve(C);
    for (unsigned c = 0; c < C; ++c)
        chunks.emplace_back(c, n * c / C, n * (c + 1) / C,
                            config.altWindowK);
    std::vector<Replicas> boundaries;
    boundaries.reserve(C - 1);
    for (unsigned c = 0; c + 1 < C; ++c)
        boundaries.emplace_back(replicas);

    using NodeId = util::TaskGraphExecutor::NodeId;
    util::TaskGraphExecutor exec(pool, maxThreads);
    std::vector<NodeId> head(C), tail(C);
    for (unsigned c = 0; c < C; ++c) {
        head[c] = exec.add([&, c] { protocol.speculateHead(chunks[c]); });
        tail[c] = exec.add([&, c] { protocol.speculateTail(chunks[c]); },
                           {head[c]});
    }
    // Eager replicas: boundary c's grow from chunk c's speculative
    // snapshot while every later chunk body is still in flight.
    std::vector<std::vector<NodeId>> eager(C - 1);
    for (unsigned c = 0; c + 1 < C; ++c) {
        for (unsigned rep = 0; rep < replicas; ++rep) {
            eager[c].push_back(exec.add(
                [&, c, rep] {
                    protocol.growReplica(chunks[c], rep, boundaries[c]);
                },
                {head[c]}));
        }
    }
    // Boundary c fires once chunk c is committed (the chain keeps
    // commits in program order), chunk c+1 finished, and boundary c's
    // replicas exist — never waiting for the chunks beyond c+1.
    NodeId prev = tail[0];
    for (unsigned c = 0; c + 1 < C; ++c) {
        std::vector<NodeId> deps{prev, tail[c + 1]};
        deps.insert(deps.end(), eager[c].begin(), eager[c].end());
        prev = exec.add(
            [&, c] {
                if (c == 0)
                    protocol.commitFirst(chunks[0]);
                else if (!protocol.committedSpeculatively())
                    protocol.regrowReplicas(boundaries[c]);
                protocol.resolve(chunks[c + 1], boundaries[c]);
            },
            deps);
    }
    exec.wait();

    Result result;
    result.outputs.reserve(n);
    for (const ChunkRun &chunk : chunks)
        result.outputs.insert(result.outputs.end(), chunk.outputs.begin(),
                              chunk.outputs.end());
    result.commits = protocol.commits();
    result.aborts = protocol.aborts();
    result.wallSeconds = secondsSince(start);
    runMetrics().run.observe(result.wallSeconds);
    return result;
}

} // namespace repro::core

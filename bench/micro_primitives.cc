/**
 * @file
 * google-benchmark micro benchmarks for the substrate primitives:
 * RNG throughput, particle-cloud steps, cache-simulator and
 * branch-predictor throughput, discrete-event scheduling, the
 * state-copy cost model the paper singles out in §V-C, the
 * facedet-and-track kernel that batch-track runs, the streamclassifier
 * kernel and input generator that both serving workloads run, the
 * e2e latency histogram every serving strand writes, and the serving
 * runtime's producer path, submit().
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "perfmodel/branch.h"
#include "perfmodel/cache.h"
#include "platform/des.h"
#include "serving/serving_runtime.h"
#include "util/rng.h"
#include "workloads/facedet_track.h"
#include "workloads/particle_filter.h"
#include "workloads/streamclassifier.h"
#include "workloads/swaptions.h"

using namespace repro;

namespace {

void
BM_RngUniform(benchmark::State &state)
{
    util::Rng rng(1);
    double acc = 0.0;
    for (auto _ : state)
        acc += rng.uniform();
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void
BM_RngGaussian(benchmark::State &state)
{
    util::Rng rng(1);
    double acc = 0.0;
    for (auto _ : state)
        acc += rng.gaussian();
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngGaussian);

void
BM_RngGaussians(benchmark::State &state)
{
    // 750 draws per iteration in one bulk fill: a facedet-and-track
    // frame's reseed (250 particles x 3 dims).
    util::Rng rng(1);
    std::array<double, 750> out;
    for (auto _ : state) {
        rng.gaussians(out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 750);
}
BENCHMARK(BM_RngGaussians);

void
BM_RngUniformInt(benchmark::State &state)
{
    // n = 2: the streamclassifier generator's label draw.
    util::Rng rng(1);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc += rng.uniformInt(2);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniformInt);

void
BM_RngBernoulli(benchmark::State &state)
{
    // p = 0.7: the streamclassifier kernel's per-point include draw.
    util::Rng rng(1);
    std::uint64_t hits = 0;
    for (auto _ : state)
        hits += rng.bernoulli(0.7) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_RngBernoulli);

void
BM_CacheAccess(benchmark::State &state)
{
    perfmodel::Cache cache({32 * 1024, 8, 64});
    util::Rng rng(2);
    std::uint64_t hits = 0;
    for (auto _ : state)
        hits += cache.access(rng.uniformInt(1 << 20) * 8) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredict(benchmark::State &state)
{
    perfmodel::GsharePredictor pred(14);
    util::Rng rng(3);
    std::uint64_t correct = 0;
    std::uint64_t i = 0;
    for (auto _ : state)
        correct += pred.predictAndUpdate((i++ % 16) * 64, rng.bernoulli(0.9));
    benchmark::DoNotOptimize(correct);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredict);

void
BM_ParticleResample(benchmark::State &state)
{
    workloads::ParticleCloud cloud(
        static_cast<unsigned>(state.range(0)), 3);
    cloud.spreadUniform(0.0, 100.0);
    cloud.weigh([&](unsigned p) { return -cloud.coord(p, 0); });
    util::Rng rng(4);
    for (auto _ : state) {
        cloud.resample(rng);
        cloud.weigh([&](unsigned p) { return -cloud.coord(p, 0); });
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParticleResample)->Arg(250)->Arg(3000);

void
BM_DesSchedule(benchmark::State &state)
{
    // A STATS-shaped graph: chunk threads with alt producers and
    // boundary synchronization.
    trace::TaskGraph graph;
    const unsigned chunks = static_cast<unsigned>(state.range(0));
    for (unsigned c = 0; c < chunks; ++c) {
        graph.addTask(trace::TaskKind::AltProducer, 1 + c, 500.0, c);
        graph.addTask(trace::TaskKind::ChunkBody, 1 + c, 5000.0, c);
        graph.addTask(trace::TaskKind::Sync, 1 + c, 0.0, c);
    }
    const platform::Simulator sim(platform::MachineModel::haswell(28));
    for (auto _ : state) {
        auto sched = sim.run(graph);
        benchmark::DoNotOptimize(sched.makespan);
    }
    state.SetItemsProcessed(state.iterations() * graph.size());
}
BENCHMARK(BM_DesSchedule)->Arg(28)->Arg(280);

void
BM_StateCopyModel(benchmark::State &state)
{
    // §V-C motivates accelerating the state-copy operator: measure the
    // modeled cost of copying a bodytrack-sized state intra-socket.
    const platform::MachineModel m = platform::MachineModel::haswell(28);
    const double bytes = static_cast<double>(state.range(0));
    double acc = 0.0;
    for (auto _ : state)
        acc += bytes / m.copyBytesPerCycle;
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_StateCopyModel)->Arg(24)->Arg(8000)->Arg(500000);

// ---- State versioning primitives at the Table I payload sizes ------
// 104 B = streamcluster, 8 KB = facedet/facetrack, ~500 KB = bodytrack.

void
BM_StateClone(benchmark::State &state)
{
    const core::VersionedBuffer src(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const core::VersionedBuffer copy(src);
        benchmark::DoNotOptimize(copy.creationStats().blocksShared);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateClone)
    ->ArgName("bytes")
    ->Arg(104)
    ->Arg(8000)
    ->Arg(500000);

void
BM_StateCompare(benchmark::State &state)
{
    // The clone physically shares every block, so the comparison is
    // pure pointer equality.
    core::VersionedBuffer a(static_cast<std::size_t>(state.range(0)));
    const std::size_t doubles =
        static_cast<std::size_t>(state.range(0)) / sizeof(double);
    util::Rng rng(6);
    for (std::size_t i = 0; i < doubles; ++i)
        a.set<double>(i, rng.uniform());
    const core::VersionedBuffer b(a);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::VersionedBuffer::contentEquals(a, b));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateCompare)
    ->ArgName("bytes")
    ->Arg(104)
    ->Arg(8000)
    ->Arg(500000);

void
BM_StateContentHash(benchmark::State &state)
{
    // Arg 1 dirties one block per iteration: the incremental-validation
    // case where only the touched block re-hashes (vs the cached case,
    // which re-combines fingerprints without touching payload bytes).
    core::VersionedBuffer buf(static_cast<std::size_t>(state.range(0)));
    double v = 0.0;
    for (auto _ : state) {
        if (state.range(1))
            buf.set<double>(0, v += 1.0);
        benchmark::DoNotOptimize(buf.contentHash());
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateContentHash)
    ->ArgNames({"bytes", "dirty"})
    ->Args({104, 0})
    ->Args({104, 1})
    ->Args({8000, 0})
    ->Args({8000, 1})
    ->Args({500000, 0})
    ->Args({500000, 1});

void
BM_SwaptionsUpdate(benchmark::State &state)
{
    const workloads::SwaptionsModel model(workloads::SwaptionsParams{});
    auto s = model.initialState();
    core::ExecContext ctx(util::Rng(5), nullptr,
                          trace::TaskKind::ChunkBody);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.update(*s, i++ % model.numInputs(), ctx));
    }
}
BENCHMARK(BM_SwaptionsUpdate);

void
BM_StreamclassifierUpdate(benchmark::State &state)
{
    // One update() on a state warmed over the first 100 batches.
    const workloads::StreamclassifierWorkload w(1.0);
    const core::IStateModel &model = w.model();
    auto s = model.initialState();
    core::ExecContext ctx(util::Rng(7), nullptr,
                          trace::TaskKind::ChunkBody);
    std::size_t i = 0;
    for (; i < 100; ++i)
        model.update(*s, i, ctx);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.update(*s, i++ % model.numInputs(), ctx));
    }
}
BENCHMARK(BM_StreamclassifierUpdate);

void
BM_FacedetTrackUpdate(benchmark::State &state)
{
    // One update() on a state warmed over the first 100 frames, cycling
    // through the frames of one kind: arg 0 takes the detect frames
    // (the cloud reseeds around the detection), arg 1 the occluded
    // frames (a full propagate, weigh, mean and resample step).
    const workloads::FacedetTrackWorkload w(1.0);
    const core::IStateModel &model = w.model();
    const bool occluded = state.range(0) != 0;
    std::vector<std::size_t> frames;
    for (std::size_t f = 0; f < model.numInputs(); ++f) {
        if (w.occludedFrames()[f] == occluded)
            frames.push_back(f);
    }
    auto s = model.initialState();
    core::ExecContext ctx(util::Rng(8), nullptr,
                          trace::TaskKind::ChunkBody);
    for (std::size_t f = 0; f < 100; ++f)
        model.update(*s, f, ctx);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.update(*s, frames[i++ % frames.size()], ctx));
    }
}
BENCHMARK(BM_FacedetTrackUpdate)->ArgName("occluded")->Arg(0)->Arg(1);

void
BM_StreamclassifierStream(benchmark::State &state)
{
    // The input generator: 5,600 batches of 32 labeled points.
    for (auto _ : state) {
        const workloads::StreamclassifierWorkload w(10.0);
        benchmark::DoNotOptimize(w.model().numInputs());
    }
    state.SetItemsProcessed(state.iterations() * 5600 * 32);
}
BENCHMARK(BM_StreamclassifierStream)->Unit(benchmark::kMillisecond);

/** 64 latencies of 1-20 ms, a serve-steady chunk's e2e samples. */
std::array<double, 64>
chunkLatencies()
{
    std::array<double, 64> lat{};
    for (std::size_t i = 0; i < lat.size(); ++i)
        lat[i] = 1e-3 * static_cast<double>(1 + i % 20);
    return lat;
}

/** Shared by every benchmark thread, like serving.e2e_latency_seconds
 *  is by every pool worker. */
metrics::LatencyHistogram g_latency;

void
BM_LatencyHistogramObserve(benchmark::State &state)
{
    // One chunk's latencies, one observe() each.
    std::array<double, 64> lat = chunkLatencies();
    benchmark::DoNotOptimize(lat);
    for (auto _ : state) {
        for (const double s : lat)
            g_latency.observe(s);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LatencyHistogramObserve)->Threads(1)->Threads(4);

void
BM_LatencyHistogramObserveBatch(benchmark::State &state)
{
    // The same latencies in one batch observe().
    std::array<double, 64> lat = chunkLatencies();
    benchmark::DoNotOptimize(lat);
    for (auto _ : state)
        g_latency.observe(lat);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LatencyHistogramObserveBatch)->Threads(1)->Threads(4);

/** A one-counter state. */
struct CountState : core::TypedState<CountState>
{
    double value = 0.0;
};

/** The cheapest state dependence: its strands take little of the pool
 *  from the producer BM_ServingSubmit times, and its stream does not
 *  run out. */
class CountModel : public core::IStateModel
{
  public:
    std::string name() const override { return "count"; }
    std::size_t numInputs() const override { return std::size_t{1} << 40; }

    core::StateHandle
    initialState() const override
    {
        return std::make_unique<CountState>();
    }

    core::StateHandle
    coldState() const override
    {
        return std::make_unique<CountState>();
    }

    double
    update(core::State &state, std::size_t, core::ExecContext &) const override
    {
        return ++static_cast<CountState &>(state).value;
    }

    bool
    matches(const core::State &, const core::State &) const override
    {
        return true;
    }

    std::size_t stateSizeBytes() const override { return sizeof(double); }
};

void
BM_ServingSubmit(benchmark::State &state)
{
    // Accepted submit() calls into 16 sessions with serve-*'s ring and
    // budget, in bursts of 1024 per session (the saturation probe's
    // top-up), while the background coordinator closes chunks and the
    // pool runs them.  Timing pauses while a full ring drains.
    constexpr std::size_t kSessions = 16;
    constexpr std::size_t kBurst = 1024;
    const CountModel model;
    serving::ServingRuntime runtime;
    std::vector<serving::SessionId> ids;
    for (std::size_t i = 0; i < kSessions; ++i) {
        serving::SessionConfig cfg;
        cfg.seed = i;
        cfg.queueCapacity = 4096;
        cfg.latencyBudget = std::chrono::milliseconds(20);
        ids.push_back(runtime.admit(model, cfg));
    }
    std::size_t submitted = 0;
    for (auto _ : state) {
        const serving::SessionId id = ids[submitted++ / kBurst % kSessions];
        const serving::SubmitResult result = runtime.submit(id);
        benchmark::DoNotOptimize(result);
        if (result.status != serving::SubmitStatus::Accepted) {
            state.PauseTiming();
            while (runtime.submit(id).status !=
                   serving::SubmitStatus::Accepted)
                std::this_thread::yield();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServingSubmit);

} // namespace

BENCHMARK_MAIN();

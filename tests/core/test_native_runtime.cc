/**
 * @file
 * Cross-validation of the native (std::thread) runtime against the
 * logical engine: same RNG stream derivation, same protocol, so same
 * outputs, commit decisions, and abort counts — bit for bit.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/engine.h"
#include "core/ema_model.h"
#include "core/native_runtime.h"
#include "core/stats_protocol.h"
#include "obs/span_recorder.h"
#include "util/block_arena.h"
#include "workloads/workload.h"

namespace {

using repro::core::Engine;
using repro::core::ExecContext;
using repro::core::IStateModel;
using repro::core::NativeRuntime;
using repro::core::State;
using repro::core::StateHandle;
using repro::core::StatsConfig;
using repro::core::TlpModel;
using repro::obs::SpanRecorder;
using repro::testing::EmaModel;
using repro::trace::MeasuredTrace;
using repro::trace::TaskKind;

StatsConfig
cfg(unsigned chunks, unsigned k, unsigned r)
{
    StatsConfig c;
    c.numChunks = chunks;
    c.altWindowK = k;
    c.numOriginalStates = r;
    return c;
}

TEST(NativeRuntime, SequentialMatchesEngine)
{
    EmaModel::Config mc;
    mc.inputs = 96;
    const EmaModel model(mc);
    const Engine engine;
    const NativeRuntime native(4);

    const auto logical = engine.runSequential(model, {}, 21);
    const auto real = native.runSequential(model, 21);
    ASSERT_EQ(logical.outputs.size(), real.outputs.size());
    for (std::size_t i = 0; i < logical.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(logical.outputs[i], real.outputs[i]);
}

TEST(NativeRuntime, StatsMatchesEngineWhenAllCommit)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    const Engine engine;
    const NativeRuntime native(4);
    const auto config = cfg(8, 8, 3);

    const auto logical =
        engine.runStats(model, {}, TlpModel{}, config, 17);
    const auto real = native.run(model, config, 17);
    EXPECT_EQ(real.commits, logical.commits);
    EXPECT_EQ(real.aborts, logical.aborts);
    ASSERT_EQ(real.outputs.size(), logical.outputs.size());
    for (std::size_t i = 0; i < real.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i]);
}

TEST(NativeRuntime, StatsMatchesEngineWhenAllAbort)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    const Engine engine;
    const NativeRuntime native(3);
    const auto config = cfg(4, 2, 2);

    const auto logical =
        engine.runStats(model, {}, TlpModel{}, config, 5);
    const auto real = native.run(model, config, 5);
    EXPECT_GT(real.aborts, 0u);
    EXPECT_EQ(real.commits, logical.commits);
    EXPECT_EQ(real.aborts, logical.aborts);
    for (std::size_t i = 0; i < real.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i]);
}

TEST(NativeRuntime, MatchesEngineOnRealWorkloads)
{
    const Engine engine;
    const NativeRuntime native(4);
    for (const auto &name :
         {"swaptions", "streamclassifier", "facetrack"}) {
        const auto w = repro::workloads::makeWorkload(name, 0.25);
        auto config = w->tunedConfig(14);
        config.innerTlpThreads = 1;
        const auto logical = engine.runStats(
            w->model(), w->region(), w->tlpModel(), config, 33);
        const auto real = native.run(w->model(), config, 33);
        EXPECT_EQ(real.commits, logical.commits) << name;
        EXPECT_EQ(real.aborts, logical.aborts) << name;
        ASSERT_EQ(real.outputs.size(), logical.outputs.size());
        for (std::size_t i = 0; i < real.outputs.size(); ++i) {
            ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i])
                << name << " input " << i;
        }
    }
}

TEST(NativeRuntime, SingleChunkIsSequential)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    const NativeRuntime native(2);
    const auto seq = native.runSequential(model, 3);
    const auto one = native.run(model, cfg(1, 1, 1), 3);
    for (std::size_t i = 0; i < seq.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(seq.outputs[i], one.outputs[i]);
}

TEST(NativeRuntime, ThreadCapRespectedFunctionally)
{
    // Running with 1 worker thread must still produce the same result
    // (the cap batches the parallel phase, it must not change it).
    EmaModel::Config mc;
    mc.inputs = 96;
    const EmaModel model(mc);
    const NativeRuntime wide(8), narrow(1);
    const auto config = cfg(6, 4, 2);
    const auto a = wide.run(model, config, 9);
    const auto b = narrow.run(model, config, 9);
    EXPECT_EQ(a.commits, b.commits);
    for (std::size_t i = 0; i < a.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(a.outputs[i], b.outputs[i]);
}

TEST(NativeRuntime, AbortRewritesSpansAtCorrectGlobalIndices)
{
    // Abort path regression: with C chunks the re-execution writes two
    // spans — [begin, redo_snap) and [redo_snap, end) — directly into
    // the global output array.  An off-by-anything in the redo_snap
    // offset corrupts outputs silently while commits/aborts still
    // match, so check every element against the engine oracle for
    // several all-abort geometries (different K push redo_snap around).
    const Engine engine;
    const NativeRuntime native(4);
    EmaModel::Config mc;
    mc.inputs = 120;
    mc.alpha = 0.01;
    mc.tolerance = 1e-9; // Never matches: every boundary aborts.
    const EmaModel model(mc);
    const struct
    {
        unsigned chunks, k, r;
    } geometries[] = {{5, 2, 1}, {5, 7, 2}, {4, 24, 2}, {3, 39, 1}};
    for (const auto &g : geometries) {
        const auto config = cfg(g.chunks, g.k, g.r);
        const auto logical =
            engine.runStats(model, {}, TlpModel{}, config, 5);
        const auto real = native.run(model, config, 5);
        ASSERT_EQ(real.aborts, g.chunks - 1)
            << "geometry C=" << g.chunks << " did not force all aborts";
        EXPECT_EQ(real.commits, logical.commits);
        ASSERT_EQ(real.outputs.size(), logical.outputs.size());
        for (std::size_t i = 0; i < real.outputs.size(); ++i) {
            ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i])
                << "C=" << g.chunks << ",k=" << g.k << " input " << i;
        }
    }
}

TEST(NativeRuntime, RecordingPreservesResults)
{
    // Span recording, which also carries the measured graph, is
    // strictly observational: outputs, commits, and aborts must be
    // bit-identical with tracing on and off, on both a committing and
    // an aborting run.
    EmaModel::Config mc;
    mc.inputs = 128;
    const NativeRuntime native(4);
    for (const bool aborting : {false, true}) {
        mc.alpha = aborting ? 0.01 : 0.5;
        mc.tolerance = aborting ? 1e-7 : 0.1;
        const EmaModel model(mc);
        const auto config = aborting ? cfg(4, 2, 2) : cfg(8, 8, 3);
        const std::uint64_t seed = aborting ? 5 : 17;

        repro::obs::setEnabled(false);
        const auto plain = native.run(model, config, seed);
        repro::obs::setEnabled(true);
        const std::uint64_t mark = SpanRecorder::global().nextId();
        const auto traced = native.run(model, config, seed);
        EXPECT_EQ(traced.commits, plain.commits);
        EXPECT_EQ(traced.aborts, plain.aborts);
        EXPECT_EQ(plain.aborts, aborting ? 3u : 0u);
        ASSERT_EQ(traced.outputs.size(), plain.outputs.size());
        for (std::size_t i = 0; i < plain.outputs.size(); ++i)
            ASSERT_EQ(traced.outputs[i], plain.outputs[i]);
        EXPECT_GT(
            repro::core::measuredTrace(
                SpanRecorder::global().snapshot().spans, mark)
                .graph.size(),
            0u);
    }
}

/** The measured graph of one traced run of @p config. */
MeasuredTrace
tracedRun(const NativeRuntime &native, const EmaModel &model,
          const StatsConfig &config, std::uint64_t seed,
          NativeRuntime::Result &result)
{
    const std::uint64_t mark = SpanRecorder::global().nextId();
    result = native.run(model, config, seed);
    const MeasuredTrace mt = repro::core::measuredTrace(
        SpanRecorder::global().snapshot().spans, mark);
    EXPECT_TRUE(mt.graph.isAcyclic());
    return mt;
}

std::array<std::size_t, repro::trace::kNumTaskKinds>
kindCounts(const MeasuredTrace &mt)
{
    std::array<std::size_t, repro::trace::kNumTaskKinds> counts{};
    for (const auto &t : mt.graph.tasks())
        ++counts[static_cast<std::size_t>(t.kind)];
    return counts;
}

TEST(NativeRuntime, RecordedKindsMatchProtocolWhenAllCommit)
{
    // All-commit run, C=8, K=8, R=3: the span-derived graph must
    // contain exactly the protocol's task population, one task per
    // step, with true kinds — the runSpan mislabeling bug tagged
    // alt-producer and replica steps ChunkBody, which this
    // distribution catches.  On an all-commit run every eager replica
    // is the replica the committed snapshot would give, so none is
    // discarded.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    const unsigned C = 8, R = 3;
    const NativeRuntime native(4);
    NativeRuntime::Result result;
    const MeasuredTrace mt = tracedRun(native, model, cfg(C, 8, R), 17,
                                       result);
    ASSERT_EQ(result.aborts, 0u);
    ASSERT_EQ(result.commits, C - 1);

    const auto counts = kindCounts(mt);
    const auto count = [&](TaskKind k) {
        return counts[static_cast<std::size_t>(k)];
    };
    // Bodies: every chunk, the last included, splits around its
    // snapshot.
    EXPECT_EQ(count(TaskKind::ChunkBody), 2u * C);
    EXPECT_EQ(count(TaskKind::AltProducer), C - 1);
    // Replicas: (R-1) per boundary.
    EXPECT_EQ(count(TaskKind::OriginalStateGen), (C - 1) * (R - 1));
    // One check per boundary, however many candidates it compared.
    EXPECT_EQ(count(TaskKind::StateCompare), C - 1);
    EXPECT_EQ(count(TaskKind::MispecReExec), 0u);
    // No global join, and clones belong to the step that made them.
    EXPECT_EQ(count(TaskKind::Sync), 0u);
    EXPECT_EQ(count(TaskKind::StateCopy), 0u);
    EXPECT_EQ(count(TaskKind::Setup), 0u);
    EXPECT_EQ(mt.graph.size(), 2u * C + (C - 1) * (R + 1));
}

TEST(NativeRuntime, RecordedKindsMarkAbortsAsMispec)
{
    // All-abort run without replicas (R=1): speculative bodies of
    // aborted chunks are MispecReExec (like the engine retags them)
    // and so is each re-execution, never ChunkBody.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    const NativeRuntime native(3);
    const unsigned C = 4;
    NativeRuntime::Result result;
    const MeasuredTrace mt = tracedRun(native, model, cfg(C, 2, 1), 5,
                                       result);
    ASSERT_EQ(result.aborts, C - 1);

    const auto counts = kindCounts(mt);
    const auto count = [&](TaskKind k) {
        return counts[static_cast<std::size_t>(k)];
    };
    // Only chunk 0's body commits; every other chunk's 2 speculative
    // body steps and its one re-execution are MispecReExec.
    EXPECT_EQ(count(TaskKind::ChunkBody), 2u);
    EXPECT_EQ(count(TaskKind::MispecReExec), 3u * (C - 1));
    EXPECT_EQ(count(TaskKind::AltProducer), C - 1);
    EXPECT_EQ(count(TaskKind::OriginalStateGen), 0u);
    // One candidate per boundary: the committed final state.
    EXPECT_EQ(count(TaskKind::StateCompare), C - 1);
}

TEST(NativeRuntime, RecordedKindsPipelinedAbortRetagsEagerReplicas)
{
    // All-abort run, C=4, R=2: every boundary's replica is generated
    // eagerly from the speculative snapshot.  Chunk 0 is never
    // speculative, so boundary 0's eager replica stays valid;
    // boundaries 1..C-2 follow an abort, so their eager replicas are
    // wasted work — MispecReExec — and regenerated from the
    // re-executed snapshot.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    const NativeRuntime native(3);
    const unsigned C = 4, R = 2;
    NativeRuntime::Result result;
    const MeasuredTrace mt = tracedRun(native, model, cfg(C, 2, R), 5,
                                       result);
    ASSERT_EQ(result.aborts, C - 1);

    const auto counts = kindCounts(mt);
    const auto count = [&](TaskKind k) {
        return counts[static_cast<std::size_t>(k)];
    };
    // Valid replicas that survive with their true kind: one per
    // boundary (R-1 = 1), eager for boundary 0, regenerated for the
    // rest.
    EXPECT_EQ(count(TaskKind::OriginalStateGen), (C - 1) * (R - 1));
    // MispecReExec = speculative bodies of aborted chunks plus their
    // re-executions (3 per aborted chunk), plus the discarded eager
    // replicas of boundaries 1..C-2.
    EXPECT_EQ(count(TaskKind::MispecReExec),
              3u * (C - 1) + (C - 2) * (R - 1));
    EXPECT_EQ(count(TaskKind::ChunkBody), 2u);
    EXPECT_EQ(count(TaskKind::StateCompare), C - 1);
    EXPECT_EQ(count(TaskKind::StateCopy), 0u);
    EXPECT_EQ(count(TaskKind::Sync), 0u);
}

TEST(NativeRuntime, MatchesEngineAcrossAbortHeavySweep)
{
    // For every (K, R) point of an abort-heavy sweep, the runtime
    // produces outputs, commits, and aborts bit-identical to the
    // Engine::runStats oracle.  The EMA model's tight tolerance forces mispeculation on
    // most boundaries, so the abort path (discard eager replicas,
    // re-execute off the main thread, regenerate from the redo
    // snapshot) is exercised throughout the sweep, not just on one
    // config.
    const Engine engine;
    EmaModel::Config mc;
    mc.inputs = 160;
    mc.alpha = 0.05;
    mc.tolerance = 1e-6;
    const EmaModel model(mc);
    const NativeRuntime native(4);
    unsigned total_aborts = 0;
    for (const unsigned k : {1u, 5u, 13u}) {
        for (const unsigned r : {1u, 2u, 4u}) {
            const auto config = cfg(5, k, r);
            const auto logical =
                engine.runStats(model, {}, TlpModel{}, config, 29);
            total_aborts += logical.aborts;
            const auto run = native.run(model, config, 29);
            EXPECT_EQ(run.commits, logical.commits)
                << " K=" << k << " R=" << r;
            EXPECT_EQ(run.aborts, logical.aborts)
                << " K=" << k << " R=" << r;
            ASSERT_EQ(run.outputs.size(), logical.outputs.size());
            for (std::size_t i = 0; i < run.outputs.size(); ++i) {
                ASSERT_EQ(run.outputs[i], logical.outputs[i])
                    << " K=" << k << " R=" << r << " input " << i;
            }
        }
    }
    // The sweep must actually be abort-heavy, or it proves nothing
    // about the abort path.
    EXPECT_GT(total_aborts, 10u);
}

/** The one exception FaultyModel throws. */
struct InjectedFault : std::runtime_error
{
    InjectedFault() : std::runtime_error("injected update fault") {}
};

/**
 * Forwards every call to @p inner, but throws InjectedFault once: from
 * the first update charged to @p kind that replays an input @p kind
 * already replayed @p prior times.  prior = 0 is the first update of
 * the kind; OriginalStateGen with prior = R-1 is the first update of a
 * regrown replica, since the R-1 eager replicas of a boundary always
 * replay its inputs before the resolve node regrows them.
 */
class FaultyModel : public IStateModel
{
  public:
    FaultyModel(const IStateModel &inner, TaskKind kind, unsigned prior)
        : inner_(inner), kind_(kind), prior_(prior),
          replays_(inner.numInputs())
    {
    }

    std::string name() const override { return inner_.name(); }
    std::size_t numInputs() const override { return inner_.numInputs(); }

    StateHandle
    initialState() const override
    {
        return inner_.initialState();
    }

    StateHandle coldState() const override { return inner_.coldState(); }

    double
    update(State &state, std::size_t input, ExecContext &ctx) const override
    {
        if (ctx.kind() == kind_ && replays_[input].fetch_add(1) == prior_ &&
            !fired_.exchange(true))
            throw InjectedFault();
        return inner_.update(state, input, ctx);
    }

    bool
    matches(const State &speculative, const State &original) const override
    {
        return inner_.matches(speculative, original);
    }

    std::size_t
    stateSizeBytes() const override
    {
        return inner_.stateSizeBytes();
    }

  private:
    const IStateModel &inner_;
    const TaskKind kind_;
    const unsigned prior_;
    mutable std::vector<std::atomic<unsigned>> replays_;
    mutable std::atomic<bool> fired_{false};
};

TEST(NativeRuntime, RethrowsUpdateExceptionFromEveryStep)
{
    // An update() that throws in any protocol step — the chunk body,
    // the alternative producer, an eager replica, a re-execution, or a
    // replica the resolve node regrows after an abort — reaches the
    // caller of run(), and the run still returns every arena block.
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.25);
    const IStateModel &model = workload->model();
    ASSERT_EQ(model.numInputs(), 150u);
    const auto config = cfg(32, 2, 3);
    const NativeRuntime native(4);
    const auto reference = native.run(model, config, 5);
    ASSERT_GT(reference.aborts, 0u) << "config must exercise regrowth";

    const std::size_t liveBefore =
        repro::util::BlockArena::global().liveBlocks();
    const struct
    {
        TaskKind kind;
        unsigned prior;
    } faults[] = {{TaskKind::ChunkBody, 0},
                  {TaskKind::AltProducer, 0},
                  {TaskKind::OriginalStateGen, 0},
                  {TaskKind::MispecReExec, 0},
                  {TaskKind::OriginalStateGen, 2}}; // R-1: regrown.
    for (const auto &fault : faults) {
        const FaultyModel faulty(model, fault.kind, fault.prior);
        EXPECT_THROW(native.run(faulty, config, 5), InjectedFault)
            << repro::trace::taskKindName(fault.kind) << " prior "
            << fault.prior;
        EXPECT_EQ(repro::util::BlockArena::global().liveBlocks(),
                  liveBefore)
            << repro::trace::taskKindName(fault.kind) << " prior "
            << fault.prior;
    }

    const auto clean = native.run(model, config, 5);
    EXPECT_EQ(clean.outputs, reference.outputs);
    EXPECT_EQ(clean.commits, reference.commits);
    EXPECT_EQ(clean.aborts, reference.aborts);
}

TEST(NativeRuntimeDeathTest, RequiresStatsTlp)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    const NativeRuntime native(2);
    StatsConfig config = cfg(4, 2, 1);
    config.useStatsTlp = false;
    EXPECT_EXIT(native.run(model, config, 1),
                ::testing::ExitedWithCode(1), "useStatsTlp");
}

} // namespace

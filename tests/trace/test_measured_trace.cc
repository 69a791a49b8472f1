/**
 * @file
 * Tests for the measured trace: its derivation from a batch run's
 * spans (core::measuredTrace, core/stats_protocol.h) and its Schedule
 * adapter (platform/measured.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/ema_model.h"
#include "core/native_runtime.h"
#include "core/stats_protocol.h"
#include "obs/span_recorder.h"
#include "platform/measured.h"
#include "trace/measured_trace.h"

namespace {

using repro::core::measuredTrace;
using repro::obs::Span;
using repro::obs::SpanKind;
using repro::platform::measuredSchedule;
using repro::trace::MeasuredTrace;
using repro::trace::TaskId;
using repro::trace::TaskKind;

constexpr TaskId kMarker = static_cast<TaskId>(-1);

/** One span of the hand-built window, and the task it must become. */
struct Row
{
    SpanKind kind;
    std::int64_t chunk;
    std::int64_t detail;
    std::uint32_t thread;
    std::uint64_t startNs, endNs;
    TaskId task;               //!< kMarker: not a task.
    TaskKind taskKind;
    repro::trace::ThreadId logicalThread;
    unsigned lane;
    std::vector<TaskId> deps;  //!< Sorted.
};

/**
 * A C=3, R=2 batch run in the order NativeRuntime::run emits it:
 * chunk 1 aborts, so boundary 1's replica has an eager span and a
 * regrown one; chunks 0 and 2 commit.  Logical threads: 0 the commit
 * chain, 1+c chunk c, 4 and 5 the replica lanes of boundaries 0 and 1.
 * Span 2 starts before span 1: the origin is the earliest start.  The
 * first commit marker ran on a thread that ran no step.
 */
std::vector<Row>
runRows()
{
    using K = SpanKind;
    using T = TaskKind;
    return {
        {K::ChunkBody, 0, -1, 4, 1200, 3200, 0, T::ChunkBody, 1, 0, {}},
        {K::AltProducer, 1, 8, 7, 1000, 1500, 1, T::AltProducer, 2, 1, {}},
        {K::ChunkBody, 1, -1, 7, 1600, 4100, 2, T::MispecReExec, 2, 1, {1}},
        {K::AltProducer, 2, 8, 2, 1700, 2200, 3, T::AltProducer, 3, 2, {}},
        {K::ChunkBody, 2, -1, 2, 2300, 5300, 4, T::ChunkBody, 3, 2, {3}},
        {K::ReplicaRegen, 0, 0, 4, 3300, 3800, 5, T::OriginalStateGen, 4, 0,
         {0}},
        {K::ChunkBody, 0, -1, 4, 3900, 4900, 6, T::ChunkBody, 1, 0, {0}},
        {K::ReplicaRegen, 1, 0, 7, 4200, 4700, 7, T::MispecReExec, 5, 1,
         {2}},
        {K::ChunkBody, 1, -1, 7, 4800, 5800, 8, T::MispecReExec, 2, 1, {2}},
        {K::ChunkBody, 2, -1, 2, 5400, 6400, 9, T::ChunkBody, 3, 2, {4}},
        {K::Commit, 0, -1, 11, 6500, 6510, kMarker, T::ChunkBody, 0, 0, {}},
        {K::Validation, 1, 2, 9, 6600, 6700, 10, T::StateCompare, 0, 3,
         {1, 5, 6}},
        {K::Abort, 1, -1, 9, 6710, 9900, kMarker, T::ChunkBody, 0, 0, {}},
        {K::ReExec, 1, -1, 9, 6720, 9720, 11, T::MispecReExec, 0, 3, {10}},
        {K::Commit, 1, -2, 9, 9730, 9740, kMarker, T::ChunkBody, 0, 0, {}},
        {K::ReplicaRegen, 1, 0, 9, 9950, 10450, 12, T::OriginalStateGen, 5,
         3, {2, 7, 11}},
        {K::Validation, 2, 1, 9, 10500, 10600, 13, T::StateCompare, 0, 3,
         {3, 11, 12}},
        {K::Commit, 2, -1, 9, 10610, 10620, kMarker, T::ChunkBody, 0, 0,
         {}},
    };
}

/** The rows as batch spans (session 0) with ids first_id, first_id+1.. */
std::vector<Span>
spansOf(const std::vector<Row> &rows, std::uint64_t first_id)
{
    std::vector<Span> spans;
    for (const Row &r : rows) {
        Span s;
        s.id = first_id + spans.size();
        s.kind = r.kind;
        s.chunk = r.chunk;
        s.detail = r.detail;
        s.thread = r.thread;
        s.startNs = r.startNs;
        s.endNs = r.endNs;
        spans.push_back(s);
    }
    return spans;
}

void
expectSameGraph(const MeasuredTrace &a, const MeasuredTrace &b)
{
    ASSERT_EQ(a.graph.size(), b.graph.size());
    EXPECT_EQ(a.laneCount, b.laneCount);
    for (TaskId id = 0; id < a.graph.size(); ++id) {
        EXPECT_EQ(a.graph.task(id).kind, b.graph.task(id).kind);
        EXPECT_EQ(a.graph.task(id).thread, b.graph.task(id).thread);
        EXPECT_EQ(a.graph.task(id).deps, b.graph.task(id).deps);
        EXPECT_EQ(a.startUs[id], b.startUs[id]);
        EXPECT_EQ(a.finishUs[id], b.finishUs[id]);
        EXPECT_EQ(a.lane[id], b.lane[id]);
    }
}

TEST(MeasuredTrace, RecordsKindsDurationsAndDeps)
{
    const std::vector<Row> rows = runRows();
    const MeasuredTrace mt = measuredTrace(spansOf(rows, 1), 0);
    ASSERT_EQ(mt.graph.size(), 14u);
    ASSERT_TRUE(mt.graph.isAcyclic());
    // Four executors ran the steps; markers open no lane.
    EXPECT_EQ(mt.laneCount, 4u);
    constexpr double kOriginNs = 1000.0;
    for (const Row &r : rows) {
        if (r.task == kMarker)
            continue;
        SCOPED_TRACE(testing::Message() << "task " << r.task);
        const auto &t = mt.graph.task(r.task);
        EXPECT_EQ(t.kind, r.taskKind);
        EXPECT_EQ(t.thread, r.logicalThread);
        EXPECT_EQ(t.chunk, r.chunk);
        EXPECT_EQ(mt.lane[r.task], r.lane);
        EXPECT_DOUBLE_EQ(mt.startUs[r.task], (r.startNs - kOriginNs) / 1e3);
        EXPECT_DOUBLE_EQ(mt.finishUs[r.task], (r.endNs - kOriginNs) / 1e3);
        EXPECT_NEAR(t.work, (r.endNs - r.startNs) / 1e3, 1e-9);
        std::vector<TaskId> deps = t.deps;
        std::sort(deps.begin(), deps.end());
        EXPECT_EQ(deps, r.deps);
    }
    EXPECT_DOUBLE_EQ(mt.makespanUs(), 9.6);
}

TEST(MeasuredTrace, IgnoresOtherSessionsAndSpansBeforeTheMark)
{
    const std::vector<Row> rows = runRows();
    const MeasuredTrace clean = measuredTrace(spansOf(rows, 1), 0);

    // The same run after mark 100, mixed with an earlier run's spans
    // (ids up to the mark) and a serving session's, out of id order as
    // a snapshot concatenates rings.
    std::vector<Span> spans = spansOf(rows, 101);
    for (Span s : spansOf(rows, 90)) {
        if (s.id <= 100)
            spans.push_back(s);
    }
    for (Span s : spansOf(rows, 500)) {
        s.session = 3;
        spans.push_back(s);
    }
    std::reverse(spans.begin(), spans.end());
    expectSameGraph(measuredTrace(spans, 100), clean);
}

TEST(MeasuredTrace, IdsAreMonotonicUnderConcurrentBegins)
{
    // A real run on four pool executors, aborting with replicas so
    // every edge rule fires: span ids are handed out as steps start on
    // concurrent threads, and every derived dependency must still point
    // from a lower to a higher task id, so the graph is acyclic by
    // construction.  Run under TSan in CI.
    repro::testing::EmaModel::Config mc;
    mc.inputs = 160;
    mc.alpha = 0.05;
    mc.tolerance = 1e-6;
    const repro::testing::EmaModel model(mc);
    repro::core::StatsConfig config;
    config.numChunks = 6;
    config.altWindowK = 5;
    config.numOriginalStates = 3;
    const repro::core::NativeRuntime native(4);
    auto &recorder = repro::obs::SpanRecorder::global();
    const std::uint64_t mark = recorder.nextId();
    const auto result = native.run(model, config, 29);
    EXPECT_GT(result.aborts, 0u);

    const MeasuredTrace mt = measuredTrace(recorder.snapshot().spans, mark);
    EXPECT_TRUE(mt.graph.isAcyclic());
    for (const auto &t : mt.graph.tasks()) {
        for (TaskId d : t.deps)
            EXPECT_LT(d, t.id) << "dependency points forward";
        EXPECT_GE(mt.finishUs[t.id], mt.startUs[t.id]);
    }
    EXPECT_GE(mt.laneCount, 1u);
    EXPECT_LE(mt.laneCount, 5u); // 4 workers + the caller.
}

TEST(MeasuredTraceDeathTest, IncompleteWindowDies)
{
    std::vector<Span> spans = spansOf(runRows(), 1);
    spans.erase(spans.begin() + 6); // Chunk 0's tail body.
    EXPECT_EXIT(measuredTrace(spans, 0), ::testing::ExitedWithCode(1),
                "not one complete batch run");
    // Tracing off, or a single-chunk run: nothing in the window.
    EXPECT_EXIT(measuredTrace(spans, 1000), ::testing::ExitedWithCode(1),
                "not one complete batch run");
}

TEST(MeasuredSchedule, MapsTimestampsLanesAndWaits)
{
    // Three tasks on one lane: a then b on logical thread 1 (program
    // order), c on the commit chain after b.
    MeasuredTrace mt;
    const TaskId a = mt.graph.addTask(TaskKind::AltProducer, 1, 100.0, 0);
    const TaskId b = mt.graph.addTask(TaskKind::ChunkBody, 1, 150.0, 0);
    const TaskId c = mt.graph.addTask(TaskKind::StateCompare, 0, 10.0, 0);
    mt.graph.addDep(b, c);
    mt.startUs = {0.0, 100.0, 260.0};
    mt.finishUs = {100.0, 250.0, 270.0};
    mt.lane = {0, 0, 0};
    mt.laneCount = 1;

    const auto sched = measuredSchedule(mt);
    ASSERT_EQ(sched.tasks.size(), 3u);
    EXPECT_EQ(sched.cores, mt.laneCount);
    EXPECT_DOUBLE_EQ(sched.makespan, mt.makespanUs());
    EXPECT_DOUBLE_EQ(sched.makespan, 270.0);
    for (TaskId id = 0; id < 3; ++id) {
        EXPECT_DOUBLE_EQ(sched.tasks[id].start, mt.startUs[id]);
        EXPECT_DOUBLE_EQ(sched.tasks[id].finish, mt.finishUs[id]);
        EXPECT_EQ(sched.tasks[id].core, mt.lane[id]);
        EXPECT_LE(sched.tasks[id].ready, sched.tasks[id].start);
    }
    // b's latest-finishing dependency is a (program order on logical
    // thread 1); c's is b.
    EXPECT_EQ(sched.tasks[b].criticalDep, a);
    EXPECT_EQ(sched.tasks[c].criticalDep, b);
    // One lane: predecessors chain in start order.
    EXPECT_EQ(sched.corePredecessor[a], a);
    EXPECT_EQ(sched.corePredecessor[b], a);
    EXPECT_EQ(sched.corePredecessor[c], b);
    // Busy time lands in the right kind bucket.
    EXPECT_DOUBLE_EQ(
        sched.busyByKind[static_cast<std::size_t>(TaskKind::AltProducer)],
        100.0);
    EXPECT_DOUBLE_EQ(
        sched.busyByKind[static_cast<std::size_t>(TaskKind::ChunkBody)],
        150.0);
}

TEST(MeasuredSchedule, EmptyTraceYieldsEmptySchedule)
{
    const MeasuredTrace mt;
    const auto sched = measuredSchedule(mt);
    EXPECT_EQ(sched.tasks.size(), 0u);
    EXPECT_DOUBLE_EQ(sched.makespan, 0.0);
}

} // namespace

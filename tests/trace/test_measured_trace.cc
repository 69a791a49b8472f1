/**
 * @file
 * Tests for the measured-trace recorder (trace/measured_trace.h) and
 * its Schedule adapter (platform/measured.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "platform/measured.h"
#include "trace/measured_trace.h"
#include "util/thread_pool.h"

namespace {

using repro::platform::measuredSchedule;
using repro::trace::MeasuredTrace;
using repro::trace::MeasuredTraceRecorder;
using repro::trace::TaskId;
using repro::trace::TaskKind;

void
spin(std::chrono::microseconds d)
{
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST(MeasuredTrace, RecordsKindsDurationsAndDeps)
{
    MeasuredTraceRecorder rec;
    const TaskId setup = rec.begin(TaskKind::Setup, 0);
    spin(std::chrono::microseconds(200));
    rec.end(setup);
    const TaskId body = rec.begin(TaskKind::ChunkBody, 1, /*chunk=*/0);
    spin(std::chrono::microseconds(200));
    rec.end(body);
    rec.addDep(setup, body);
    EXPECT_EQ(rec.size(), 2u);

    const MeasuredTrace mt = rec.finish();
    ASSERT_EQ(mt.graph.size(), 2u);
    EXPECT_EQ(mt.graph.task(setup).kind, TaskKind::Setup);
    EXPECT_EQ(mt.graph.task(body).kind, TaskKind::ChunkBody);
    EXPECT_EQ(mt.graph.task(body).chunk, 0);
    EXPECT_EQ(mt.graph.task(body).thread, 1u);

    // Durations are measured, in microseconds: the 200us spins must
    // register as at least (say) 100us of work each.
    EXPECT_GE(mt.graph.task(setup).work, 100.0);
    EXPECT_GE(mt.graph.task(body).work, 100.0);
    EXPECT_EQ(mt.graph.task(setup).work,
              mt.finishUs[setup] - mt.startUs[setup]);

    // The explicit edge survives, and timestamps respect it.
    const auto &deps = mt.graph.task(body).deps;
    EXPECT_NE(std::find(deps.begin(), deps.end(), setup), deps.end());
    EXPECT_LE(mt.finishUs[setup], mt.startUs[body]);
    EXPECT_GE(mt.makespanUs(), mt.finishUs[body]);

    // Single recording thread: one lane.
    EXPECT_EQ(mt.laneCount, 1u);
    EXPECT_GT(mt.wallSeconds, 0.0);
}

TEST(MeasuredTrace, RetagChangesKind)
{
    MeasuredTraceRecorder rec;
    const TaskId t = rec.begin(TaskKind::ChunkBody, 1, 2);
    rec.end(t);
    rec.retag(t, TaskKind::MispecReExec);
    const MeasuredTrace mt = rec.finish();
    EXPECT_EQ(mt.graph.task(t).kind, TaskKind::MispecReExec);
    EXPECT_EQ(mt.graph.task(t).chunk, 2);
}

TEST(MeasuredTrace, IdsAreMonotonicUnderConcurrentBegins)
{
    // Concurrent begin/end from pool executors: ids must stay dense,
    // every dependency must point backwards, and the graph must stay
    // acyclic (guaranteed by begin-order id hand-out).  Run under
    // TSan in CI.
    repro::util::ThreadPool pool(4);
    MeasuredTraceRecorder rec;
    constexpr std::size_t n = 64;
    std::vector<TaskId> ids(n);
    pool.parallelFor(n, [&](std::size_t i) {
        const TaskId id = rec.begin(
            TaskKind::ChunkBody,
            static_cast<repro::trace::ThreadId>(1 + i),
            static_cast<std::int32_t>(i));
        spin(std::chrono::microseconds(5));
        rec.end(id);
        ids[i] = id;
    });
    EXPECT_EQ(rec.size(), n);

    const MeasuredTrace mt = rec.finish();
    ASSERT_EQ(mt.graph.size(), n);
    std::vector<bool> seen(n, false);
    for (TaskId id : ids) {
        ASSERT_LT(id, n);
        EXPECT_FALSE(seen[id]) << "duplicate task id";
        seen[id] = true;
    }
    for (const auto &t : mt.graph.tasks()) {
        for (TaskId d : t.deps)
            EXPECT_LT(d, t.id) << "dependency points forward";
        EXPECT_GE(mt.finishUs[t.id], mt.startUs[t.id]);
    }
    EXPECT_GE(mt.laneCount, 1u);
    EXPECT_LE(mt.laneCount, 5u); // 4 workers + the caller.
}

TEST(MeasuredTrace, PoolProfilerAccountsWorkerTasks)
{
    repro::util::ThreadPool pool(2);
    MeasuredTraceRecorder rec;
    const auto prev = pool.setProfiler(rec.poolProfiler());
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(
            pool.submit([] { spin(std::chrono::microseconds(50)); }));
    }
    for (auto &f : futures)
        f.get();
    // A future is ready before its worker reports the task's end;
    // joining the workers makes every report land first.
    pool.stop();
    pool.setProfiler(prev);

    const MeasuredTrace mt = rec.finish();
    EXPECT_EQ(mt.poolTasks, 8u);
    EXPECT_GT(mt.poolBusySeconds, 0.0);
}

TEST(MeasuredSchedule, MapsTimestampsLanesAndWaits)
{
    MeasuredTraceRecorder rec;
    const TaskId a = rec.begin(TaskKind::Setup, 0);
    spin(std::chrono::microseconds(100));
    rec.end(a);
    const TaskId b = rec.begin(TaskKind::ChunkBody, 1, 0);
    spin(std::chrono::microseconds(100));
    rec.end(b);
    rec.addDep(a, b);
    const TaskId c = rec.begin(TaskKind::StateCompare, 0, 0);
    rec.end(c);
    rec.addDep(b, c);
    const MeasuredTrace mt = rec.finish();

    const auto sched = measuredSchedule(mt);
    ASSERT_EQ(sched.tasks.size(), 3u);
    EXPECT_EQ(sched.cores, mt.laneCount);
    EXPECT_DOUBLE_EQ(sched.makespan, mt.makespanUs());
    for (TaskId id = 0; id < 3; ++id) {
        EXPECT_DOUBLE_EQ(sched.tasks[id].start, mt.startUs[id]);
        EXPECT_DOUBLE_EQ(sched.tasks[id].finish, mt.finishUs[id]);
        EXPECT_EQ(sched.tasks[id].core, mt.lane[id]);
        EXPECT_LE(sched.tasks[id].ready, sched.tasks[id].start);
    }
    // b's latest-finishing dependency is a; c's is b.
    EXPECT_EQ(sched.tasks[b].criticalDep, a);
    EXPECT_EQ(sched.tasks[c].criticalDep, b);
    // Same recording thread => same lane; predecessors chain in start
    // order on that lane.
    EXPECT_EQ(sched.corePredecessor[a], a);
    EXPECT_EQ(sched.corePredecessor[b], a);
    EXPECT_EQ(sched.corePredecessor[c], b);
    // Busy time lands in the right kind bucket.
    EXPECT_GE(sched.busyByKind[static_cast<std::size_t>(TaskKind::Setup)],
              100.0);
    EXPECT_GE(
        sched.busyByKind[static_cast<std::size_t>(TaskKind::ChunkBody)],
        100.0);
}

TEST(MeasuredSchedule, EmptyTraceYieldsEmptySchedule)
{
    MeasuredTraceRecorder rec;
    const MeasuredTrace mt = rec.finish();
    const auto sched = measuredSchedule(mt);
    EXPECT_EQ(sched.tasks.size(), 0u);
    EXPECT_DOUBLE_EQ(sched.makespan, 0.0);
}

} // namespace

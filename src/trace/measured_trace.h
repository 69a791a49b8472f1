/**
 * @file
 * Measured (wall-clock) task traces of real executions.
 *
 * The engine emits a *logical* task graph that the platform simulator
 * times; the native runtime (core/native_runtime.h) executes the same
 * protocol with real threads.  This module makes that real execution
 * observable the way the paper instruments STATS binaries (§V-B):
 * the runtime brackets every unit of scheduled work with
 * MeasuredTraceRecorder::begin/end, and the recorder emits a regular
 * trace::TaskGraph whose task costs are measured steady-clock
 * durations (in microseconds) and whose dependency edges mirror the
 * commit protocol.  The existing analysis stack — critical-path
 * extraction, the overhead ladder, Chrome-trace export — then applies
 * unchanged to the measured run (see platform/measured.h).
 *
 * Edge convention: the recorded graph mirrors the *schedule actually
 * executed*, not just the data flow, so the what-if replay reproduces
 * the runtime's constraints.  There is no global join: commit checks
 * depend only on the two adjacent chunks and the boundary's replicas,
 * and eager replicas hang off the owning chunk's speculative
 * snapshot.
 *
 * Recording is strictly observational: the recorder never touches RNG
 * streams or program state, so a recorded run stays bit-identical to
 * an unrecorded one (enforced by tests/core/test_native_runtime.cc).
 */

#ifndef REPRO_TRACE_MEASURED_TRACE_H
#define REPRO_TRACE_MEASURED_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "trace/task_graph.h"
#include "util/thread_pool.h"

namespace repro::trace {

/**
 * One measured execution: a typed task graph plus the wall-clock
 * placement of every task.
 *
 * Units: task work and the timestamp arrays are in microseconds since
 * the start of recording, so a MachineModel with cyclesPerWork = 1
 * treats 1 cycle = 1 us (platform::MachineModel::measured).
 */
struct MeasuredTrace
{
    TaskGraph graph; //!< work = measured duration in microseconds.

    std::vector<double> startUs;  //!< Begin timestamp per TaskId.
    std::vector<double> finishUs; //!< End timestamp per TaskId.

    /** Executor lane per task: dense index of the OS thread that ran
     *  it (pool workers and participating callers alike). */
    std::vector<unsigned> lane;
    unsigned laneCount = 0; //!< Number of distinct executor lanes.

    double wallSeconds = 0.0; //!< Recording span (start to finish()).

    /** Pool-level occupancy observed through the ThreadPool profiler
     *  hooks while this trace recorded (worker-dequeued tasks only). */
    std::uint64_t poolTasks = 0;
    double poolBusySeconds = 0.0;

    /** Latest task end timestamp (the measured makespan), in us. */
    double makespanUs() const;
};

/**
 * Thread-safe recorder of measured tasks.
 *
 * Producers bracket each unit of work with begin()/end() from the
 * thread that executes it; the recorder captures steady-clock
 * timestamps and the executing OS thread.  Task ids are handed out in
 * real-time begin order, so every dependency — implicit program order
 * within a logical thread, or explicit addDep — points from a lower
 * to a higher id.  finish() freezes the recording into a
 * MeasuredTrace.
 */
class MeasuredTraceRecorder
{
  public:
    MeasuredTraceRecorder();
    ~MeasuredTraceRecorder();

    MeasuredTraceRecorder(const MeasuredTraceRecorder &) = delete;
    MeasuredTraceRecorder &operator=(const MeasuredTraceRecorder &) = delete;

    /**
     * Starts a measured task on the calling thread and returns its id.
     * @param thread Logical software thread (same meaning as
     *        Task::thread); consecutive begins on one logical thread
     *        get implicit program-order edges in the final graph.
     */
    TaskId begin(TaskKind kind, ThreadId thread,
                 std::int32_t chunk = kNoChunk);

    /** Ends task @p id, timestamping now.  Must be called once per
     *  begin, from any thread, before finish(). */
    void end(TaskId id);

    /** Explicit dependency: @p after only ran once @p before had
     *  finished.  @p before must have begun before @p after. */
    void addDep(TaskId before, TaskId after);

    /** Re-types a recorded task (e.g. the speculative body of an
     *  aborted chunk becomes MispecReExec, as in the engine). */
    void retag(TaskId id, TaskKind kind);

    /** Tasks recorded so far. */
    std::size_t size() const;

    /**
     * Freezes the recording and builds the measured trace.  Panics if
     * a begun task was never ended (a runtime bug).  The recorder is
     * spent afterwards.
     */
    MeasuredTrace finish();

    /**
     * Profiler to install on a util::ThreadPool while this recording
     * runs; it accumulates worker-side task count and busy time into
     * the trace (MeasuredTrace::poolTasks/poolBusySeconds).  The
     * returned object is owned jointly with the pool, so callbacks
     * that race an uninstall stay safe.
     */
    std::shared_ptr<util::ThreadPool::Profiler> poolProfiler();

  private:
    struct Record
    {
        TaskKind kind = TaskKind::ChunkBody;
        ThreadId thread = 0;
        std::int32_t chunk = kNoChunk;
        unsigned lane = 0;
        double startUs = 0.0;
        double finishUs = 0.0;
        bool ended = false;
    };

    class PoolProbe;

    double nowUs() const;
    unsigned laneOfCallingThread(); //!< Requires mutex_ held.

    mutable std::mutex mutex_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<std::pair<TaskId, TaskId>> deps_;
    std::map<std::thread::id, unsigned> lanes_;
    std::shared_ptr<PoolProbe> probe_;
};

} // namespace repro::trace

#endif // REPRO_TRACE_MEASURED_TRACE_H

/**
 * @file
 * Measured (wall-clock) task traces of real executions.
 *
 * The engine emits a *logical* task graph that the platform simulator
 * times; the native runtime (core/native_runtime.h) executes the same
 * protocol with real threads.  A MeasuredTrace makes that real
 * execution analyzable the way the paper instruments STATS binaries
 * (§V-B): a regular trace::TaskGraph whose task costs are measured
 * steady-clock durations (in microseconds) and whose dependency edges
 * mirror the commit protocol, plus the wall-clock placement of every
 * task.  The existing analysis stack — critical-path extraction, the
 * overhead ladder, Chrome-trace export — then applies unchanged to the
 * measured run (see platform/measured.h).
 *
 * Traces are built after the fact from the obs spans a batch run
 * already emitted (core::measuredTrace in core/stats_protocol.h, which
 * owns the protocol's edge rules); nothing extra is recorded while the
 * run executes.
 */

#ifndef REPRO_TRACE_MEASURED_TRACE_H
#define REPRO_TRACE_MEASURED_TRACE_H

#include <vector>

#include "trace/task_graph.h"

namespace repro::trace {

/**
 * One measured execution: a typed task graph plus the wall-clock
 * placement of every task.
 *
 * Units: task work and the timestamp arrays are in microseconds since
 * the trace's origin, so a MachineModel with cyclesPerWork = 1 treats
 * 1 cycle = 1 us (platform::MachineModel::measured).
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

    /** Latest task end timestamp (the measured makespan), in us. */
    double makespanUs() const;
};

} // namespace repro::trace

#endif // REPRO_TRACE_MEASURED_TRACE_H

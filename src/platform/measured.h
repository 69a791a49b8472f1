/**
 * @file
 * Adapts a measured (wall-clock) trace to the platform Schedule view.
 *
 * A MeasuredTrace already *is* a schedule — every task carries its
 * real start/finish timestamps and the OS thread (lane) it ran on, as
 * the step's span recorded them (core::measuredTrace).
 * measuredSchedule() re-expresses it as a platform::Schedule so the
 * entire post-mortem stack built for simulated runs applies verbatim
 * to native executions: analysis::criticalPathReport walks the
 * measured critical path (dependency-bound steps follow the
 * latest-finishing dependency, occupancy-bound steps follow the lane
 * predecessor, exactly the §V-B semantics after [26]), and
 * platform::writeChromeTrace renders the run for chrome://tracing.
 *
 * Units: 1 schedule "cycle" = 1 microsecond, matching the measured
 * task graph's work units (see MachineModel::measured).
 */

#ifndef REPRO_PLATFORM_MEASURED_H
#define REPRO_PLATFORM_MEASURED_H

#include "platform/schedule.h"
#include "trace/measured_trace.h"

namespace repro::platform {

/**
 * Builds the Schedule of @p trace from its measured timestamps.
 *
 * Cores are executor lanes; ready times derive from dependency
 * finishes; a task whose lane was still busy past its ready time is
 * marked occupancy-bound (startedByCoreWait), with the lane's
 * previous task as its core predecessor.
 */
Schedule measuredSchedule(const trace::MeasuredTrace &trace);

} // namespace repro::platform

#endif // REPRO_PLATFORM_MEASURED_H

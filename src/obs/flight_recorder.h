/**
 * @file
 * Flight recorder: dump() snapshots the span rings, the metrics
 * registry, and the recent AbortReports into one self-contained JSON
 * document for post-mortem analysis.  native_overheads --flight-dir
 * snapshots a run with it, and the serving trace test captures an
 * induced abort storm with it.
 */

#ifndef REPRO_OBS_FLIGHT_RECORDER_H
#define REPRO_OBS_FLIGHT_RECORDER_H

#include <optional>
#include <string>

#include "metrics/metrics.h"
#include "obs/abort_report.h"
#include "obs/span_recorder.h"

namespace repro::obs {

/** One dump, described back to the caller. */
struct FlightDumpInfo
{
    std::string path;    //!< File the dump was written to.
    std::string reason;  //!< Why the caller dumped ("manual", ...).
    std::uint64_t sequence = 0; //!< 0-based dump number.
};

class FlightRecorder
{
  public:
    struct Options
    {
        /** Directory dumps are written into (flight-<seq>.json),
         *  created on the first dump; empty writes into the working
         *  directory. */
        std::string dir;

        /** Recorder whose rings the dump snapshots; null = global(). */
        SpanRecorder *recorder = nullptr;
    };

    explicit FlightRecorder(Options options);

    /** Writes dump number dumps() with @p reason.  Returns nullopt
     *  when the file cannot be written. */
    std::optional<FlightDumpInfo> dump(const std::string &reason);

    /** Dumps written so far. */
    std::uint64_t dumps() const { return dumps_; }

  private:
    const Options opts_;
    std::uint64_t dumps_ = 0;
};

/** Renders one self-contained dump document (the "repro.flight.v1"
 *  schema of DESIGN.md §17) from explicit parts — exposed so tests
 *  and benches can build dumps without a recorder instance. */
std::string flightDumpJson(const std::string &reason,
                           const SpanSnapshot &spans,
                           const metrics::MetricsSnapshot &metrics,
                           const std::vector<AbortReport> &reports,
                           std::uint64_t wallNs);

} // namespace repro::obs

#endif // REPRO_OBS_FLIGHT_RECORDER_H

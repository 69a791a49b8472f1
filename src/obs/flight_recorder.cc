#include "obs/flight_recorder.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "metrics/export.h"
#include "util/json.h"
#include "util/log.h"

namespace repro::obs {

namespace {

metrics::Counter &
flightDumpsCounter()
{
    static metrics::Counter &c =
        metrics::MetricsRegistry::global().counter("obs.flight_dumps");
    return c;
}

} // namespace

FlightRecorder::FlightRecorder(Options options)
    : opts_(std::move(options))
{
    // Register the counter eagerly so snapshots carry the name even
    // before the first dump (metrics_diff watches for removal).
    (void)flightDumpsCounter();
}

std::optional<FlightDumpInfo>
FlightRecorder::dump(const std::string &reason)
{
    SpanRecorder &recorder =
        opts_.recorder ? *opts_.recorder : SpanRecorder::global();
    Span span = recorder.start(SpanKind::FlightDump, 0, 0, -1, -1, 0,
                               static_cast<std::int64_t>(dumps_));
    const SpanSnapshot spans = recorder.snapshot();
    const metrics::MetricsSnapshot snap =
        metrics::MetricsRegistry::global().snapshot();
    const std::vector<AbortReport> reports = AbortLog::global().recent();
    const std::uint64_t wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());

    FlightDumpInfo info;
    info.reason = reason;
    info.sequence = dumps_;
    std::ostringstream name;
    name << (opts_.dir.empty() ? std::string(".") : opts_.dir)
         << "/flight-" << dumps_ << ".json";
    info.path = name.str();

    std::error_code ec;
    if (!opts_.dir.empty())
        std::filesystem::create_directories(opts_.dir, ec);
    if (ec) {
        REPRO_LOG_WARN("flight recorder cannot create " << opts_.dir
                                                        << ": "
                                                        << ec.message());
        return std::nullopt;
    }
    std::ofstream os(info.path);
    if (!os) {
        REPRO_LOG_WARN("flight recorder cannot write " << info.path);
        return std::nullopt;
    }
    os << flightDumpJson(reason, spans, snap, reports, wallNs) << "\n";
    ++dumps_;
    flightDumpsCounter().inc();
    recorder.finish(span);
    return info;
}

std::string
flightDumpJson(const std::string &reason, const SpanSnapshot &spans,
               const metrics::MetricsSnapshot &metrics,
               const std::vector<AbortReport> &reports,
               std::uint64_t wallNs)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"repro.flight.v1\",\n"
       << "  \"reason\": \"" << util::jsonEscape(reason) << "\",\n"
       << "  \"wall_ns\": " << wallNs << ",\n"
       << "  \"spans_recorded\": " << spans.recorded << ",\n"
       << "  \"spans_dropped\": " << spans.dropped << ",\n"
       << "  \"spans\": [";
    for (std::size_t i = 0; i < spans.spans.size(); ++i) {
        const Span &s = spans.spans[i];
        os << (i ? "," : "") << "\n    {\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"kind\": \""
           << spanKindName(s.kind) << "\", \"session\": " << s.session
           << ", \"chunk\": " << s.chunk
           << ", \"first_input\": " << s.firstInput
           << ", \"input_count\": " << s.inputCount
           << ", \"thread\": " << s.thread
           << ", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs
           << ", \"detail\": " << s.detail << "}";
    }
    os << (spans.spans.empty() ? "" : "\n  ") << "],\n"
       << "  \"abort_reports\": [";
    for (std::size_t i = 0; i < reports.size(); ++i)
        os << (i ? "," : "") << "\n    "
           << abortReportJson(reports[i], "    ");
    os << (reports.empty() ? "" : "\n  ") << "],\n"
       << "  \"metrics\": " << metrics::toJson(metrics, "  ") << "\n"
       << "}";
    return os.str();
}

} // namespace repro::obs

/**
 * @file
 * The serving path's tracing, end to end: an abort storm served by the
 * ServingRuntime must leave a self-contained flight dump (schema, abort
 * root-cause reports, the spans that close each report's causal chain,
 * the metrics snapshot) and a well-formed Chrome trace, without the
 * span rings dropping anything.
 *
 * The runtime runs against a fake clock that never moves, with the
 * coordinator pumped manually, so every chunk closes on size and the
 * closure trace — and with it every abort — is deterministic.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "obs/abort_report.h"
#include "obs/flight_recorder.h"
#include "obs/span_recorder.h"
#include "platform/trace_export.h"
#include "serving/serving_runtime.h"
#include "util/json.h"
#include "workloads/workload.h"

namespace {

using repro::metrics::MetricsRegistry;
using repro::metrics::MetricsSnapshot;
using repro::obs::AbortLog;
using repro::obs::FlightRecorder;
using repro::obs::SpanRecorder;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SubmitStatus;
using repro::util::JsonValue;

using Clock = std::chrono::steady_clock;

TEST(ServingTrace, AbortStormFlightDumpIsSelfContained)
{
    // A mispeculation-prone workload served in short chunks: facetrack
    // at scale 0.25 (150 inputs), 4-input chunks, K=2, R=2.
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.25);
    const auto &model = workload->model();
    ASSERT_EQ(model.numInputs(), 150u);

    ServingOptions opts;
    opts.backgroundCoordinator = false;
    opts.clock = [] { return Clock::time_point{}; };

    SpanRecorder::global().clear();
    AbortLog::global().clear();
    auto &registry = MetricsRegistry::global();
    const MetricsSnapshot before = registry.snapshot();

    {
        ServingRuntime runtime(opts);
        std::vector<SessionId> ids;
        for (std::uint64_t i = 0; i < 2; ++i) {
            SessionConfig cfg;
            cfg.seed = 42 + i;
            cfg.chunkInputs = 4;
            cfg.queueCapacity = model.numInputs();
            cfg.stats.altWindowK = 2;
            cfg.stats.numOriginalStates = 2;
            ids.push_back(runtime.admit(model, cfg));
        }
        for (const SessionId id : ids)
            while (runtime.submit(id).status == SubmitStatus::Accepted) {
            }
        runtime.poll();
        for (const SessionId id : ids) {
            runtime.drain(id);
            runtime.evict(id);
        }
    }

    const std::string dir =
        ::testing::TempDir() + "serving_abort_storm_flight";
    std::filesystem::remove_all(dir);
    FlightRecorder::Options fo;
    fo.dir = dir;
    fo.clock = opts.clock;
    FlightRecorder flight(fo);
    const auto dump = flight.dump("manual");
    ASSERT_TRUE(dump.has_value());

    const MetricsSnapshot delta =
        repro::metrics::snapshotDiff(before, registry.snapshot());
    EXPECT_GT(delta.counterValue("serving.chunks_aborted"), 0u);
    // Serving runs the one protocol core, so it ticks runtime.*.
    EXPECT_GT(delta.counterValue("runtime.replica_validations"), 0u);
    EXPECT_EQ(delta.counterValue("obs.dropped_spans"), 0u);
    EXPECT_EQ(delta.counterValue("obs.flight_dumps"), 1u);

    const JsonValue doc = JsonValue::parseFile(dump->path);
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(), "repro.flight.v1");
    EXPECT_EQ(doc.find("spans_dropped")->asNumber(), 0.0);

    // Every report names the mismatching candidate and the first
    // differing state block, and its abort span is in the bundle.
    const JsonValue *spans = doc.find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->isArray());
    std::set<double> spanIds;
    for (const JsonValue &span : spans->array())
        spanIds.insert(span.find("id")->asNumber());
    const JsonValue *reports = doc.find("abort_reports");
    ASSERT_NE(reports, nullptr);
    ASSERT_TRUE(reports->isArray());
    ASSERT_FALSE(reports->array().empty());
    std::set<double> abortSpans;
    for (const JsonValue &report : reports->array()) {
        EXPECT_GE(report.find("mismatch_candidate")->asNumber(), 0.0);
        EXPECT_GE(report.find("first_diff_block")->asNumber(), 0.0);
        const double spanId = report.find("span_id")->asNumber();
        EXPECT_EQ(spanIds.count(spanId), 1u) << "abort span " << spanId;
        abortSpans.insert(spanId);
    }
    // Each re-execution hangs off a reported abort: the chain is closed.
    std::size_t reexecs = 0;
    for (const JsonValue &span : spans->array()) {
        if (span.find("kind")->asString() != "reexec")
            continue;
        ++reexecs;
        EXPECT_EQ(abortSpans.count(span.find("parent")->asNumber()), 1u)
            << "reexec span " << span.find("id")->asNumber();
    }
    EXPECT_GT(reexecs, 0u);

    // The dump's metrics snapshot names every protocol and tracing
    // counter, so a removed instrument cannot go unnoticed.
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue *counters = metrics->find("counters");
    ASSERT_NE(counters, nullptr);
    for (const char *name :
         {"runtime.chunks_committed", "runtime.chunks_aborted",
          "runtime.replica_validations", "runtime.compare_matches",
          "runtime.compare_mismatches", "runtime.commit_match_first",
          "runtime.commit_match_replica", "runtime.commit_match_none",
          "runtime.replica_regens", "runtime.state_copies",
          "runtime.state_copy_bytes", "obs.spans_recorded",
          "obs.dropped_spans", "obs.flight_dumps", "obs.abort.reports"})
        EXPECT_NE(counters->find(name), nullptr) << name;

    // The same spans render as a Chrome trace of complete events.
    std::ostringstream chrome;
    repro::platform::writeSpansChromeTrace(SpanRecorder::global().snapshot(),
                                           chrome);
    const JsonValue trace = JsonValue::parse(chrome.str());
    ASSERT_TRUE(trace.isArray());
    ASSERT_FALSE(trace.array().empty());
    for (const JsonValue &event : trace.array()) {
        ASSERT_TRUE(event.isObject());
        EXPECT_NE(event.find("name"), nullptr);
        EXPECT_NE(event.find("ts"), nullptr);
        EXPECT_NE(event.find("dur"), nullptr);
    }

    std::filesystem::remove_all(dir);
}

} // namespace

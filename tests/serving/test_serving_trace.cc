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
 *
 * The serving path records spans per chunk, never per input: a
 * chunk's chain starts at its chunk_close span, which runs from the
 * oldest input's submit to the closure, so span counts follow the
 * closure trace and not the number of inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/ema_model.h"
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
using repro::obs::Span;
using repro::obs::SpanKind;
using repro::obs::SpanRecorder;
using repro::serving::ResultChunk;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SubmitStatus;
using repro::testing::EmaModel;
using repro::util::JsonValue;

using Clock = std::chrono::steady_clock;

/** One ResultChunk as delivered, without its outputs. */
struct Delivery
{
    unsigned chunkIndex = 0;
    std::size_t firstInput = 0;
    std::size_t inputCount = 0;
};

/** What one session on the steady clock leaves behind after serving
 *  four chunks closed by hand. */
struct ChunkedRun
{
    std::uint64_t spansRecorded = 0; //!< obs.spans_recorded delta.
    std::uint64_t aborts = 0;
    std::vector<Delivery> deliveries;
    std::vector<Span> spans; //!< Every span the run recorded.
    std::uint64_t beforeFirstSubmitNs = 0;
};

/** Serves 4 chunks of @p chunkInputs inputs: each is submitted, pulled
 *  into the open chunk by poll() and closed by closeChunk(). */
ChunkedRun
serveFourChunks(const EmaModel &model, std::size_t chunkInputs)
{
    ChunkedRun run;
    std::mutex mu; // The callback runs on a pool worker.
    ServingOptions opts;
    opts.backgroundCoordinator = false; // No opts.clock: steady clock.
    ServingRuntime runtime(opts);
    SessionConfig cfg;
    cfg.chunkInputs = 4096; // Never closes on size.
    // The ring holds inputs until delivery: up to all four chunks.
    cfg.queueCapacity = 4 * chunkInputs;
    cfg.onResult = [&](const ResultChunk &r) {
        const std::lock_guard<std::mutex> lock(mu);
        run.deliveries.push_back(
            {r.chunkIndex, r.firstInput, r.outputs.size()});
    };
    const SessionId id = runtime.admit(model, cfg);

    SpanRecorder::global().clear();
    auto &registry = MetricsRegistry::global();
    const MetricsSnapshot before = registry.snapshot();
    run.beforeFirstSubmitNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    for (int chunk = 0; chunk < 4; ++chunk) {
        for (std::size_t i = 0; i < chunkInputs; ++i)
            EXPECT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
        runtime.poll();
        EXPECT_TRUE(runtime.closeChunk(id));
    }
    runtime.drain(id);
    run.spansRecorded =
        repro::metrics::snapshotDiff(before, registry.snapshot())
            .counterValue("obs.spans_recorded");
    run.spans = SpanRecorder::global().snapshot().spans;
    run.aborts = runtime.sessionStats(id).aborts;
    runtime.evict(id);
    return run;
}

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

TEST(ServingTrace, SpansArePerChunkNotPerInput)
{
    // A fast-forgetting EMA with a loose tolerance: every speculation
    // commits, so each chunk runs the same protocol steps whatever
    // its size.
    EmaModel::Config mc;
    mc.inputs = 4 * 64;
    mc.alpha = 0.9;
    mc.tolerance = 1.0;
    const EmaModel model(mc);

    const ChunkedRun wide = serveFourChunks(model, 64);
    ASSERT_EQ(wide.aborts, 0u);
    ASSERT_EQ(wide.deliveries.size(), 4u);

    std::vector<Span> closes;
    std::size_t perInputSpans = 0;
    for (const Span &span : wide.spans) {
        const std::string kind = repro::obs::spanKindName(span.kind);
        if (kind == "submit" || kind == "queue_wait")
            ++perInputSpans;
        if (span.kind == SpanKind::ChunkClose)
            closes.push_back(span);
    }
    EXPECT_EQ(perInputSpans, 0u);
    // One chunk_close per delivered chunk, covering its inputs and
    // timed from the oldest input's submit to the closure.
    ASSERT_EQ(closes.size(), wide.deliveries.size());
    std::sort(closes.begin(), closes.end(),
              [](const Span &a, const Span &b) { return a.chunk < b.chunk; });
    for (std::size_t c = 0; c < closes.size(); ++c) {
        const Delivery &d = wide.deliveries[c];
        EXPECT_EQ(closes[c].chunk, static_cast<std::int64_t>(d.chunkIndex));
        EXPECT_EQ(closes[c].firstInput,
                  static_cast<std::int64_t>(d.firstInput));
        EXPECT_EQ(closes[c].inputCount, d.inputCount);
        EXPECT_GE(closes[c].startNs, wide.beforeFirstSubmitNs);
        EXPECT_LE(closes[c].startNs, closes[c].endNs);
    }

    // Eight times the inputs per chunk, the same spans.
    const ChunkedRun narrow = serveFourChunks(model, 8);
    ASSERT_EQ(narrow.aborts, 0u);
    EXPECT_GT(narrow.spansRecorded, 0u);
    EXPECT_EQ(wide.spansRecorded, narrow.spansRecorded);
}

} // namespace

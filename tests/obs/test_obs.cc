/**
 * @file
 * Tests of the tracing subsystem (src/obs/): span ring wraparound and
 * drop accounting, cross-thread parent links, the abort causal chain
 * plus its root-cause report, and the flight recorder's dumps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/ema_model.h"
#include "obs/abort_report.h"
#include "obs/flight_recorder.h"
#include "obs/span_recorder.h"
#include "serving/session_pipeline.h"
#include "util/json.h"

namespace {

using repro::obs::AbortLog;
using repro::obs::AbortReport;
using repro::obs::FlightRecorder;
using repro::obs::Span;
using repro::obs::SpanKind;
using repro::obs::SpanRecorder;
using repro::obs::SpanSnapshot;
using repro::serving::SessionPipeline;
using repro::testing::EmaModel;
using repro::util::JsonValue;

TEST(SpanRing, WrapAroundDropsOldest)
{
    SpanRecorder rec(4);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
        Span s = rec.start(SpanKind::ChunkClose, 0, 7, i);
        ids.push_back(s.id);
        rec.finish(s);
    }
    const SpanSnapshot snap = rec.snapshot();
    EXPECT_EQ(snap.recorded, 6u);
    EXPECT_EQ(snap.dropped, 2u);
    ASSERT_EQ(snap.spans.size(), 4u);
    // Oldest-first: the two earliest spans were overwritten.
    for (std::size_t i = 0; i < snap.spans.size(); ++i) {
        EXPECT_EQ(snap.spans[i].id, ids[i + 2]);
        EXPECT_EQ(snap.spans[i].session, 7u);
    }
}

TEST(SpanRing, ClearResetsRingsButNotIds)
{
    SpanRecorder rec(4);
    Span a = rec.start(SpanKind::ChunkClose);
    rec.finish(a);
    rec.clear();
    EXPECT_TRUE(rec.snapshot().spans.empty());
    EXPECT_EQ(rec.snapshot().recorded, 0u);
    Span b = rec.start(SpanKind::ChunkClose);
    rec.finish(b);
    EXPECT_GT(b.id, a.id); // Ids keep growing across clear().
}

TEST(SpanRing, DisabledRecordingIsInert)
{
    SpanRecorder rec(4);
    repro::obs::setEnabled(false);
    Span s = rec.start(SpanKind::ChunkClose, 0, 1);
    EXPECT_EQ(s.id, 0u);
    rec.finish(s);
    EXPECT_EQ(rec.nextId(), 0u);
    repro::obs::setEnabled(true);
    EXPECT_TRUE(rec.snapshot().spans.empty());
}

TEST(SpanRing, CrossThreadParentLinksResolve)
{
    SpanRecorder rec(64);
    Span parent = rec.start(SpanKind::ChunkClose, 0, 3, 0);
    std::uint64_t childId = 0;
    std::thread worker([&] {
        Span child =
            rec.start(SpanKind::ChunkProcess, parent.id, 3, 0);
        childId = child.id;
        rec.finish(child);
    });
    worker.join();
    rec.finish(parent);

    const SpanSnapshot snap = rec.snapshot();
    ASSERT_EQ(snap.spans.size(), 2u);
    const Span *par = nullptr;
    const Span *child = nullptr;
    for (const Span &s : snap.spans) {
        if (s.id == parent.id)
            par = &s;
        if (s.id == childId)
            child = &s;
    }
    ASSERT_NE(par, nullptr);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->parent, par->id);
    EXPECT_NE(child->thread, par->thread); // Distinct rings.
    EXPECT_EQ(child->session, par->session);
}

/** Finds the first span of @p kind for @p chunk, or null. */
const Span *
findSpan(const SpanSnapshot &snap, SpanKind kind, std::int64_t chunk)
{
    for (const Span &s : snap.spans)
        if (s.kind == kind && s.chunk == chunk)
            return &s;
    return nullptr;
}

TEST(SpanTrace, AbortPathEmitsCausalChainAndReport)
{
    // Abort-heavy config pinned by the serving oracle tests: tiny
    // alpha + tight tolerance forces the commit check to reject.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);

    SpanRecorder::global().clear();
    AbortLog::global().clear();

    SessionPipeline::Config pc;
    pc.altWindowK = 2;
    pc.numOriginalStates = 2;
    SessionPipeline pipeline(model, pc, 5);
    pipeline.setTraceContext(/*session=*/11, /*parentSpan=*/0);
    unsigned aborts = 0;
    std::int64_t abortedChunk = -1;
    for (unsigned c = 0; c < 4; ++c) {
        const auto r = pipeline.processChunk(32);
        if (r.aborted && abortedChunk < 0)
            abortedChunk = static_cast<std::int64_t>(r.chunkIndex);
        aborts += r.aborted ? 1 : 0;
    }
    ASSERT_GT(aborts, 0u) << "config must exercise the abort path";

    const SpanSnapshot snap = SpanRecorder::global().snapshot();
    EXPECT_EQ(snap.dropped, 0u);
    const Span *abortSpan =
        findSpan(snap, SpanKind::Abort, abortedChunk);
    ASSERT_NE(abortSpan, nullptr);
    EXPECT_EQ(abortSpan->session, 11u);

    // The re-execution and the post-re-exec commit hang off the abort.
    const Span *reexec = findSpan(snap, SpanKind::ReExec, abortedChunk);
    ASSERT_NE(reexec, nullptr);
    EXPECT_EQ(reexec->parent, abortSpan->id);
    bool sawReexecCommit = false;
    for (const Span &s : snap.spans)
        if (s.kind == SpanKind::Commit && s.chunk == abortedChunk &&
            s.detail == -2 && s.parent == abortSpan->id)
            sawReexecCommit = true;
    EXPECT_TRUE(sawReexecCommit);

    // The validation that rejected the speculation is in the chain
    // too, and compared every candidate (committed final + replica).
    const Span *validation =
        findSpan(snap, SpanKind::Validation, abortedChunk);
    ASSERT_NE(validation, nullptr);
    EXPECT_EQ(validation->detail, 2);

    // The structured report names the boundary and ties back to the
    // Abort span.
    const std::vector<AbortReport> reports = AbortLog::global().recent();
    ASSERT_FALSE(reports.empty());
    const AbortReport &rep = reports.front();
    EXPECT_EQ(rep.session, 11u);
    EXPECT_EQ(rep.chunk, abortedChunk);
    EXPECT_EQ(rep.inputCount, 32u);
    ASSERT_EQ(rep.comparisons.size(), 2u); // Final + one replica.
    EXPECT_EQ(rep.comparisons[0].candidate, -1);
    EXPECT_FALSE(rep.comparisons[0].matched);
    EXPECT_EQ(rep.comparisons[1].candidate, 0);
    EXPECT_GE(rep.wastedBodySeconds, 0.0);
    EXPECT_GE(rep.wastedAltSeconds, 0.0);
    EXPECT_GE(rep.validateSeconds, 0.0);
    bool found = false;
    for (const Span &s : snap.spans)
        found = found || s.id == rep.spanId;
    EXPECT_TRUE(found) << "report's Abort span must be in the trace";
}

TEST(FlightRecorderTest, DumpCreatesItsDirectory)
{
    const std::string root =
        ::testing::TempDir() + "obs_flight_mkdir_test";
    std::filesystem::remove_all(root);

    SpanRecorder rec(16);
    FlightRecorder::Options opts;
    opts.dir = root + "/nested/flight";
    opts.recorder = &rec;
    FlightRecorder recorder(opts);
    const auto dump = recorder.dump("manual");
    ASSERT_TRUE(dump.has_value());
    EXPECT_EQ(dump->path, opts.dir + "/flight-0.json");
    EXPECT_EQ(JsonValue::parseFile(dump->path).find("reason")->asString(),
              "manual");

    // The next dump takes the next sequence number and file.
    const auto second = recorder.dump("manual");
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->sequence, 1u);
    EXPECT_EQ(second->path, opts.dir + "/flight-1.json");
    EXPECT_EQ(recorder.dumps(), 2u);

    // A directory that cannot be made (its parent is a file) still
    // warns and yields no dump.
    FlightRecorder::Options blocked = opts;
    blocked.dir = dump->path + "/flight";
    EXPECT_FALSE(FlightRecorder(blocked).dump("manual").has_value());

    std::filesystem::remove_all(root);
}

} // namespace

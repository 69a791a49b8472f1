#include "core/stats_protocol.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "obs/abort_report.h"
#include "obs/span_recorder.h"
#include "trace/measured_trace.h"
#include "util/thread_pool.h"

namespace repro::core {

namespace {

using trace::TaskId;
using trace::TaskKind;

/** Logical recorder thread of the in-order commit chain. */
constexpr trace::ThreadId kCommitThread = 0;

/**
 * The runtime.* metric family, ticked here for batch and serving alike
 * (NativeRuntime adds its per-run instruments).  Resolved once:
 * registry lookups lock.
 */
struct ProtocolMetrics
{
    metrics::Counter &commits;        //!< Boundaries committed.
    metrics::Counter &aborts;         //!< Boundaries re-executed.
    metrics::Counter &compares;       //!< Candidates compared.
    metrics::Counter &matches;        //!< ... that accepted the chunk.
    metrics::Counter &mismatches;     //!< ... that rejected it.
    metrics::Counter &matchFirst;     //!< Committed final state matched.
    metrics::Counter &matchReplica;   //!< Only a replica matched.
    metrics::Counter &matchNone;      //!< Nothing matched (abort).
    metrics::Counter &replicaRegens;  //!< Replicas grown.
    metrics::Counter &stateCopies;    //!< State clones.
    metrics::Counter &stateCopyBytes; //!< Bytes those clones moved.
    metrics::LatencyHistogram &altProducer;
    metrics::LatencyHistogram &chunkBody;
    metrics::LatencyHistogram &replicaGen;
    metrics::LatencyHistogram &validation;
    metrics::LatencyHistogram &reexec;
};

ProtocolMetrics &
protocolMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static ProtocolMetrics m{
        reg.counter("runtime.chunks_committed"),
        reg.counter("runtime.chunks_aborted"),
        reg.counter("runtime.replica_validations"),
        reg.counter("runtime.compare_matches"),
        reg.counter("runtime.compare_mismatches"),
        reg.counter("runtime.commit_match_first"),
        reg.counter("runtime.commit_match_replica"),
        reg.counter("runtime.commit_match_none"),
        reg.counter("runtime.replica_regens"),
        reg.counter("runtime.state_copies"),
        reg.counter("runtime.state_copy_bytes"),
        reg.histogram("runtime.alt_producer_seconds"),
        reg.histogram("runtime.chunk_body_seconds"),
        reg.histogram("runtime.replica_gen_seconds"),
        reg.histogram("runtime.validation_seconds"),
        reg.histogram("runtime.reexec_seconds"),
    };
    return m;
}

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * One protocol step, timed once: its span and, when metrics are on,
 * its histogram sample come from the same two timestamps (the span
 * recorder's when tracing is on, our own otherwise).
 */
class Step
{
  public:
    Step(metrics::LatencyHistogram *hist, obs::SpanKind kind,
         std::uint64_t parent, std::uint64_t session, unsigned chunk,
         std::size_t first, std::size_t count, std::int64_t detail = -1)
        : span(obs::SpanRecorder::global().start(
              kind, parent, session, static_cast<std::int64_t>(chunk),
              static_cast<std::int64_t>(first),
              static_cast<std::uint32_t>(count), detail)),
          hist_(hist && metrics::enabled() ? hist : nullptr)
    {
        if (span.id == 0 && hist_)
            span.startNs = steadyNs();
    }

    /** Closes the step; its seconds (0 when nothing timed it). */
    double
    finish()
    {
        if (span.id != 0)
            obs::SpanRecorder::global().finish(span);
        else if (hist_)
            span.endNs = steadyNs();
        const double seconds =
            span.endNs > span.startNs
                ? static_cast<double>(span.endNs - span.startNs) * 1e-9
                : 0.0;
        if (hist_)
            hist_->observe(seconds);
        return seconds;
    }

    obs::Span span;

  private:
    metrics::LatencyHistogram *hist_;
};

/** Fills the block-level divergence fields of @p cmp when both states
 *  are block-backed (other states keep the -1 "unknown" defaults). */
void
fillPayloadDiff(const State &spec, const State &candidate,
                obs::AbortComparison &cmp)
{
    const VersionedBuffer *a = spec.payload();
    const VersionedBuffer *b = candidate.payload();
    if (!a || !b)
        return;
    const VersionedBuffer::DiffReport d =
        VersionedBuffer::diffReport(*a, *b);
    if (!d.comparable)
        return;
    cmp.firstDiffBlock = d.firstDiffBlock;
    cmp.bytesCompared = d.bytesCompared;
}

} // namespace

void
runUpdates(const IStateModel &model, State &state, std::size_t from,
           std::size_t to, util::Rng &rng, double *outs, TaskKind kind)
{
    ExecContext ctx(rng, nullptr, kind);
    for (std::size_t i = from; i < to; ++i) {
        const double out = model.update(state, i, ctx);
        if (outs)
            outs[i - from] = out;
    }
    rng = ctx.rng();
}

ChunkRun::ChunkRun(unsigned chunk_index, std::size_t first,
                   std::size_t last, unsigned alt_window_k)
    : index(chunk_index), begin(first),
      snap(last - first > alt_window_k ? last - alt_window_k : first),
      end(last), altWindowK(alt_window_k), outputs(last - first)
{
}

StatsProtocol::StatsProtocol(const IStateModel &model, std::uint64_t seed,
                             util::ThreadPool *pool,
                             unsigned max_concurrency)
    : model_(model), base_(seed), pool_(pool),
      maxConcurrency_(max_concurrency),
      stateBytes_(model.stateSizeBytes())
{
}

void
StatsProtocol::record(trace::MeasuredTraceRecorder *recorder,
                      unsigned chunks, unsigned replicas)
{
    rec_ = recorder;
    chunks_ = chunks;
    replicaLanes_ = replicas;
    setupTask_ = begin(TaskKind::Setup, kCommitThread, trace::kNoChunk);
    end(setupTask_);
}

void
StatsProtocol::speculateHead(ChunkRun &ch) const
{
    const trace::ThreadId th = chunkThread(ch.index);
    if (ch.index == 0) {
        ch.working = model_.initialState();
    } else {
        Step alt(&protocolMetrics().altProducer,
                 obs::SpanKind::AltProducer, parent_, session_, ch.index,
                 ch.begin, ch.end - ch.begin, ch.altWindowK);
        const TaskId altTask = begin(TaskKind::AltProducer, th, ch.index);
        dep(setupTask_, altTask);
        ch.working = model_.coldState();
        util::Rng rng = base_.split(2000 + ch.index);
        const std::size_t from =
            ch.begin >= ch.altWindowK ? ch.begin - ch.altWindowK : 0;
        runUpdates(model_, *ch.working, from, ch.begin, rng, nullptr,
                   TaskKind::AltProducer);
        end(altTask);
        ch.specCopyTask = begin(TaskKind::StateCopy, th, ch.index);
        ch.specEntry = clone(*ch.working);
        end(ch.specCopyTask);
        ch.altSeconds = alt.finish();
    }

    Step body(&protocolMetrics().chunkBody, obs::SpanKind::ChunkBody,
              parent_, session_, ch.index, ch.begin, ch.snap - ch.begin);
    ch.bodyRng = base_.split(1000 + ch.index);
    ch.headTask = begin(TaskKind::ChunkBody, th, ch.index);
    if (ch.index == 0)
        dep(setupTask_, ch.headTask);
    runUpdates(model_, *ch.working, ch.begin, ch.snap, ch.bodyRng,
               ch.outputs.data(), TaskKind::ChunkBody);
    end(ch.headTask);
    ch.snapshotTask = begin(TaskKind::StateCopy, th, ch.index);
    ch.snapshot = clone(*ch.working);
    end(ch.snapshotTask);
    ch.bodySeconds = body.finish();
}

void
StatsProtocol::speculateTail(ChunkRun &ch) const
{
    Step body(&protocolMetrics().chunkBody, obs::SpanKind::ChunkBody,
              parent_, session_, ch.index, ch.snap, ch.end - ch.snap);
    ch.tailTask = begin(TaskKind::ChunkBody, chunkThread(ch.index),
                        ch.index);
    runUpdates(model_, *ch.working, ch.snap, ch.end, ch.bodyRng,
               ch.outputs.data() + (ch.snap - ch.begin),
               TaskKind::ChunkBody);
    end(ch.tailTask);
    ch.finalState = std::move(ch.working);
    ch.bodySeconds += body.finish();
}

void
StatsProtocol::grow(unsigned boundary, unsigned rep, const State &source,
                    TaskId source_task, std::size_t from, std::size_t to,
                    Replicas &out) const
{
    Step step(&protocolMetrics().replicaGen, obs::SpanKind::ReplicaRegen,
              parent_, session_, boundary, from, to - from, rep);
    const trace::ThreadId th = replicaThread(boundary, rep);
    const TaskId copyTask = begin(TaskKind::StateCopy, th, boundary);
    dep(source_task, copyTask);
    StateHandle replica = clone(source);
    end(copyTask);
    const TaskId task = begin(TaskKind::OriginalStateGen, th, boundary);
    util::Rng rng = base_.split(3000 + boundary * 128 + rep);
    runUpdates(model_, *replica, from, to, rng, nullptr,
               TaskKind::OriginalStateGen);
    end(task);
    protocolMetrics().replicaRegens.inc();
    out.states[rep] = std::move(replica);
    out.tasks[rep] = task;
    out.seconds[rep] = step.finish();
}

void
StatsProtocol::growReplica(const ChunkRun &ch, unsigned rep,
                           Replicas &out) const
{
    grow(ch.index, rep, *ch.snapshot, ch.snapshotTask, ch.snap, ch.end,
         out);
}

void
StatsProtocol::regrowReplicas(Replicas &out) const
{
    // Replicas already present grew from a snapshot that never became
    // committed state: wasted speculation, like an aborted body.
    for (const TaskId stale : out.tasks)
        retag(stale, TaskKind::MispecReExec);
    const Committed &from = committed_;
    const auto one = [&](std::size_t rep) {
        grow(from.chunk, static_cast<unsigned>(rep), *from.snapshot,
             from.snapshotTask, from.snap, from.end, out);
    };
    if (pool_ && out.states.size() > 1) {
        pool_->parallelFor(out.states.size(), one, maxConcurrency_);
    } else {
        for (std::size_t rep = 0; rep < out.states.size(); ++rep)
            one(rep);
    }
}

void
StatsProtocol::adopt(ChunkRun &ch)
{
    committed_.finalState = std::move(ch.finalState);
    committed_.snapshot = ch.snapshot;
    committed_.chunk = ch.index;
    committed_.snap = ch.snap;
    committed_.end = ch.end;
    committed_.speculative = true;
    committed_.finalTask = ch.tailTask;
    committed_.snapshotTask = ch.snapshotTask;
}

void
StatsProtocol::commitFirst(ChunkRun &ch)
{
    Step commit(nullptr, obs::SpanKind::Commit, parent_, session_,
                ch.index, ch.begin, ch.end - ch.begin, /*detail=*/-1);
    adopt(ch);
    commit.finish();
}

bool
StatsProtocol::resolve(ChunkRun &next, Replicas &replicas)
{
    ProtocolMetrics &m = protocolMetrics();
    const unsigned boundary = next.index - 1;
    const std::size_t count = next.end - next.begin;

    Step val(&m.validation, obs::SpanKind::Validation, parent_, session_,
             next.index, next.begin, count);
    const auto compare = [&](const State &original, bool first) {
        const TaskId cmp =
            begin(TaskKind::StateCompare, kCommitThread, boundary);
        if (first) {
            dep(committed_.finalTask, cmp);
            dep(next.specCopyTask, cmp);
            for (const TaskId rt : replicas.tasks)
                dep(rt, cmp);
        }
        const bool ok = model_.matches(*next.specEntry, original);
        end(cmp);
        m.compares.inc();
        (ok ? m.matches : m.mismatches).inc();
        return ok;
    };
    const bool matchedFirst = compare(*committed_.finalState, true);
    bool matched = matchedFirst;
    std::int64_t candidate = matched ? -1 : -2;
    std::int64_t compared = 1;
    for (std::size_t rep = 0; !matched && rep < replicas.states.size();
         ++rep) {
        matched = compare(*replicas.states[rep], false);
        ++compared;
        if (matched)
            candidate = static_cast<std::int64_t>(rep);
    }
    val.span.detail = compared;
    const double validateSeconds = val.finish();
    (matchedFirst ? m.matchFirst : matched ? m.matchReplica : m.matchNone)
        .inc();

    if (matched) {
        ++commits_;
        m.commits.inc();
        Step commit(nullptr, obs::SpanKind::Commit, parent_, session_,
                    next.index, next.begin, count, candidate);
        adopt(next);
        commit.finish();
    } else {
        ++aborts_;
        m.aborts.inc();
        Step abort(nullptr, obs::SpanKind::Abort, parent_, session_,
                   next.index, next.begin, count);
        if (obs::enabled())
            reportAbort(next, replicas, matchedFirst, abort.span.id,
                        validateSeconds);
        // The re-execution and its commit are caused by the abort.
        const std::uint64_t cause = abort.span.id ? abort.span.id : parent_;
        Step redo(&m.reexec, obs::SpanKind::ReExec, cause, session_,
                  next.index, next.begin, count);
        reexecute(next);
        redo.finish();
        Step commit(nullptr, obs::SpanKind::Commit, cause, session_,
                    next.index, next.begin, count, /*detail=*/-2);
        commit.finish();
        abort.finish();
    }
    replicas = Replicas();
    return matched;
}

void
StatsProtocol::reexecute(ChunkRun &ch)
{
    // The speculative body was wasted work, as the engine retags it.
    retag(ch.headTask, TaskKind::MispecReExec);
    retag(ch.tailTask, TaskKind::MispecReExec);
    const TaskId copyTask =
        begin(TaskKind::StateCopy, kCommitThread, ch.index);
    dep(committed_.finalTask, copyTask);
    StateHandle redo = clone(*committed_.finalState);
    end(copyTask);
    util::Rng rng = base_.split(5000 + ch.index);
    const TaskId head =
        begin(TaskKind::MispecReExec, kCommitThread, ch.index);
    runUpdates(model_, *redo, ch.begin, ch.snap, rng, ch.outputs.data(),
               TaskKind::MispecReExec);
    end(head);
    const TaskId snapshotTask =
        begin(TaskKind::StateCopy, kCommitThread, ch.index);
    std::shared_ptr<const State> snapshot = clone(*redo);
    end(snapshotTask);
    const TaskId tail =
        begin(TaskKind::MispecReExec, kCommitThread, ch.index);
    runUpdates(model_, *redo, ch.snap, ch.end, rng,
               ch.outputs.data() + (ch.snap - ch.begin),
               TaskKind::MispecReExec);
    end(tail);
    ch.aborted = true;

    // Straight to committed_, not through ch: NativeRuntime's eager
    // replicas may still be reading ch's speculative snapshot.
    committed_.finalState = std::move(redo);
    committed_.snapshot = std::move(snapshot);
    committed_.chunk = ch.index;
    committed_.snap = ch.snap;
    committed_.end = ch.end;
    committed_.speculative = false;
    committed_.finalTask = tail;
    committed_.snapshotTask = snapshotTask;
}

void
StatsProtocol::reportAbort(const ChunkRun &next, const Replicas &replicas,
                           bool matched_first, std::uint64_t abort_span,
                           double validate_seconds) const
{
    // Root-cause attribution while every candidate is alive: where
    // each comparison diverged, and what the abort cost in §V-B terms
    // (the speculated body and alternative producer are
    // mispeculation; replicas and compares were extra computation
    // either way).
    obs::AbortReport report;
    report.session = session_;
    report.chunk = next.index;
    report.firstInput = static_cast<std::int64_t>(next.begin);
    report.inputCount = static_cast<std::uint32_t>(next.end - next.begin);
    report.spanId = abort_span;
    report.wastedBodySeconds = next.bodySeconds;
    report.wastedAltSeconds = next.altSeconds;
    for (const double rs : replicas.seconds)
        report.wastedReplicaSeconds += rs;
    report.validateSeconds = validate_seconds;
    obs::AbortComparison first;
    first.candidate = -1;
    first.matched = matched_first;
    fillPayloadDiff(*next.specEntry, *committed_.finalState, first);
    report.comparisons.push_back(first);
    for (std::size_t rep = 0; rep < replicas.states.size(); ++rep) {
        obs::AbortComparison cmp;
        cmp.candidate = static_cast<int>(rep);
        fillPayloadDiff(*next.specEntry, *replicas.states[rep], cmp);
        report.comparisons.push_back(cmp);
    }
    // Headline: the candidate the byte walk got furthest into before
    // diverging; ties go to the later candidate so a replica is named
    // over the committed final state.
    std::uint64_t best = 0;
    bool haveBest = false;
    for (const obs::AbortComparison &cmp : report.comparisons) {
        report.bytesCompared += cmp.bytesCompared;
        if (!haveBest || cmp.bytesCompared >= best) {
            best = cmp.bytesCompared;
            haveBest = true;
            report.mismatchCandidate = cmp.candidate;
            report.firstDiffBlock = cmp.firstDiffBlock;
        }
    }
    obs::AbortLog::global().record(std::move(report));
}

void
StatsProtocol::releaseState()
{
    committed_.finalState.reset();
    committed_.snapshot.reset();
}

StateHandle
StatsProtocol::clone(const State &source) const
{
    ProtocolMetrics &m = protocolMetrics();
    StateHandle copy = source.clone();
    m.stateCopies.inc();
    // Block payloads report the bytes the clone actually moved (zero
    // for a block-sharing copy-on-write clone).
    m.stateCopyBytes.inc(copy->payload()
                             ? copy->payload()->creationStats().bytesCopied
                             : stateBytes_);
    return copy;
}

TaskId
StatsProtocol::begin(TaskKind kind, trace::ThreadId thread,
                     std::int32_t chunk) const
{
    return rec_ ? rec_->begin(kind, thread, chunk) : kNoTask;
}

void
StatsProtocol::end(TaskId id) const
{
    if (rec_)
        rec_->end(id);
}

void
StatsProtocol::dep(TaskId before, TaskId after) const
{
    if (rec_ && before != kNoTask && after != kNoTask)
        rec_->addDep(before, after);
}

void
StatsProtocol::retag(TaskId id, TaskKind kind) const
{
    if (rec_ && id != kNoTask)
        rec_->retag(id, kind);
}

} // namespace repro::core

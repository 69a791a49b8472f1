#include "core/stats_protocol.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "obs/abort_report.h"
#include "obs/span_recorder.h"
#include "util/log.h"

namespace repro::core {

namespace {

using trace::TaskId;
using trace::TaskKind;

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

[[noreturn]] void
incompleteWindow(const std::string &why)
{
    util::fatal("measuredTrace: the span window is not one complete "
                "batch run: " +
                why);
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

StatsProtocol::StatsProtocol(const IStateModel &model, std::uint64_t seed)
    : model_(model), base_(seed), stateBytes_(model.stateSizeBytes())
{
}

void
StatsProtocol::speculateHead(ChunkRun &ch) const
{
    REPRO_ASSERT(ch.end <= model_.numInputs(),
                 "chunk runs past the model's input range");
    if (ch.index == 0) {
        ch.working = model_.initialState();
    } else {
        Step alt(&protocolMetrics().altProducer,
                 obs::SpanKind::AltProducer, parent_, session_, ch.index,
                 ch.begin, ch.end - ch.begin, ch.altWindowK);
        ch.working = model_.coldState();
        util::Rng rng = base_.split(2000 + ch.index);
        const std::size_t from =
            ch.begin >= ch.altWindowK ? ch.begin - ch.altWindowK : 0;
        runUpdates(model_, *ch.working, from, ch.begin, rng, nullptr,
                   TaskKind::AltProducer);
        ch.specEntry = clone(*ch.working);
        ch.altSeconds = alt.finish();
    }

    Step body(&protocolMetrics().chunkBody, obs::SpanKind::ChunkBody,
              parent_, session_, ch.index, ch.begin, ch.snap - ch.begin);
    ch.bodyRng = base_.split(1000 + ch.index);
    runUpdates(model_, *ch.working, ch.begin, ch.snap, ch.bodyRng,
               ch.outputs.data(), TaskKind::ChunkBody);
    ch.snapshot = clone(*ch.working);
    ch.bodySeconds = body.finish();
}

void
StatsProtocol::speculateTail(ChunkRun &ch) const
{
    Step body(&protocolMetrics().chunkBody, obs::SpanKind::ChunkBody,
              parent_, session_, ch.index, ch.snap, ch.end - ch.snap);
    runUpdates(model_, *ch.working, ch.snap, ch.end, ch.bodyRng,
               ch.outputs.data() + (ch.snap - ch.begin),
               TaskKind::ChunkBody);
    ch.finalState = std::move(ch.working);
    ch.bodySeconds += body.finish();
}

void
StatsProtocol::grow(unsigned boundary, unsigned rep, const State &source,
                    std::size_t from, std::size_t to, Replicas &out) const
{
    Step step(&protocolMetrics().replicaGen, obs::SpanKind::ReplicaRegen,
              parent_, session_, boundary, from, to - from, rep);
    StateHandle replica = clone(source);
    util::Rng rng = base_.split(3000 + boundary * 128 + rep);
    runUpdates(model_, *replica, from, to, rng, nullptr,
               TaskKind::OriginalStateGen);
    protocolMetrics().replicaRegens.inc();
    out.states[rep] = std::move(replica);
    out.seconds[rep] = step.finish();
}

void
StatsProtocol::growReplica(const ChunkRun &ch, unsigned rep,
                           Replicas &out) const
{
    grow(ch.index, rep, *ch.snapshot, ch.snap, ch.end, out);
}

void
StatsProtocol::regrowReplicas(Replicas &out) const
{
    const Committed &from = committed_;
    for (unsigned rep = 0; rep < out.states.size(); ++rep)
        grow(from.chunk, rep, *from.snapshot, from.snap, from.end, out);
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
    const std::size_t count = next.end - next.begin;

    Step val(&m.validation, obs::SpanKind::Validation, parent_, session_,
             next.index, next.begin, count);
    const auto compare = [&](const State &original) {
        const bool ok = model_.matches(*next.specEntry, original);
        m.compares.inc();
        (ok ? m.matches : m.mismatches).inc();
        return ok;
    };
    const bool matchedFirst = compare(*committed_.finalState);
    bool matched = matchedFirst;
    std::int64_t candidate = matched ? -1 : -2;
    std::int64_t compared = 1;
    for (std::size_t rep = 0; !matched && rep < replicas.states.size();
         ++rep) {
        matched = compare(*replicas.states[rep]);
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
    StateHandle redo = clone(*committed_.finalState);
    util::Rng rng = base_.split(5000 + ch.index);
    runUpdates(model_, *redo, ch.begin, ch.snap, rng, ch.outputs.data(),
               TaskKind::MispecReExec);
    std::shared_ptr<const State> snapshot = clone(*redo);
    runUpdates(model_, *redo, ch.snap, ch.end, rng,
               ch.outputs.data() + (ch.snap - ch.begin),
               TaskKind::MispecReExec);
    ch.aborted = true;

    // Straight to committed_, not through ch: NativeRuntime's eager
    // replicas may still be reading ch's speculative snapshot.
    committed_.finalState = std::move(redo);
    committed_.snapshot = std::move(snapshot);
    committed_.chunk = ch.index;
    committed_.snap = ch.snap;
    committed_.end = ch.end;
    committed_.speculative = false;
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

trace::MeasuredTrace
measuredTrace(const std::vector<obs::Span> &spans,
              std::uint64_t after_span_id)
{
    using obs::SpanKind;
    std::vector<obs::Span> window;
    for (const obs::Span &s : spans) {
        if (s.session == 0 && s.id > after_span_id)
            window.push_back(s);
    }
    std::sort(window.begin(), window.end(),
              [](const obs::Span &a, const obs::Span &b) {
                  return a.id < b.id;
              });

    // The run's shape, then a check that every step is there once.
    std::int64_t chunks = 0, lanes = 0;
    for (const obs::Span &s : window) {
        if (s.kind == SpanKind::ChunkBody)
            chunks = std::max(chunks, s.chunk + 1);
        else if (s.kind == SpanKind::ReplicaRegen)
            lanes = std::max(lanes, s.detail + 1);
    }
    if (chunks < 2)
        incompleteWindow("no chunk_body beyond chunk 0 (tracing off, or "
                         "a single-chunk run)");
    struct Steps
    {
        unsigned alt = 0, body = 0, validation = 0, abort = 0, reexec = 0;
    };
    std::vector<Steps> steps(chunks);
    std::vector<unsigned> replicaSpans((chunks - 1) * lanes, 0);
    std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
    for (const obs::Span &s : window) {
        unsigned Steps::*count = nullptr; // Null: a replica_regen.
        switch (s.kind) {
          case SpanKind::AltProducer: count = &Steps::alt; break;
          case SpanKind::ChunkBody: count = &Steps::body; break;
          case SpanKind::ReplicaRegen: break;
          case SpanKind::Validation: count = &Steps::validation; break;
          case SpanKind::Abort: count = &Steps::abort; break;
          case SpanKind::ReExec: count = &Steps::reexec; break;
          default: continue; // Commit markers; other layers' spans.
        }
        if (s.chunk < 0 || s.chunk >= (count ? chunks : chunks - 1) ||
            (!count && s.detail < 0))
            incompleteWindow("span " + std::to_string(s.id) +
                             " is outside the run");
        if (count)
            ++(steps[s.chunk].*count);
        else
            ++replicaSpans[s.chunk * lanes + s.detail];
        if (s.kind != SpanKind::Abort)
            origin = std::min(origin, s.startNs);
    }
    for (std::int64_t c = 0; c < chunks; ++c) {
        const Steps &st = steps[c];
        const unsigned speculative = c > 0 ? 1 : 0;
        bool whole = st.body == 2 && st.alt == speculative &&
                     st.validation == speculative &&
                     st.abort <= speculative && st.reexec == st.abort;
        for (std::int64_t r = 0; c + 1 < chunks && r < lanes; ++r)
            whole = whole && replicaSpans[c * lanes + r] == 1 + st.abort;
        if (!whole)
            incompleteWindow("chunk " + std::to_string(c) +
                             " lacks a step or has one twice");
    }

    constexpr TaskId kNone = std::numeric_limits<TaskId>::max();
    // Per chunk: its head body, its committed final state (tail, or
    // reexec once it aborted), its alt_producer and its reexec; per
    // replica lane, its latest span.
    std::vector<TaskId> head(chunks, kNone), finalOf(chunks, kNone),
        alt(chunks, kNone), reexec(chunks, kNone),
        replica((chunks - 1) * lanes, kNone);
    trace::MeasuredTrace mt;
    std::map<std::uint32_t, unsigned> laneOf;
    const auto add = [&](const obs::Span &s, TaskKind kind,
                         std::int64_t thread) {
        const double start = static_cast<double>(s.startNs - origin) * 1e-3;
        const double finish = static_cast<double>(s.endNs - origin) * 1e-3;
        const TaskId id = mt.graph.addTask(
            kind, static_cast<trace::ThreadId>(thread), finish - start,
            static_cast<std::int32_t>(s.chunk));
        mt.startUs.push_back(start);
        mt.finishUs.push_back(finish);
        mt.lane.push_back(
            laneOf.try_emplace(s.thread, laneOf.size()).first->second);
        return id;
    };
    const auto dep = [&](TaskId before, TaskId after) {
        if (before >= after)
            incompleteWindow("a step started before one it waits for");
        mt.graph.addDep(before, after);
    };
    for (const obs::Span &s : window) {
        const std::int64_t c = s.chunk;
        switch (s.kind) {
          case SpanKind::AltProducer:
            alt[c] = add(s, TaskKind::AltProducer, 1 + c);
            break;
          case SpanKind::ChunkBody: {
            const TaskId t = add(s,
                                 steps[c].abort ? TaskKind::MispecReExec
                                                : TaskKind::ChunkBody,
                                 1 + c);
            (head[c] == kNone ? head[c] : finalOf[c]) = t;
            break;
          }
          case SpanKind::ReplicaRegen: {
            // After an abort of chunk c the pair's first span is the
            // eager replica, grown from a snapshot that never became
            // state; the second regrew from the re-execution.
            TaskId &latest = replica[c * lanes + s.detail];
            const bool regrown = latest != kNone;
            const TaskId t = add(s,
                                 steps[c].abort && !regrown
                                     ? TaskKind::MispecReExec
                                     : TaskKind::OriginalStateGen,
                                 1 + chunks + c * lanes + s.detail);
            dep(head[c], t);
            if (regrown)
                dep(reexec[c], t);
            latest = t;
            break;
          }
          case SpanKind::Validation: {
            const TaskId t = add(s, TaskKind::StateCompare, 0);
            dep(finalOf[c - 1], t);
            dep(alt[c], t);
            for (std::int64_t r = 0; r < lanes; ++r)
                dep(replica[(c - 1) * lanes + r], t);
            break;
          }
          case SpanKind::ReExec:
            reexec[c] = finalOf[c] = add(s, TaskKind::MispecReExec, 0);
            break;
          default:
            break; // Commit and abort markers; other layers' spans.
        }
    }
    mt.laneCount = static_cast<unsigned>(laneOf.size());
    return mt;
}

} // namespace repro::core

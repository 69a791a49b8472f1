#include "serving/serving_runtime.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <span>
#include <utility>

#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "util/log.h"
#include "util/spsc_ring.h"
#include "util/thread_pool.h"

namespace repro::serving {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/** Background coordinator wake period: the granularity of deadline
 *  checks. */
constexpr std::chrono::microseconds kPollPeriod{200};

/** E2e latencies a strand buffers per histogram update; a larger
 *  chunk flushes the buffer whenever it fills. */
constexpr std::size_t kE2eBatch = 64;

/** The serving layer's instruments, resolved once (registry lookups
 *  take a lock; the steady state must not). */
struct ServingMetrics
{
    metrics::Gauge &sessionsActive;
    metrics::Counter &sessionsAdmitted;
    metrics::Counter &sessionsDrained;
    metrics::Counter &sessionsEvicted;
    metrics::Counter &inputsSubmitted;
    metrics::Counter &inputsRejected;
    metrics::Counter &chunksClosedSize;
    metrics::Counter &deadlineClosures;
    metrics::Counter &drainClosures;
    metrics::Counter &chunksCommitted;
    metrics::Counter &chunksAborted;
    metrics::Counter &outputsDelivered;
    metrics::Counter &retunesApplied;
    metrics::LatencyHistogram &e2eLatency;
    /** Unit: *inputs* pending for the session at chunk closure, not
     *  seconds — the power-of-two bucketing is what we want. */
    metrics::LatencyHistogram &queueDepth;
    metrics::LatencyHistogram &chunkProcess;
};

/** Next ServingRuntime uid: an address may be reused, a uid is not. */
std::atomic<std::uint64_t> g_nextRuntimeUid{1};

/** The knobs a session starts with. */
SessionTuning
initialTuning(const SessionConfig &cfg)
{
    return {cfg.chunkInputs, cfg.stats.altWindowK,
            cfg.stats.numOriginalStates};
}

/** The knob checks admit() and retune() share. */
void
checkTuning(const SessionTuning &tuning)
{
    REPRO_ASSERT(tuning.chunkInputs >= 1,
                 "session tuning needs chunkInputs >= 1");
    REPRO_ASSERT(tuning.altWindowK >= 1,
                 "session tuning needs altWindowK >= 1");
    REPRO_ASSERT(tuning.numOriginalStates >= 1,
                 "session tuning needs numOriginalStates >= 1");
}

ServingMetrics &
servingMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static ServingMetrics m{
        reg.gauge("serving.sessions_active"),
        reg.counter("serving.sessions_admitted"),
        reg.counter("serving.sessions_drained"),
        reg.counter("serving.sessions_evicted"),
        reg.counter("serving.inputs_submitted"),
        reg.counter("serving.inputs_rejected"),
        reg.counter("serving.chunks_closed_size"),
        reg.counter("serving.deadline_closures"),
        reg.counter("serving.drain_closures"),
        reg.counter("serving.chunks_committed"),
        reg.counter("serving.chunks_aborted"),
        reg.counter("serving.outputs_delivered"),
        reg.counter("serving.retunes_applied"),
        reg.histogram("serving.e2e_latency_seconds"),
        reg.histogram("serving.queue_depth"),
        reg.histogram("serving.chunk_process_seconds"),
    };
    return m;
}

} // namespace

namespace detail {

/**
 * All mutable state of one admitted session.  Held by shared_ptr: an
 * in-flight strand task keeps its session alive even across evict()
 * or runtime destruction, and the strand body touches *only* session
 * members and immortal globals (pool, metrics) — never the runtime —
 * so a strand can outlive the ServingRuntime that scheduled it.
 */
struct Session
{
    Session(SessionId sid, const core::IStateModel &m, SessionConfig c,
            std::function<TimePoint()> clk)
        : id(sid), cfg(std::move(c)), numInputs(m.numInputs()),
          clock(std::move(clk)), ring(cfg.queueCapacity),
          active(initialTuning(cfg)), pipeline(m, cfg.stats, cfg.seed)
    {
    }

    TimePoint
    now() const
    {
        return clock ? clock() : Clock::now();
    }

    const SessionId id;
    const SessionConfig cfg;
    const std::size_t numInputs; //!< Model's input-stream length.
    const std::function<TimePoint()> clock;

    // ---- Producer side (one thread) --------------------------------
    std::atomic<bool> draining{false};
    std::atomic<bool> evicted{false}; //!< Submit caches miss it.
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};

    /** The only queue: each accepted input's session-clock enqueue
     *  stamp, at the position equal to its stream index, until its
     *  result is delivered.  Inputs record no span of their own: their
     *  chunk_close span starts at the oldest one's stamp, and per-input
     *  latency lives in serving.e2e_latency_seconds. */
    util::SpscRing<TimePoint> ring;

    // ---- Consumer side (coordinator / poll / drain, serialized by
    //      consumerMu) --------------------------------------------------
    /** One closed-but-unprocessed chunk: ring positions [first, first +
     *  count), whose stamps the strand turns into e2e latencies, and
     *  the closure's own span for causal links. */
    struct ClosedChunk
    {
        std::uint64_t first = 0; //!< Ring position of the oldest input.
        std::size_t count = 0;
        bool deadline = false;
        std::uint64_t closeSpan = 0; //!< ChunkClose span (0 untraced).
        /** STATS parameters this chunk was closed under; the strand
         *  reconfigures the pipeline to these before processing, so a
         *  knob swap can never land mid-chunk even with several closed
         *  chunks queued across a retune. */
        SessionPipeline::Config pipelineCfg;
    };

    std::mutex consumerMu;
    /** Ring positions [closedEnd, seen) are the open chunk: inputs the
     *  consumer has seen and not yet closed. */
    std::uint64_t seen = 0;
    std::uint64_t closedEnd = 0;
    std::deque<ClosedChunk> closed; //!< Closed, awaiting the strand.
    SessionTuning active;           //!< Knobs of the open chunk.
    SessionTuning pending;          //!< Requested knobs, if any.
    bool hasPending = false;        //!< Guarded by consumerMu.
    std::atomic<std::uint64_t> chunksClosed{0};
    std::atomic<std::uint64_t> deadlineClosures{0};
    std::atomic<std::uint64_t> retunesApplied{0};

    // ---- Strand (at most one pool task in flight) ------------------
    std::atomic<bool> strandActive{false};
    SessionPipeline pipeline; //!< Strand-owned while a task runs.
    std::atomic<std::uint64_t> chunksProcessed{0};
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint64_t> outputsDelivered{0};

    // ---- Drain handshake -------------------------------------------
    std::mutex drainMu;
    std::condition_variable drainCv;
    bool drained = false; //!< Guarded by drainMu.
};

} // namespace detail

namespace {

using detail::Session;

/** The session a thread submitted to last (serving_runtime.h). */
struct SubmitCache
{
    std::uint64_t runtime = 0; //!< ServingRuntime uid.
    SessionId id = 0;
    std::shared_ptr<Session> session;
};
thread_local SubmitCache t_submitCache;

/** Lands the pending knob swap if the stream is at a chunk boundary
 *  (no open inputs).  Caller holds consumerMu. */
void
applyPendingLocked(Session &s)
{
    if (!s.hasPending || s.seen != s.closedEnd)
        return;
    s.active = s.pending;
    s.hasPending = false;
    s.retunesApplied.fetch_add(1, std::memory_order_relaxed);
    servingMetrics().retunesApplied.inc();
}

/** Moves the open chunk onto the closed queue.  Caller holds
 *  consumerMu; the open chunk must be non-empty. */
void
closeOpen(Session &s, bool deadline, bool drainClose)
{
    auto &m = servingMetrics();
    m.queueDepth.observe(static_cast<double>(s.ring.pushed() - s.closedEnd));
    Session::ClosedChunk chunk;
    chunk.first = s.closedEnd;
    chunk.count = s.seen - s.closedEnd;
    chunk.deadline = deadline;
    chunk.pipelineCfg.altWindowK = s.active.altWindowK;
    chunk.pipelineCfg.numOriginalStates = s.active.numOriginalStates;
    s.closedEnd = s.seen;
    const std::uint64_t chunkIndex =
        s.chunksClosed.fetch_add(1, std::memory_order_relaxed);
    // The closure anchors the chunk's causal chain, and its span is
    // the oldest input's queue wait: it runs from that input's submit
    // stamp to now.  Span timestamps stay on the real clock, so under
    // an injected session clock the span is zero-length at closure.
    auto &rec = obs::SpanRecorder::global();
    obs::Span close = rec.start(
        obs::SpanKind::ChunkClose, 0, s.id,
        static_cast<std::int64_t>(chunkIndex),
        static_cast<std::int64_t>(chunk.first),
        static_cast<std::uint32_t>(chunk.count), deadline ? 1 : 0);
    close.endNs = close.startNs;
    if (!s.clock)
        close.startNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                s.ring.at(chunk.first).time_since_epoch())
                .count());
    chunk.closeSpan = close.id;
    rec.record(close);
    s.closed.push_back(chunk);
    if (deadline) {
        s.deadlineClosures.fetch_add(1, std::memory_order_relaxed);
        m.deadlineClosures.inc();
    } else if (drainClose) {
        m.drainClosures.inc();
    } else {
        m.chunksClosedSize.inc();
    }
    // The closure is a chunk boundary — the spot a requested knob swap
    // is allowed to land.
    applyPendingLocked(s);
}

/** Takes every input pushed since the last call into the open chunk,
 *  closing it on size as it fills: at chunkInputs, or at the ring's
 *  capacity, which a chunk of undelivered inputs could never pass.
 *  Reads only the ring's head.  Caller holds consumerMu.
 *  @return true when a chunk closed. */
bool
takePushedLocked(Session &s)
{
    const std::uint64_t head = s.ring.pushed();
    bool closedAny = false;
    for (;;) {
        const std::size_t size =
            std::min(s.active.chunkInputs, s.ring.capacity());
        if (head - s.closedEnd < size)
            break;
        s.seen = s.closedEnd + size;
        closeOpen(s, /*deadline=*/false, /*drainClose=*/false);
        closedAny = true;
    }
    s.seen = head;
    return closedAny;
}

/** The strand body: processes closed chunks in order until the queue
 *  is empty, then retires.  Touches only the session and immortal
 *  globals; reschedules itself through the global pool. */
void strandLoop(const std::shared_ptr<Session> &s);

void
scheduleStrandIfWork(const std::shared_ptr<Session> &s)
{
    {
        const std::lock_guard<std::mutex> lock(s->consumerMu);
        if (s->closed.empty())
            return;
    }
    if (s->strandActive.exchange(true, std::memory_order_acq_rel))
        return; // A strand task is already in flight.
    std::shared_ptr<Session> keep = s;
    util::ThreadPool::global().detach([keep] { strandLoop(keep); });
}

void
strandLoop(const std::shared_ptr<Session> &s)
{
    auto &m = servingMetrics();
    for (;;) {
        Session::ClosedChunk chunk;
        bool have = false;
        {
            const std::lock_guard<std::mutex> lock(s->consumerMu);
            if (!s->closed.empty()) {
                chunk = std::move(s->closed.front());
                s->closed.pop_front();
                have = true;
            }
        }
        if (!have)
            break;

        // Between chunks by construction (the strand is the only
        // processChunk caller and runs them one at a time): swap in
        // the knobs this chunk was closed under.
        const SessionPipeline::Config &cur = s->pipeline.config();
        if (chunk.pipelineCfg.altWindowK != cur.altWindowK ||
            chunk.pipelineCfg.numOriginalStates !=
                cur.numOriginalStates)
            s->pipeline.reconfigure(chunk.pipelineCfg);

        auto &rec = obs::SpanRecorder::global();
        obs::Span procSpan = rec.start(
            obs::SpanKind::ChunkProcess, chunk.closeSpan, s->id,
            static_cast<std::int64_t>(
                s->chunksProcessed.load(std::memory_order_relaxed)),
            static_cast<std::int64_t>(chunk.first),
            static_cast<std::uint32_t>(chunk.count));
        s->pipeline.setTraceContext(s->id, procSpan.id);
        SessionPipeline::ChunkResult result;
        {
            const metrics::ScopedTimer timer(m.chunkProcess);
            result = s->pipeline.processChunk(chunk.count);
        }
        rec.finish(procSpan);
        s->chunksProcessed.fetch_add(1, std::memory_order_relaxed);
        if (result.aborted) {
            s->aborts.fetch_add(1, std::memory_order_relaxed);
            m.chunksAborted.inc();
        } else {
            s->commits.fetch_add(1, std::memory_order_relaxed);
            m.chunksCommitted.inc();
        }

        if (s->cfg.onResult) {
            obs::Span cbSpan = rec.start(
                obs::SpanKind::Callback, procSpan.id, s->id,
                static_cast<std::int64_t>(result.chunkIndex),
                static_cast<std::int64_t>(result.firstInput),
                static_cast<std::uint32_t>(result.outputs.size()));
            const ResultChunk delivery{s->id, result.chunkIndex,
                                       result.firstInput, result.aborted,
                                       chunk.deadline, result.outputs};
            s->cfg.onResult(delivery);
            rec.finish(cbSpan);
        }

        // Every worker's strand writes the e2e histogram: record the
        // chunk's latencies in batches, not one update per input.
        const TimePoint done = s->now();
        std::array<double, kE2eBatch> e2e{};
        std::size_t pending = 0;
        for (std::size_t i = 0; i < chunk.count; ++i) {
            e2e[pending++] = std::chrono::duration<double>(
                                 done - s->ring.at(chunk.first + i))
                                 .count();
            if (pending == e2e.size()) {
                m.e2eLatency.observe(e2e);
                pending = 0;
            }
        }
        m.e2eLatency.observe(std::span<const double>(e2e.data(), pending));
        // Free the slots before the counters report the delivery, so a
        // producer waiting on the counters finds the room.
        s->ring.pop(chunk.count);
        s->outputsDelivered.fetch_add(chunk.count,
                                      std::memory_order_relaxed);
        m.outputsDelivered.inc(chunk.count);
    }

    // Retire, wake any drainer, and re-arm if a closure raced in
    // between our last pop and the store (classic lost-wakeup guard).
    s->strandActive.store(false, std::memory_order_release);
    {
        const std::lock_guard<std::mutex> lock(s->drainMu);
    }
    s->drainCv.notify_all();
    scheduleStrandIfWork(s);
}

/** Blocks until the session has no closed chunk pending and no strand
 *  task in flight. */
void
waitIdle(Session &s)
{
    std::unique_lock<std::mutex> lock(s.drainMu);
    s.drainCv.wait(lock, [&s] {
        if (s.strandActive.load(std::memory_order_acquire))
            return false;
        const std::lock_guard<std::mutex> consumer(s.consumerMu);
        return s.closed.empty();
    });
}

} // namespace

ServingRuntime::ServingRuntime(ServingOptions options)
    : opts_(std::move(options)),
      uid_(g_nextRuntimeUid.fetch_add(1, std::memory_order_relaxed))
{
    if (opts_.backgroundCoordinator)
        coordinator_ = std::thread([this] { coordinatorLoop(); });
}

ServingRuntime::~ServingRuntime()
{
    {
        const std::lock_guard<std::mutex> lock(coordMu_);
        stopping_ = true;
    }
    coordCv_.notify_all();
    if (coordinator_.joinable())
        coordinator_.join();

    // Finish in-flight work (queued-but-unclosed inputs are dropped,
    // like a server shutting down), then release every session.
    std::vector<std::shared_ptr<detail::Session>> victims;
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        for (auto &entry : sessions_) {
            entry.second->evicted.store(true, std::memory_order_release);
            victims.push_back(entry.second);
        }
        sessions_.clear();
    }
    auto &m = servingMetrics();
    for (const std::shared_ptr<detail::Session> &s : victims) {
        s->draining.store(true, std::memory_order_release);
        waitIdle(*s);
        s->pipeline.releaseState();
        m.sessionsActive.sub(1);
    }
}

std::chrono::steady_clock::time_point
ServingRuntime::now() const
{
    return opts_.clock ? opts_.clock() : Clock::now();
}

SessionId
ServingRuntime::admit(const core::IStateModel &model, SessionConfig config)
{
    checkTuning(initialTuning(config));
    REPRO_ASSERT(config.queueCapacity >= 1,
                 "session queue capacity must be >= 1");
    std::shared_ptr<detail::Session> s;
    SessionId id = 0;
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        id = nextId_++;
        s = std::make_shared<detail::Session>(id, model, std::move(config),
                                              opts_.clock);
        sessions_.emplace(id, std::move(s));
    }
    auto &m = servingMetrics();
    m.sessionsAdmitted.inc();
    m.sessionsActive.add(1);
    return id;
}

std::shared_ptr<detail::Session>
ServingRuntime::find(SessionId id) const
{
    const std::lock_guard<std::mutex> lock(sessionsMu_);
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

SubmitResult
ServingRuntime::submit(SessionId id)
{
    SubmitCache &cache = t_submitCache;
    if (cache.runtime != uid_ || cache.id != id || !cache.session ||
        cache.session->evicted.load(std::memory_order_acquire)) {
        cache = {uid_, id, find(id)};
        if (!cache.session)
            return {SubmitStatus::UnknownSession, 0};
    }
    Session &s = *cache.session;
    if (s.draining.load(std::memory_order_acquire))
        return {SubmitStatus::Draining, s.ring.size()};
    // Only this function advances accepted, and a session has one
    // producer, so the relaxed read *is* the next stream index.
    const std::uint64_t index = s.accepted.load(std::memory_order_relaxed);
    if (index >= s.numInputs)
        return {SubmitStatus::Exhausted, s.ring.size()};
    auto &m = servingMetrics();
    if (!s.ring.tryPush(s.now())) {
        s.rejected.fetch_add(1, std::memory_order_relaxed);
        m.inputsRejected.inc();
        return {SubmitStatus::Backpressure, s.ring.size()};
    }
    s.accepted.store(index + 1, std::memory_order_relaxed);
    m.inputsSubmitted.inc();
    return {SubmitStatus::Accepted, s.ring.size()};
}

bool
ServingRuntime::closeChunk(SessionId id)
{
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return false;
    bool closedSomething = false;
    {
        const std::lock_guard<std::mutex> lock(s->consumerMu);
        closedSomething = takePushedLocked(*s);
        if (s->seen != s->closedEnd) {
            closeOpen(*s, /*deadline=*/false, /*drainClose=*/false);
            closedSomething = true;
        }
    }
    scheduleStrandIfWork(s);
    return closedSomething;
}

void
ServingRuntime::drain(SessionId id)
{
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return;
    const bool first =
        !s->draining.exchange(true, std::memory_order_acq_rel);
    {
        const std::lock_guard<std::mutex> lock(s->consumerMu);
        takePushedLocked(*s);
        if (s->seen != s->closedEnd)
            closeOpen(*s, /*deadline=*/false, /*drainClose=*/true);
    }
    scheduleStrandIfWork(s);
    waitIdle(*s);
    {
        const std::lock_guard<std::mutex> lock(s->drainMu);
        s->drained = true;
    }
    if (first)
        servingMetrics().sessionsDrained.inc();
}

void
ServingRuntime::evict(SessionId id)
{
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return;
    drain(id);
    s->evicted.store(true, std::memory_order_release);
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        sessions_.erase(id);
    }
    // The drain above guarantees no strand is in flight, so the
    // pipeline's committed state (and with it every BlockArena block
    // the session held) is released here, on the evictor's thread.
    s->pipeline.releaseState();
    auto &m = servingMetrics();
    m.sessionsEvicted.inc();
    m.sessionsActive.sub(1);
}

bool
ServingRuntime::retune(SessionId id, const SessionTuning &tuning)
{
    checkTuning(tuning);
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return false;
    const std::lock_guard<std::mutex> lock(s->consumerMu);
    s->pending = tuning;
    s->hasPending = true;
    applyPendingLocked(*s);
    return true;
}

void
ServingRuntime::retuneAll(const SessionTuning &tuning)
{
    for (const SessionId id : sessionIds())
        retune(id, tuning);
}

std::vector<SessionId>
ServingRuntime::sessionIds() const
{
    std::vector<SessionId> ids;
    const std::lock_guard<std::mutex> lock(sessionsMu_);
    ids.reserve(sessions_.size());
    for (const auto &entry : sessions_)
        ids.push_back(entry.first);
    return ids;
}

void
ServingRuntime::pollSession(detail::Session &s, TimePoint nowStamp)
{
    const std::lock_guard<std::mutex> lock(s.consumerMu);
    takePushedLocked(s);
    if (s.cfg.latencyBudget.count() > 0 && s.seen != s.closedEnd &&
        nowStamp - s.ring.at(s.closedEnd) >= s.cfg.latencyBudget)
        closeOpen(s, /*deadline=*/true, /*drainClose=*/false);
}

void
ServingRuntime::poll()
{
    std::vector<std::shared_ptr<detail::Session>> snapshot;
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        snapshot.reserve(sessions_.size());
        for (const auto &entry : sessions_)
            snapshot.push_back(entry.second);
    }
    const TimePoint nowStamp = now();
    for (const std::shared_ptr<detail::Session> &s : snapshot) {
        pollSession(*s, nowStamp);
        scheduleStrandIfWork(s);
    }
}

void
ServingRuntime::coordinatorLoop()
{
    std::unique_lock<std::mutex> lock(coordMu_);
    while (!stopping_) {
        coordCv_.wait_for(lock, kPollPeriod,
                          [this] { return stopping_; });
        if (stopping_)
            break;
        lock.unlock();
        poll();
        lock.lock();
    }
}

std::size_t
ServingRuntime::activeSessions() const
{
    const std::lock_guard<std::mutex> lock(sessionsMu_);
    return sessions_.size();
}

SessionStats
ServingRuntime::sessionStats(SessionId id) const
{
    SessionStats stats;
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return stats;
    stats.submitted = s->accepted.load(std::memory_order_relaxed);
    stats.rejected = s->rejected.load(std::memory_order_relaxed);
    stats.chunksClosed = s->chunksClosed.load(std::memory_order_relaxed);
    stats.deadlineClosures =
        s->deadlineClosures.load(std::memory_order_relaxed);
    stats.chunksProcessed =
        s->chunksProcessed.load(std::memory_order_relaxed);
    stats.commits = s->commits.load(std::memory_order_relaxed);
    stats.aborts = s->aborts.load(std::memory_order_relaxed);
    stats.outputsDelivered =
        s->outputsDelivered.load(std::memory_order_relaxed);
    stats.retunesApplied =
        s->retunesApplied.load(std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(s->consumerMu);
        stats.tuning = s->active;
    }
    stats.draining = s->draining.load(std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(s->drainMu);
        stats.drained = s->drained;
    }
    return stats;
}

const char *
submitStatusName(SubmitStatus status)
{
    switch (status) {
    case SubmitStatus::Accepted:
        return "accepted";
    case SubmitStatus::Backpressure:
        return "backpressure";
    case SubmitStatus::Draining:
        return "draining";
    case SubmitStatus::Exhausted:
        return "exhausted";
    case SubmitStatus::UnknownSession:
        return "unknown-session";
    }
    return "invalid";
}

} // namespace repro::serving

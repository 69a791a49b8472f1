/**
 * @file
 * Streaming multi-tenant serving mode: many independent STATS
 * sessions multiplexed onto the shared ThreadPool.
 *
 * The batch runtime answers "run this input vector to completion";
 * a serving system answers "keep thousands of concurrent state
 * streams progressing with bounded latency".  ServingRuntime is that
 * layer: each *session* wraps one IStateModel stream — its own
 * SessionPipeline (serving/session_pipeline.h), RNG streams, bounded
 * ingestion queue, and latency budget — and all sessions share the
 * process-wide worker pool.
 *
 * Data path of one input:
 *  1. The session's producer calls submit(): the input's enqueue
 *     timestamp is pushed onto the session's bounded SPSC ring
 *     (util/spsc_ring.h) at the position equal to its stream index.
 *     The ring is the session's only queue: an input holds its slot
 *     until its result is delivered, so a full ring — queueCapacity
 *     accepted but undelivered inputs — is *backpressure*: submit
 *     returns SubmitStatus::Backpressure and the producer decides
 *     (retry, shed, slow down) — the runtime never blocks a producer
 *     and never drops silently.
 *  2. The coordinator thread reads each ring's head into the session's
 *     open chunk and closes the chunk when it reaches
 *     min(chunkInputs, queueCapacity) inputs (a larger chunk could
 *     never fill) — or, crucially, when the *age* of the oldest open
 *     input exceeds the session's latency budget (deadline closure).
 *     Idle sessions therefore still make progress and per-input p99
 *     latency is bounded by budget + processing time, not by how long
 *     the stream takes to fill a chunk.  No input is copied.
 *  3. A closed chunk is appended to the session's strand queue and a
 *     strand task is scheduled on the pool (at most one per session
 *     in flight, so the pipeline sees chunks strictly in order while
 *     different sessions run genuinely in parallel).  The strand runs
 *     the STATS protocol for the chunk, delivers the committed outputs
 *     to the session's result callback, records the chunk's e2e
 *     latencies from the ring's stamps, then pops its inputs.
 *
 * submit() caches, per thread, the session it submitted to last.  A hit
 * takes no lock, copies no shared_ptr and hashes nothing.  Entries are
 * keyed by a process-wide runtime uid, never the runtime's address, and
 * evict() and ~ServingRuntime flag a session before dropping it, so a
 * stale entry misses.  The cost: an entry keeps an evicted session's
 * shell (its ring and pipeline object; eviction already returned its
 * arena blocks) alive until the thread submits elsewhere or exits.
 *
 * Lifecycle: admit() -> submit()/results -> drain() (stop intake,
 * close the partial chunk, finish in-flight work, flush results) ->
 * evict() (release the session's state; with block payloads this
 * returns every BlockArena block — the state.arena_blocks_live gauge
 * and tests pin it).  All lifecycle operations are thread-safe and
 * may run concurrently for different sessions.
 *
 * Determinism: outputs are a pure function of (model, config, seed,
 * closure trace) — see session_pipeline.h.  Timing only decides
 * *where* chunks close, never what a given trace produces; the
 * fake-clock tests in tests/serving drive the coordinator manually
 * (ServingOptions::backgroundCoordinator = false + injected clock) to
 * pin both properties.
 *
 * Metrics (always-on, metrics/metrics.h): serving.sessions_active
 * gauge; admitted/drained/evicted, inputs submitted/rejected, chunk
 * closures by cause (size / deadline / drain), commits/aborts and
 * delivered outputs counters; end-to-end latency (submit -> result
 * delivery), queue depth at closure (unit: inputs, not seconds), and
 * per-chunk processing-time histograms.
 */

#ifndef REPRO_SERVING_SERVING_RUNTIME_H
#define REPRO_SERVING_SERVING_RUNTIME_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/state_model.h"
#include "serving/session_pipeline.h"

namespace repro::serving {

namespace detail {
struct Session; //!< All mutable state of one session (serving_runtime.cc).
} // namespace detail

/** Opaque handle of one admitted session. */
using SessionId = std::uint64_t;

/** Producer-visible outcome of one submit() call. */
enum class SubmitStatus : std::uint8_t
{
    Accepted,       //!< Queued; will be processed.
    Backpressure,   //!< Ingestion ring full — retry or shed.
    Draining,       //!< Session no longer accepts inputs.
    Exhausted,      //!< Stream reached the model's input count.
    UnknownSession, //!< No such session (never admitted, or evicted).
};

/** Typed submit outcome: status plus the observed queue depth, so a
 *  producer can pace itself without a second call. */
struct SubmitResult
{
    SubmitStatus status = SubmitStatus::UnknownSession;
    /** Accepted but undelivered inputs after the call (<= capacity). */
    std::size_t queueDepth = 0;
};

/** One committed chunk of results, delivered to the session callback
 *  on a pool worker thread (keep callbacks cheap and thread-safe). */
struct ResultChunk
{
    SessionId session = 0;
    unsigned chunkIndex = 0;
    std::size_t firstInput = 0;  //!< Stream index of outputs.front().
    bool aborted = false;        //!< Outputs come from re-execution.
    bool deadlineClosed = false; //!< Chunk closed by its deadline.
    const std::vector<double> &outputs; //!< Valid during the call only.
};

/**
 * The live-tunable knobs of one session: the three STATS parameters
 * the adaptive feedback controller (src/adapt/) retunes while the
 * stream runs.  Chunk length plays the role batch numChunks plays —
 * for a fixed input count they determine each other — and altWindowK /
 * numOriginalStates are the paper's k and R.  A retune *never* takes
 * effect mid-chunk: pending knobs land at the next chunk boundary
 * (see ServingRuntime::retune), which is what keeps adaptive runs a
 * pure function of (model, seed, closure trace, knob trace).
 */
struct SessionTuning
{
    std::size_t chunkInputs = 64;   //!< Size-closure threshold.
    unsigned altWindowK = 2;        //!< Speculation lookahead k.
    unsigned numOriginalStates = 1; //!< Original states per boundary.

    bool
    operator==(const SessionTuning &o) const
    {
        return chunkInputs == o.chunkInputs &&
               altWindowK == o.altWindowK &&
               numOriginalStates == o.numOriginalStates;
    }

    bool operator!=(const SessionTuning &o) const { return !(*this == o); }
};

/** Per-session configuration. */
struct SessionConfig
{
    /** STATS parameters (alt window K, original states R). */
    SessionPipeline::Config stats;

    /** Master seed — equals the seed an equivalent batch run uses. */
    std::uint64_t seed = 42;

    /** Size-based closure: a chunk closes when it holds this many
     *  inputs, or queueCapacity if that is smaller.  Must be >= 1. */
    std::size_t chunkInputs = 64;

    /** Bound on the session's accepted but undelivered inputs (its
     *  ring); a full ring is backpressure until the strand delivers.
     *  Chunks close on size at min(chunkInputs, queueCapacity). */
    std::size_t queueCapacity = 256;

    /** Deadline closure: close a non-empty open chunk once its oldest
     *  input is older than this.  zero() disables deadline closure
     *  (chunks close on size or drain only). */
    std::chrono::nanoseconds latencyBudget{0};

    /** Result delivery callback (may be null: results are dropped
     *  after accounting).  Runs on a pool worker thread. */
    std::function<void(const ResultChunk &)> onResult;
};

/** Runtime-wide options. */
struct ServingOptions
{
    /** Start the background coordinator thread (default), which polls
     *  every 200 us — the granularity of deadline checks.  Tests turn
     *  this off and pump poll() manually for deterministic closure
     *  traces. */
    bool backgroundCoordinator = true;

    /** Clock the runtime stamps and ages inputs with; null = steady
     *  clock.  Injectable for deterministic deadline tests. */
    std::function<std::chrono::steady_clock::time_point()> clock;
};

/** Point-in-time statistics of one session. */
struct SessionStats
{
    std::uint64_t submitted = 0;  //!< Inputs accepted.
    std::uint64_t rejected = 0;   //!< Submits that saw backpressure.
    std::uint64_t chunksClosed = 0;
    std::uint64_t deadlineClosures = 0; //!< ... of which by deadline.
    std::uint64_t chunksProcessed = 0;
    std::uint64_t commits = 0;    //!< Boundary checks that accepted.
    std::uint64_t aborts = 0;     //!< Boundary checks that re-executed.
    std::uint64_t outputsDelivered = 0;
    std::uint64_t retunesApplied = 0; //!< Knob swaps landed at boundaries.
    SessionTuning tuning;             //!< Knobs of the next chunk.
    bool draining = false;
    bool drained = false;
};

/**
 * Long-running host of many concurrent STATS sessions.
 */
class ServingRuntime
{
  public:
    explicit ServingRuntime(ServingOptions options = {});

    /** Stops the coordinator and releases every session (in-flight
     *  strand tasks finish first; undrained sessions lose queued
     *  inputs, like a server shutting down). */
    ~ServingRuntime();

    ServingRuntime(const ServingRuntime &) = delete;
    ServingRuntime &operator=(const ServingRuntime &) = delete;

    /**
     * Admits a new session over @p model.  Panics on a knob that
     * retune() would reject (chunkInputs, altWindowK or
     * numOriginalStates of 0) and on a queueCapacity of 0.
     * @param model Must outlive the session (shared by reference; a
     *        model may back many concurrent sessions).
     * @return Handle for submit/drain/evict.
     */
    SessionId admit(const core::IStateModel &model, SessionConfig config);

    /**
     * Offers one input to the session.  Producer-side; at most one
     * producer thread per session (the ring is SPSC).  Takes no lock
     * when this thread's last submit went to the same session.
     */
    SubmitResult submit(SessionId id);

    /**
     * Closes the session's open chunk now, regardless of size or age
     * (consumer-side; used by drain and by tests constructing exact
     * closure traces).  Inputs pushed since the last poll join the
     * open chunk first, closing on size as they do.  @return false
     * when there was nothing to close or the session is unknown.
     */
    bool closeChunk(SessionId id);

    /**
     * Stops intake, closes the final partial chunk, and blocks until
     * every closed chunk is processed and its results delivered.
     * Idempotent; safe to call concurrently for different sessions.
     */
    void drain(SessionId id);

    /**
     * Drains the session, releases its state (BlockArena payloads drop
     * their blocks), and forgets the id.  The model reference is no
     * longer used once evict returns.
     */
    void evict(SessionId id);

    /**
     * One coordinator iteration on the calling thread: read every
     * ring's head, apply size and deadline closures, schedule strands.
     * The manual-pump counterpart of the background coordinator (also
     * safe alongside it — consumer-side work is serialized per
     * session).
     */
    void poll();

    /**
     * Requests a knob swap for the session.  The swap is *deferred to
     * the next chunk boundary*: when the session's open chunk is empty
     * it applies immediately (the stream is at a boundary), otherwise
     * the open chunk still closes under the old knobs and the pending
     * tuning lands when it does.  A second retune before the boundary
     * replaces the pending values (last writer wins).  The chunk-size
     * knob governs size closure of subsequent chunks; altWindowK and
     * numOriginalStates ride along with each closed chunk so the
     * strand reconfigures the pipeline for exactly the chunks closed
     * under them — the protocol never sees a mid-chunk change.
     * Every knob must be >= 1.
     * @return false for unknown sessions.
     */
    bool retune(SessionId id, const SessionTuning &tuning);

    /** retune() for every active session (the controller's broadcast:
     *  sessions share one workload profile and one knob setting). */
    void retuneAll(const SessionTuning &tuning);

    /** Ids of every admitted, not-yet-evicted session. */
    std::vector<SessionId> sessionIds() const;

    /** Sessions admitted and not yet evicted. */
    std::size_t activeSessions() const;

    /** Statistics of @p id (zeroes for unknown sessions). */
    SessionStats sessionStats(SessionId id) const;

  private:
    std::shared_ptr<detail::Session> find(SessionId id) const;
    void pollSession(detail::Session &s,
                     std::chrono::steady_clock::time_point now);
    void coordinatorLoop();
    std::chrono::steady_clock::time_point now() const;

    const ServingOptions opts_;
    const std::uint64_t uid_; //!< Process-wide; keys the submit cache.

    mutable std::mutex sessionsMu_;
    std::unordered_map<SessionId, std::shared_ptr<detail::Session>>
        sessions_;
    SessionId nextId_ = 1;

    std::mutex coordMu_;
    std::condition_variable coordCv_;
    bool stopping_ = false;
    std::thread coordinator_;
};

/** Human-readable submit status ("accepted", "backpressure", ...). */
const char *submitStatusName(SubmitStatus status);

} // namespace repro::serving

#endif // REPRO_SERVING_SERVING_RUNTIME_H

/**
 * @file
 * The STATS protocol, one chunk at a time: the one native
 * implementation that both the batch runtime and the serving pipeline
 * run.
 *
 * The paper's execution model runs one sequence per chunk.  The
 * alternative producer replays the K inputs before the chunk to build
 * a speculative entry state; the body runs speculatively from it and
 * is split at end-K, where the snapshot that seeds the boundary's
 * original-state replicas is cloned; R-1 replicas are regenerated from
 * that snapshot; and an ordered check compares the next chunk's
 * speculative entry state first with the committed final state, then
 * with each replica.  A match commits the speculative products; no
 * match aborts and re-executes the chunk from the committed final
 * state.
 *
 * StatsProtocol owns every one of those steps, the committed products
 * they hand on, each step's RNG stream, and each step's
 * instrumentation.  Two callers order the steps:
 *
 *  - NativeRuntime::run (core/native_runtime.h) knows every boundary
 *    up front (n*c/C) and runs the steps as a dependency graph on
 *    util::TaskGraphExecutor, growing each boundary's replicas eagerly
 *    from the chunk's speculative snapshot (growReplica);
 *  - serving::SessionPipeline (serving/session_pipeline.h) learns its
 *    boundaries one chunk at a time and runs the steps in order,
 *    growing replicas from the committed snapshot (regrowReplicas).
 *
 * Determinism: every step's RNG stream derives from the base seed and
 * a chunk index alone, exactly as Engine::runStats derives it.
 * Outputs, commit decisions, and abort counts are therefore a pure
 * function of (model, seed, chunk boundaries, K and R per chunk),
 * whichever caller scheduled the steps.  An eager replica equals the
 * one the committed snapshot gives whenever its chunk committed (the
 * committed snapshot *is* the speculative one); when the chunk was
 * re-executed instead, NativeRuntime::run regrows its replicas from the
 * re-executed snapshot with the same streams.
 *
 * Instrumentation: each step is one obs span and, when metrics are on,
 * one sample of its runtime.* latency histogram, both taken from the
 * same two timestamps.  The protocol counters (commits, aborts,
 * compares and their match split, replica regenerations, state copies)
 * tick here for both callers.  The spans are the only record of a
 * run: measuredTrace() rebuilds a batch run's §V-B task graph from
 * them after the fact, with the protocol's dependency edges.  None of
 * it changes a result.
 *
 * Threading: steps of different chunks may run concurrently as long as
 * the caller follows the data flow — a chunk's tail after its head, a
 * replica after its source snapshot exists — while commitFirst,
 * regrowReplicas and resolve run one at a time in program order (they
 * own the committed products).  regrowReplicas grows its replicas one
 * after another on the calling thread: each replays only the chunk's
 * last K inputs, so a boundary's regrowth is (R-1)*K updates, and each
 * replica draws from its own stream, so no order could change a
 * result.
 */

#ifndef REPRO_CORE_STATS_PROTOCOL_H
#define REPRO_CORE_STATS_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/state_model.h"
#include "obs/span.h"
#include "trace/measured_trace.h"
#include "trace/task.h"
#include "util/rng.h"

namespace repro::core {

/**
 * Runs updates [from, to) of @p model on @p state, drawing from and
 * advancing @p rng, with every update charged to @p kind (ChunkBody,
 * AltProducer, OriginalStateGen or MispecReExec).  Writes output i to
 * outs[i - from] when @p outs is non-null.
 */
void runUpdates(const IStateModel &model, State &state, std::size_t from,
                std::size_t to, util::Rng &rng, double *outs,
                trace::TaskKind kind);

/** One chunk's speculative products and, once its boundary resolved,
 *  its committed outputs. */
struct ChunkRun
{
    ChunkRun(unsigned index, std::size_t begin, std::size_t end,
             unsigned altWindowK);

    unsigned index;         //!< Position in the stream.
    std::size_t begin;      //!< First input.
    std::size_t snap;       //!< Snapshot point: max(begin, end - K).
    std::size_t end;        //!< One past the last input.
    unsigned altWindowK;    //!< Inputs the alternative producer replays.
    std::vector<double> outputs; //!< Speculative, then committed.
    bool aborted = false;   //!< Re-executed after its check failed.

    StateHandle specEntry;  //!< Alternative-producer output (index > 0).
    StateHandle working;    //!< Body state between head and tail.
    std::shared_ptr<const State> snapshot; //!< Body state at snap.
    StateHandle finalState; //!< End state of the speculative body.
    util::Rng bodyRng{0};   //!< Carried from head to tail.

    /** Step durations, kept to attribute an abort's wasted work. */
    double altSeconds = 0.0;
    double bodySeconds = 0.0;
};

/** The R-1 original-state replicas of one boundary. */
struct Replicas
{
    explicit Replicas(std::size_t count = 0)
        : states(count), seconds(count, 0.0)
    {
    }

    std::vector<StateHandle> states;
    std::vector<double> seconds; //!< Regeneration time of each.
};

/**
 * The per-chunk protocol steps over one input stream, plus the
 * committed products that connect consecutive chunks.
 */
class StatsProtocol
{
  public:
    /**
     * @param model State dependence; must outlive the protocol.
     * @param seed Base seed every stream is split from.
     */
    StatsProtocol(const IStateModel &model, std::uint64_t seed);

    /** Session id and parent span the following steps' spans carry
     *  (zeroes: batch, recorded as roots). */
    void
    setTraceContext(std::uint64_t session, std::uint64_t parent_span)
    {
        session_ = session;
        parent_ = parent_span;
    }

    /** Alternative producer (index > 0; chunk 0 starts from the
     *  initial state), body up to the snapshot point, and the snapshot
     *  clone.  Panics unless the chunk ends within the model's input
     *  range. */
    void speculateHead(ChunkRun &chunk) const;

    /** Body after the snapshot point.  Requires speculateHead. */
    void speculateTail(ChunkRun &chunk) const;

    /** Grows replica @p rep of the boundary after @p chunk from the
     *  chunk's own snapshot into out.states[rep].  Requires
     *  speculateHead(chunk). */
    void growReplica(const ChunkRun &chunk, unsigned rep,
                     Replicas &out) const;

    /** Grows every replica of the boundary after the committed chunk
     *  from the committed snapshot, in order on the calling thread,
     *  replacing (and recording as wasted) any already in @p out. */
    void regrowReplicas(Replicas &out) const;

    /** Commits chunk 0, which is never speculative.  Requires both
     *  speculate steps. */
    void commitFirst(ChunkRun &chunk);

    /**
     * The boundary before @p next: the ordered check of its
     * speculative entry state against the committed final state, then
     * each of @p replicas; then commit, or abort and re-execute.
     * Either way @p next becomes the committed chunk and its outputs
     * are final.  Releases @p replicas.
     *
     * @return Whether the speculation committed.
     */
    bool resolve(ChunkRun &next, Replicas &replicas);

    /** Whether the committed chunk committed its speculative run, so
     *  replicas grown from that run's snapshot are valid. */
    bool committedSpeculatively() const { return committed_.speculative; }

    /** Whether a chunk has committed and not been released since. */
    bool hasCommitted() const { return committed_.finalState != nullptr; }

    /** Boundaries whose check accepted the speculation. */
    unsigned commits() const { return commits_; }

    /** Boundaries that aborted and re-executed. */
    unsigned aborts() const { return aborts_; }

    /** Drops the committed state and snapshot. */
    void releaseState();

  private:
    /** What the latest resolved chunk hands the next boundary. */
    struct Committed
    {
        StateHandle finalState;
        std::shared_ptr<const State> snapshot;
        unsigned chunk = 0;
        std::size_t snap = 0, end = 0; //!< Replica replay range.
        bool speculative = true;
    };

    void grow(unsigned boundary, unsigned rep, const State &source,
              std::size_t from, std::size_t to, Replicas &out) const;
    void adopt(ChunkRun &chunk);
    void reexecute(ChunkRun &chunk);
    void reportAbort(const ChunkRun &next, const Replicas &replicas,
                     bool matched_first, std::uint64_t abort_span,
                     double validate_seconds) const;
    StateHandle clone(const State &source) const;

    const IStateModel &model_;
    const util::Rng base_;
    const std::size_t stateBytes_;

    std::uint64_t session_ = 0;
    std::uint64_t parent_ = 0;

    Committed committed_;
    unsigned commits_ = 0;
    unsigned aborts_ = 0;
};

/**
 * Rebuilds the measured §V-B task graph of one batch run
 * (NativeRuntime::run with C > 1) from the spans its steps emitted.
 *
 * The window is every span of @p spans with session 0 and an id above
 * @p after_span_id (take obs::SpanRecorder::nextId() before the run,
 * pass snapshot().spans after it), in id order.  Ids are allocated
 * when a step starts, so every step has a higher id than the steps it
 * waited for.  Each step span becomes one task whose work is its
 * duration in microseconds, timed from the window's earliest start,
 * on the lane given by its recorder thread.  Clones are part of the
 * step that made them; commit and abort spans are markers:
 *
 *  - alt_producer of chunk c: AltProducer on logical thread 1+c;
 *  - chunk_body of chunk c (head, then tail): ChunkBody on thread
 *    1+c, MispecReExec when chunk c aborted;
 *  - replica_regen of boundary b, replica r: OriginalStateGen on a
 *    lane of its own, after chunk b's head.  When chunk b aborted the
 *    pair has two spans: the eager one is MispecReExec and the
 *    regrown one also waits for chunk b's reexec;
 *  - validation of chunk c: StateCompare on thread 0, after chunk
 *    c-1's committed final state (its tail, or its reexec), chunk c's
 *    alt_producer, and boundary c-1's live replicas;
 *  - reexec of chunk c: MispecReExec on thread 0.
 *
 * The edges mirror the schedule NativeRuntime::run executes, not just
 * the data flow, so a what-if replay keeps the runtime's constraints;
 * there is no global join.
 *
 * Dies (util::fatal) unless the window holds exactly one complete
 * run: tracing off, a single-chunk run, and a ring that wrapped inside
 * the window all leave steps missing.
 */
trace::MeasuredTrace measuredTrace(const std::vector<obs::Span> &spans,
                                   std::uint64_t after_span_id);

} // namespace repro::core

#endif // REPRO_CORE_STATS_PROTOCOL_H

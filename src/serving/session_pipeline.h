/**
 * @file
 * The STATS protocol of one serving session, fed chunk by chunk: the
 * incremental caller of the protocol core.
 *
 * NativeRuntime::run (core/native_runtime.h) knows every chunk
 * boundary up front because it has the whole input vector.  A serving
 * session learns its boundaries one at a time — the runtime closes a
 * chunk when it reaches the configured size or when its age exceeds
 * the session's latency budget — so it runs the protocol
 * incrementally.  processChunk() runs core::StatsProtocol's steps
 * (core/stats_protocol.h) in order for the newly closed chunk:
 * speculate it from the alternative producer, regenerate the previous
 * boundary's original-state replicas from the committed snapshot,
 * run the ordered commit check, and commit the speculative outputs or
 * re-execute from the committed state.
 *
 * Determinism contract: the core derives every RNG stream from the
 * seed and the chunk index alone, so for a fixed (model, seed) and a
 * fixed *closure trace* (the sequence of chunk sizes) the outputs,
 * commit decisions, and abort count are a pure function of that trace
 * — independent of wall-clock timing, of which closure mechanism
 * (size, deadline, drain, manual) produced each boundary, and of how
 * many sessions share the pool.  When the trace matches the batch
 * boundaries (inputs split n*c/C) the outputs are bit-identical to
 * NativeRuntime::run and Engine::runStats for the same (model,
 * config, seed) — the oracle tests in tests/serving pin this.
 *
 * One structural difference from batch remains, and it cannot change
 * outputs: replicas always regrow from the *committed* snapshot.  The
 * batch runtime grows them eagerly from the speculative snapshot, which
 * is the committed snapshot whenever the chunk committed, and regrows
 * them from the committed one with the same streams when it did not.
 *
 * Threading: a pipeline instance is single-strand — the serving
 * runtime guarantees at most one processChunk() call is in flight per
 * session, and every step of a call, replica regeneration included,
 * runs on the calling thread.  Parallelism comes from running many
 * sessions at once, which is the serving runtime's job.
 */

#ifndef REPRO_SERVING_SESSION_PIPELINE_H
#define REPRO_SERVING_SESSION_PIPELINE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/stats_protocol.h"

namespace repro::serving {

/**
 * Incremental executor of the STATS protocol over one input stream.
 */
class SessionPipeline
{
  public:
    /** The per-dependence STATS parameters a session carries (the
     *  chunk length is not here — it is the closure trace). */
    struct Config
    {
        /** Inputs the alternative producer replays before a chunk
         *  (>= 1; clamped to the stream start for very early
         *  chunks). */
        unsigned altWindowK = 2;

        /** Original states per boundary including the chunk's own
         *  final state (>= 1); R-1 replicas are regenerated. */
        unsigned numOriginalStates = 1;
    };

    /** Outcome of one processed chunk. */
    struct ChunkResult
    {
        unsigned chunkIndex = 0;  //!< 0-based position in the stream.
        std::size_t firstInput = 0; //!< Stream index of outputs[0].
        bool aborted = false;     //!< Commit check rejected; outputs
                                  //!< are from the re-execution.
        std::vector<double> outputs; //!< One per input of the chunk.
    };

    /**
     * @param model State dependence; must outlive the pipeline.
     * @param config STATS parameters of this session.
     * @param seed Base seed — the same value an equivalent batch
     *        NativeRuntime::run would be given.
     */
    SessionPipeline(const core::IStateModel &model, Config config,
                    std::uint64_t seed);

    /**
     * Runs the protocol over the next @p count inputs of the stream
     * (indices [nextInput(), nextInput() + count)) as one closed
     * chunk.  Panics unless count >= 1 and the chunk stays within
     * the model's input range.
     */
    ChunkResult processChunk(std::size_t count);

    /**
     * Swaps the STATS parameters at the current chunk boundary: the
     * next processChunk call runs with @p config.  Must only be called
     * between processChunk calls (the serving strand guarantees this),
     * which preserves the determinism contract — every RNG stream is
     * derived from the chunk *index*, never from K or R, so a run is a
     * pure function of (model, seed, closure trace, knob trace) and a
     * recorded knob trace replays bit-identically.
     */
    void reconfigure(Config config);

    /** The STATS parameters the next chunk will run with. */
    const Config &config() const { return cfg_; }

    /** Stream index the next chunk starts at. */
    std::size_t nextInput() const { return nextInput_; }

    /** Chunks processed so far (== the next chunk's index). */
    unsigned chunksProcessed() const { return chunkIndex_; }

    /**
     * Trace identity the next processChunk() call records its spans
     * under: the serving session id and the strand's chunk-process
     * span (obs/span_recorder.h).  Zeroes (the default) mean "batch /
     * untraced caller" — spans still record, as roots.  Purely
     * observational: never changes outputs.
     */
    void
    setTraceContext(std::uint64_t session, std::uint64_t parentSpan)
    {
        protocol_.setTraceContext(session, parentSpan);
    }

    /** Boundaries whose commit check accepted the speculation. */
    unsigned commits() const { return protocol_.commits(); }

    /** Boundaries that aborted and re-executed. */
    unsigned aborts() const { return protocol_.aborts(); }

    /**
     * Releases the committed state and snapshot (BlockArena payloads
     * drop their references).  Called at session eviction; the
     * pipeline must not process further chunks afterwards.
     */
    void releaseState();

  private:
    Config cfg_; //!< Mutable only through reconfigure(), at boundaries.
    core::StatsProtocol protocol_; //!< Owns the committed products.
    std::size_t nextInput_ = 0;
    unsigned chunkIndex_ = 0;
};

} // namespace repro::serving

#endif // REPRO_SERVING_SESSION_PIPELINE_H

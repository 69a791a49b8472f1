/**
 * @file
 * The span vocabulary of the tracing subsystem: fixed-size POD records
 * describing one timed step of the serving / batch protocol, causally
 * linked by parent ids.
 *
 * The aggregate metrics (metrics/metrics.h) answer "how much"; spans
 * answer "which one".  Every span carries the session, chunk, and
 * input-range identifiers of the work it timed plus the id of the
 * span that caused it, so a chunk's life — closure (timed from its
 * oldest input's submit), speculation, validation, commit or abort
 * and re-execution, callback — is reconstructable from a
 * flight-recorder dump after the fact.  Spans are per chunk, never
 * per input: span counts are a function of the closure trace, and
 * per-input latency lives in serving.e2e_latency_seconds.
 *
 * Spans are plain trivially-copyable structs: the recorder
 * (obs/span_recorder.h) stores them in fixed per-thread rings with no
 * allocation on the hot path.
 */

#ifndef REPRO_OBS_SPAN_H
#define REPRO_OBS_SPAN_H

#include <cstdint>

namespace repro::obs {

/** What a span timed.  Names mirror the protocol steps (and, where
 *  one exists, the trace::TaskKind the step is charged to). */
enum class SpanKind : std::uint8_t {
    ChunkClose,   //!< Chunk closure (size or deadline), timed from
                  //!< its oldest input's submit.
    ChunkProcess, //!< Strand processing one closed chunk end to end.
    AltProducer,  //!< Alternative-producer replay of K inputs.
    ChunkBody,    //!< Speculative chunk body execution.
    ReplicaRegen, //!< One original-state replica regeneration.
    Validation,   //!< Commit check: spec entry vs committed/replicas.
    Commit,       //!< Boundary resolved by a match.
    Abort,        //!< Boundary mispeculated (no candidate matched).
    ReExec,       //!< Sequential re-execution after an abort.
    Callback,     //!< Result delivery to the session's callback.
    AdaptDecision, //!< Feedback-controller decision for one window.
    FlightDump,   //!< Flight-recorder dump written.
    NumKinds
};

/** Stable lower-case name of @p kind ("chunk_close", "abort", ...). */
const char *spanKindName(SpanKind kind);

/** One recorded step.  Ids are process-unique and monotone; 0 is
 *  "none" for both id (invalid span) and parent (root). */
struct Span
{
    std::uint64_t id = 0;     //!< Process-unique, 0 = invalid slot.
    std::uint64_t parent = 0; //!< Causing span, 0 = root.
    std::uint64_t session = 0; //!< Serving session id, 0 = batch/none.
    std::int64_t chunk = -1;   //!< Chunk / boundary index, -1 = n/a.
    std::int64_t firstInput = -1; //!< Stream index of first input.
    std::uint32_t inputCount = 0; //!< Inputs covered by the span.
    std::uint32_t thread = 0;     //!< Recorder thread slot.
    SpanKind kind = SpanKind::ChunkClose;
    std::uint64_t startNs = 0; //!< steady_clock nanos at start().
    std::uint64_t endNs = 0;   //!< steady_clock nanos at finish().
    /** Kind-specific payload: replica index for ReplicaRegen, matched
     *  candidate for Commit (-1 committed final, >=0 replica), window
     *  id for AdaptDecision, dump sequence for FlightDump; -1 = n/a. */
    std::int64_t detail = -1;
};

} // namespace repro::obs

#endif // REPRO_OBS_SPAN_H

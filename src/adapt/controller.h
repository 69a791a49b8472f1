/**
 * @file
 * Online feedback autotuning: the live-metrics controller.
 *
 * STATS picks its alternative-producer window K, original-state count
 * R and chunk length offline (autotuner/tuner.h).  The chunk length
 * goes stale the moment traffic shifts: each boundary costs an
 * alternative-producer replay of K inputs per original state, plus
 * clones and comparisons, amortized over chunks sized for another
 * arrival rate.  FeedbackController closes that loop at runtime: it
 * consumes windowed deltas of the live metrics::MetricsRegistry and
 * doubles or halves the chunk length.  Like Prophet's runtime
 * cost/benefit decisions for speculative threads (PAPERS.md), it
 * prices only what it measures: per-input seconds, abort fraction and
 * arrival rate, calibrated from each window and fed to the per-chunk
 * cost categories the DES engine and the tuner's Objective price
 * (the runtime-prediction shape of SNIPPETS.md #3).
 *
 * The controller moves the chunk length only.  Every decision carries
 * the K and R of ControllerConfig::initial (after clamping);
 * serving::ServingRuntime::retune() still moves them by hand.
 *
 * Three hysteresis guards keep it from flapping: the first
 * kWarmupWindows windows only calibrate; ControllerConfig::dwellWindows
 * windows must pass after a decision before the next one; and a move
 * must predict a relative gain of at least kDeadband.
 * adapt.dwell_violations counts decisions applied inside a dwell; by
 * construction it stays zero, and the serving-adaptor tests gate on it.
 *
 * Every decision applies; a caller freezes the chunk length by pinning
 * it (minKnobs.chunkInputs == maxKnobs.chunkInputs).  The serving
 * runtime lands each decision at a session's next chunk boundary, so a
 * serving run stays a pure function of (model, seed, closure trace,
 * knob trace), and a fresh SessionPipeline fed the same closure trace
 * reproduces it bit for bit.
 */

#ifndef REPRO_ADAPT_CONTROLLER_H
#define REPRO_ADAPT_CONTROLLER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "serving/serving_runtime.h"
#include "util/histogram.h"

namespace repro::adapt {

/**
 * Controller parameters (see the file comment for the loop).  The three
 * knob fields stay whole serving::SessionTuning values, the shape their
 * callers (perfbench's serve-spike among them) already fill in.  The
 * chunk halves of minKnobs and maxKnobs bound the chunk lengths the
 * controller explores; their K and R halves only clamp initial.
 */
struct ControllerConfig
{
    /** Starting knobs, clamped into [minKnobs, maxKnobs].  Their K and
     *  R are the K and R of every decision. */
    serving::SessionTuning initial;

    /** Per-knob lower bounds. */
    serving::SessionTuning minKnobs{4, 1, 1};

    /** Per-knob upper bounds. */
    serving::SessionTuning maxKnobs{512, 16, 4};

    /** Observation windows to hold after a decision before the next
     *  decision may fire (the dwell guard). */
    unsigned dwellWindows = 2;

    /** Per-input latency budget the serving session runs under; used
     *  to stop chunk growth past the point where deadline closure
     *  would cut chunks anyway.  0 disables latency shaping
     *  (pure-throughput scoring). */
    double latencyBudgetSeconds = 0.0;
};

/**
 * One observation window: deltas of the live metrics over the window
 * (MetricsRegistry::snapshotDelta), plus instantaneous context.
 */
struct WindowObservation
{
    double seconds = 0.0;              //!< Window wall-clock length.
    std::uint64_t chunksProcessed = 0; //!< Chunks resolved in window.
    std::uint64_t inputsProcessed = 0; //!< Inputs those chunks held.
    std::uint64_t aborts = 0;          //!< Chunks that re-executed.
    std::uint64_t inputsSubmitted = 0;
    std::uint64_t inputsRejected = 0;  //!< Backpressure in the window.
    double chunkSeconds = 0.0;      //!< Sum of chunk process times.
    double queueDepthP99 = 0.0;     //!< Inputs pending at closure, p99.
    unsigned sessions = 1;          //!< Live sessions sharing traffic.
};

/** One controller decision; each session lands it at its own next
 *  chunk boundary.  from and to differ in chunkInputs only. */
struct Decision
{
    std::uint64_t window = 0; //!< Observation window that decided.
    serving::SessionTuning from;
    serving::SessionTuning to;
    int direction = 0;          //!< +1 doubles the chunk, -1 halves it.
    double predictedGain = 0.0; //!< Relative per-input cost reduction.
    bool applied = true;        //!< Always true: every decision applies.
};

/**
 * The feedback loop.  Single-threaded by contract: one owner calls
 * observe() per window (the serving adaptor serializes its ticks).
 */
class FeedbackController
{
  public:
    /** Minimum predicted relative cost improvement for a step (the
     *  deadband guard). */
    static constexpr double kDeadband = 0.05;

    /** Observation windows consumed before the first decision may
     *  fire (the model needs calibration samples). */
    static constexpr unsigned kWarmupWindows = 2;

    explicit FeedbackController(ControllerConfig config);

    /**
     * Feeds one observation window; returns the decision it produced,
     * if any.  A decision moves current() to its target knobs.
     */
    std::optional<Decision> observe(const WindowObservation &obs);

    /** Knobs the controller currently prescribes. */
    const serving::SessionTuning &current() const { return current_; }

    /** Every decision so far, in order (the replay trace). */
    const std::vector<Decision> &decisions() const { return decisions_; }

    /** Observation windows consumed. */
    std::uint64_t windows() const { return windows_; }

    /** Decisions applied while a dwell was pending (invariant: 0). */
    std::uint64_t dwellViolations() const { return dwellViolations_; }

  private:
    double costPerInput(std::size_t chunkInputs, double b,
                        bool saturated) const;

    const ControllerConfig cfg_;
    serving::SessionTuning current_;
    std::vector<Decision> decisions_;

    std::uint64_t windows_ = 0;
    unsigned dwellRemaining_ = 0;
    std::uint64_t dwellViolations_ = 0;

    // Calibrated model terms (EWMA across windows; the decision itself
    // uses the median of the per-window samples accumulated since the
    // previous decision — util::Histogram::windowedSnapshot — which is
    // robust to scheduler noise a single window can carry).
    bool calibrated_ = false;
    double perInput_ = 0.0;
    double abortFrac_ = 0.0;
    double arrivalPerSession_ = 0.0;
    util::Histogram perInputWindow_{0.0, 0.1, 2000};

    // Last exported chunk gauge value (gauges are delta-driven).
    std::int64_t gaugeChunk_ = 0;
};

} // namespace repro::adapt

#endif // REPRO_ADAPT_CONTROLLER_H

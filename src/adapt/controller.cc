#include "adapt/controller.h"

#include <algorithm>

#include "metrics/metrics.h"
#include "util/log.h"

namespace repro::adapt {

namespace {

using serving::SessionTuning;

/** adapt.* instruments, resolved once (registry lookups lock). */
struct AdaptMetrics
{
    metrics::Counter &windows;        //!< Observation windows consumed.
    metrics::Counter &decisions;      //!< Decisions produced (all apply).
    metrics::Counter &stepUp;         //!< Applied chunk doublings.
    metrics::Counter &stepDown;       //!< Applied chunk halvings.
    metrics::Counter &dwellViolations; //!< Applied inside a dwell (== 0).
    metrics::Gauge &chunkInputs;      //!< Currently prescribed chunk.
};

AdaptMetrics &
adaptMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static AdaptMetrics m{
        reg.counter("adapt.windows"),
        reg.counter("adapt.decisions"),
        reg.counter("adapt.step_up"),
        reg.counter("adapt.step_down"),
        reg.counter("adapt.dwell_violations"),
        reg.gauge("adapt.chunk_inputs"),
    };
    return m;
}

/** Boundary overhead of one chunk in input-equivalents: the alt
 *  producer replays K inputs per original state regenerated (the
 *  chunk's own entry replay plus K per extra replica), and the clones
 *  plus commit-check comparisons cost a small fixed amount.  The same
 *  categories the DES engine prices per chunk, collapsed to the
 *  model.update unit the controller calibrates. */
double
overheadInputs(const SessionTuning &t)
{
    constexpr double kFixedInputs = 3.0; // clones + compares + dispatch
    return static_cast<double>(t.altWindowK) *
               static_cast<double>(t.numOriginalStates) +
           kFixedInputs;
}

/** Smoothing of the calibrated model terms. */
constexpr double kEwmaAlpha = 0.4;

void
ewma(double &acc, double sample, bool &seeded)
{
    acc = seeded ? (1.0 - kEwmaAlpha) * acc + kEwmaAlpha * sample
                 : sample;
    seeded = true;
}

/** @p cfg's initial knobs, each clamped into [minKnobs, maxKnobs]. */
SessionTuning
clampedInitial(const ControllerConfig &cfg)
{
    SessionTuning t = cfg.initial;
    t.chunkInputs = std::clamp(t.chunkInputs, cfg.minKnobs.chunkInputs,
                               cfg.maxKnobs.chunkInputs);
    t.altWindowK = std::clamp(t.altWindowK, cfg.minKnobs.altWindowK,
                              cfg.maxKnobs.altWindowK);
    t.numOriginalStates =
        std::clamp(t.numOriginalStates, cfg.minKnobs.numOriginalStates,
                   cfg.maxKnobs.numOriginalStates);
    return t;
}

} // namespace

FeedbackController::FeedbackController(ControllerConfig config)
    : cfg_(std::move(config)), current_(clampedInitial(cfg_))
{
    REPRO_ASSERT(cfg_.minKnobs.chunkInputs >= 1 &&
                     cfg_.minKnobs.altWindowK >= 1 &&
                     cfg_.minKnobs.numOriginalStates >= 1,
                 "knob lower bounds must be >= 1");
    // Export the starting point; later moves are deltas against it.
    auto &m = adaptMetrics();
    gaugeChunk_ = static_cast<std::int64_t>(current_.chunkInputs);
    m.chunkInputs.add(gaugeChunk_ - m.chunkInputs.value());
}

double
FeedbackController::costPerInput(std::size_t chunkInputs, double b,
                                 bool saturated) const
{
    double L = static_cast<double>(chunkInputs);
    // Unsaturated, with a latency budget: deadline closure caps the
    // inputs a chunk can actually gather at arrival * budget, so
    // growing the size threshold past that point buys nothing — score
    // the candidate at the chunk length it would *realize*.  Under
    // saturation the backlog fills chunks to the threshold regardless
    // of arrival pacing, so the threshold is the realized length.
    if (!saturated && cfg_.latencyBudgetSeconds > 0.0 &&
        arrivalPerSession_ > 0.0) {
        const double deadlineL = std::max(
            1.0, arrivalPerSession_ * cfg_.latencyBudgetSeconds);
        L = std::min(L, deadlineL);
    }
    // K and R never move, so the calibrated abort fraction is every
    // candidate's abort probability.
    const double pAbort = std::clamp(abortFrac_, 0.0, 0.95);
    // Per-input seconds: body work + boundary overhead amortized over
    // the chunk + expected re-execution of the whole chunk on abort.
    double cost = b * (L + overheadInputs(current_) + pAbort * L) / L;
    // Latency feasibility: when unsaturated, a chunk whose processing
    // time alone exceeds the budget defeats deadline closure — scale
    // the score by the overshoot so smaller chunks win.
    if (!saturated && cfg_.latencyBudgetSeconds > 0.0) {
        const double processSeconds =
            b * (L + overheadInputs(current_) + pAbort * L);
        if (processSeconds > cfg_.latencyBudgetSeconds)
            cost *= processSeconds / cfg_.latencyBudgetSeconds;
    }
    return cost;
}

std::optional<Decision>
FeedbackController::observe(const WindowObservation &obs)
{
    auto &m = adaptMetrics();
    ++windows_;
    m.windows.inc();

    // --- Calibration (every window, decision or not) ----------------
    if (obs.seconds > 0.0 && obs.sessions > 0) {
        const double arrival = static_cast<double>(obs.inputsSubmitted) /
                               obs.seconds /
                               static_cast<double>(obs.sessions);
        bool seeded = arrivalPerSession_ > 0.0;
        ewma(arrivalPerSession_, arrival, seeded);
    }
    const bool haveWork = obs.chunksProcessed > 0 &&
                          obs.inputsProcessed > 0 &&
                          obs.chunkSeconds > 0.0;
    if (haveWork) {
        const double chunks = static_cast<double>(obs.chunksProcessed);
        const double L =
            static_cast<double>(obs.inputsProcessed) / chunks;
        const double perChunkSeconds = obs.chunkSeconds / chunks;
        // Invert the cost model at the *current* knobs to recover the
        // per-input body seconds b from the measured chunk time.
        const double bSample =
            perChunkSeconds / (L + overheadInputs(current_));
        perInputWindow_.add(bSample);
        bool seeded = calibrated_;
        ewma(perInput_, bSample, seeded);
        calibrated_ = true;

        const double abortSample =
            static_cast<double>(obs.aborts) / chunks;
        bool abortSeeded = true;
        ewma(abortFrac_, std::min(abortSample, 1.0), abortSeeded);
    }

    // --- Hysteresis gates --------------------------------------------
    if (windows_ < kWarmupWindows || !calibrated_)
        return std::nullopt;
    if (dwellRemaining_ > 0) {
        --dwellRemaining_;
        return std::nullopt;
    }

    // Robust calibration for this decision: the median of the b
    // samples accumulated since the previous decision point.
    util::Histogram window = perInputWindow_.windowedSnapshot();
    const double b =
        window.total() > 0 ? window.quantile(0.5) : perInput_;
    if (b <= 0.0)
        return std::nullopt;

    const bool saturated =
        obs.inputsRejected > 0 ||
        obs.queueDepthP99 >
            2.0 * static_cast<double>(current_.chunkInputs);

    // --- Candidates: the chunk doubled, then halved, clamped -------
    const double curCost = costPerInput(current_.chunkInputs, b, saturated);
    if (curCost <= 0.0)
        return std::nullopt;
    std::size_t bestChunk = current_.chunkInputs;
    int bestDirection = 0;
    double bestCost = curCost;
    for (const int direction : {+1, -1}) {
        const std::size_t chunk = std::clamp(
            direction > 0 ? current_.chunkInputs * 2
                          : current_.chunkInputs / 2,
            cfg_.minKnobs.chunkInputs, cfg_.maxKnobs.chunkInputs);
        if (chunk == current_.chunkInputs)
            continue;
        const double cost = costPerInput(chunk, b, saturated);
        if (cost < bestCost) {
            bestCost = cost;
            bestChunk = chunk;
            bestDirection = direction;
        }
    }
    if (bestDirection == 0)
        return std::nullopt;
    const double gain = (curCost - bestCost) / curCost;
    if (gain < kDeadband)
        return std::nullopt;

    // --- Decide -------------------------------------------------------
    Decision d;
    d.window = windows_;
    d.from = current_;
    d.to = current_;
    d.to.chunkInputs = bestChunk;
    d.direction = bestDirection;
    d.predictedGain = gain;
    m.decisions.inc();
    if (dwellRemaining_ != 0) {
        // Unreachable by construction (the dwell gate returned above);
        // counted, exported, and test-gated as an invariant.
        ++dwellViolations_;
        m.dwellViolations.inc();
    }
    current_ = d.to;
    (d.direction > 0 ? m.stepUp : m.stepDown).inc();
    const auto chunk = static_cast<std::int64_t>(current_.chunkInputs);
    m.chunkInputs.add(chunk - gaugeChunk_);
    gaugeChunk_ = chunk;
    dwellRemaining_ = cfg_.dwellWindows;
    decisions_.push_back(d);
    return d;
}

} // namespace repro::adapt

#include "adapt/controller.h"

#include <algorithm>
#include <cmath>
#include <string_view>

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
    metrics::Counter &stepUp;         //!< Applied knob growths.
    metrics::Counter &stepDown;       //!< Applied knob shrinks.
    metrics::Counter &dwellViolations; //!< Applied inside a dwell (== 0).
    metrics::Gauge &chunkInputs;      //!< Currently prescribed knobs.
    metrics::Gauge &altWindowK;
    metrics::Gauge &numOriginalStates;
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
        reg.gauge("adapt.alt_window_k"),
        reg.gauge("adapt.num_original_states"),
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

} // namespace

FeedbackController::FeedbackController(ControllerConfig config)
    : cfg_(std::move(config)), current_(clampKnobs(cfg_.initial))
{
    REPRO_ASSERT(cfg_.minKnobs.chunkInputs >= 1 &&
                     cfg_.minKnobs.altWindowK >= 1 &&
                     cfg_.minKnobs.numOriginalStates >= 1,
                 "knob lower bounds must be >= 1");
    REPRO_ASSERT(cfg_.deadband >= 0.0, "deadband must be >= 0");
    // Export the starting point; later moves are deltas against it.
    auto &m = adaptMetrics();
    gaugeChunk_ = static_cast<std::int64_t>(current_.chunkInputs);
    gaugeK_ = static_cast<std::int64_t>(current_.altWindowK);
    gaugeR_ = static_cast<std::int64_t>(current_.numOriginalStates);
    m.chunkInputs.add(gaugeChunk_ - m.chunkInputs.value());
    m.altWindowK.add(gaugeK_ - m.altWindowK.value());
    m.numOriginalStates.add(gaugeR_ - m.numOriginalStates.value());
}

serving::SessionTuning
FeedbackController::clampKnobs(const SessionTuning &tuning) const
{
    SessionTuning t = tuning;
    t.chunkInputs = std::clamp(t.chunkInputs, cfg_.minKnobs.chunkInputs,
                               cfg_.maxKnobs.chunkInputs);
    t.altWindowK = std::clamp(t.altWindowK, cfg_.minKnobs.altWindowK,
                              cfg_.maxKnobs.altWindowK);
    t.numOriginalStates =
        std::clamp(t.numOriginalStates, cfg_.minKnobs.numOriginalStates,
                   cfg_.maxKnobs.numOriginalStates);
    return t;
}

double
FeedbackController::abortProbability(const SessionTuning &tuning) const
{
    // Calibrated abort fraction, shifted by how the candidate moves
    // the two knobs that control it.  Growing the lookahead K gives
    // the alternative producer more inputs to converge over (the
    // short-memory property), so each +1 multiplies the residual
    // mismatch probability by a decay factor; extra original-state
    // replicas catch mismatches the first state misses, priced by the
    // measured share of commit checks where only a replica matched.
    constexpr double kLookaheadDecay = 0.6;
    double p = abortFrac_;
    const int dK = static_cast<int>(tuning.altWindowK) -
                   static_cast<int>(current_.altWindowK);
    p *= std::pow(kLookaheadDecay, dK);
    const double share = std::clamp(replicaShare_, 0.0, 0.9);
    const int dR = static_cast<int>(tuning.numOriginalStates) -
                   static_cast<int>(current_.numOriginalStates);
    p *= std::pow(1.0 - share, dR);
    return std::clamp(p, 0.0, 0.95);
}

double
FeedbackController::costPerInput(const SessionTuning &tuning, double b,
                                 bool saturated) const
{
    double L = static_cast<double>(tuning.chunkInputs);
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
    const double pAbort = abortProbability(tuning);
    // Per-input seconds: body work + boundary overhead amortized over
    // the chunk + expected re-execution of the whole chunk on abort.
    double cost = b * (L + overheadInputs(tuning) + pAbort * L) / L;
    // Latency feasibility: when unsaturated, a chunk whose processing
    // time alone exceeds the budget defeats deadline closure — scale
    // the score by the overshoot so smaller chunks win.
    if (!saturated && cfg_.latencyBudgetSeconds > 0.0) {
        const double processSeconds =
            b * (L + overheadInputs(tuning) + pAbort * L);
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

        const std::uint64_t nonFirst = obs.matchReplica + obs.matchNone;
        if (nonFirst > 0) {
            bool shareSeeded = true;
            ewma(replicaShare_,
                 static_cast<double>(obs.matchReplica) /
                     static_cast<double>(nonFirst),
                 shareSeeded);
        }
        quietWindows_ = obs.aborts == 0 ? quietWindows_ + 1 : 0;
    }

    // --- Hysteresis gates --------------------------------------------
    if (windows_ < cfg_.warmupWindows || !calibrated_)
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

    // --- Candidate neighborhood (one bounded step per knob) ----------
    struct Candidate
    {
        SessionTuning tuning;
        const char *knob;
        int direction;
    };
    std::vector<Candidate> candidates;
    const auto push = [&](SessionTuning t, const char *knob, int dir) {
        t = clampKnobs(t);
        if (t != current_)
            candidates.push_back({t, knob, dir});
    };
    {
        SessionTuning t = current_;
        t.chunkInputs = current_.chunkInputs * 2;
        push(t, "chunk", +1);
    }
    {
        SessionTuning t = current_;
        t.chunkInputs = std::max<std::size_t>(1, current_.chunkInputs / 2);
        push(t, "chunk", -1);
    }
    {
        SessionTuning t = current_;
        t.altWindowK = current_.altWindowK + 1;
        push(t, "lookahead", +1);
    }
    if (quietWindows_ >= cfg_.kShrinkQuietWindows &&
        current_.altWindowK > cfg_.minKnobs.altWindowK) {
        SessionTuning t = current_;
        t.altWindowK = current_.altWindowK - 1;
        push(t, "lookahead", -1);
    }
    if (abortFrac_ > 0.01) {
        // Replicas only help when commit checks actually fail.
        SessionTuning t = current_;
        t.numOriginalStates = current_.numOriginalStates + 1;
        push(t, "replicas", +1);
    }
    if (current_.numOriginalStates > cfg_.minKnobs.numOriginalStates &&
        replicaShare_ < 0.05) {
        // Replicas almost never match: their K-per-boundary regen cost
        // is pure overhead.
        SessionTuning t = current_;
        t.numOriginalStates = current_.numOriginalStates - 1;
        push(t, "replicas", -1);
    }

    const double curCost = costPerInput(current_, b, saturated);
    if (curCost <= 0.0 || candidates.empty())
        return std::nullopt;
    const Candidate *best = nullptr;
    double bestCost = curCost;
    for (const Candidate &cand : candidates) {
        const double cost = costPerInput(cand.tuning, b, saturated);
        if (cost < bestCost) {
            bestCost = cost;
            best = &cand;
        }
    }
    if (best == nullptr)
        return std::nullopt;
    const double gain = (curCost - bestCost) / curCost;
    if (gain < cfg_.deadband)
        return std::nullopt;

    // --- Decide -------------------------------------------------------
    Decision d;
    d.window = windows_;
    d.from = current_;
    d.to = best->tuning;
    d.knob = best->knob;
    d.direction = best->direction;
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
    const auto k = static_cast<std::int64_t>(current_.altWindowK);
    const auto r = static_cast<std::int64_t>(current_.numOriginalStates);
    m.chunkInputs.add(chunk - gaugeChunk_);
    m.altWindowK.add(k - gaugeK_);
    m.numOriginalStates.add(r - gaugeR_);
    gaugeChunk_ = chunk;
    gaugeK_ = k;
    gaugeR_ = r;
    // A shrink of K resets the quiet streak: the evidence that
    // justified it was spent.
    if (best->direction < 0 && std::string_view(best->knob) == "lookahead")
        quietWindows_ = 0;
    dwellRemaining_ = cfg_.dwellWindows;
    decisions_.push_back(d);
    return d;
}

} // namespace repro::adapt

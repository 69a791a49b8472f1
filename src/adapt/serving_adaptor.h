/**
 * @file
 * The glue between the feedback controller and the live serving
 * runtime: snapshot the metrics registry once per window, hand the
 * windowed delta to the controller, broadcast each decision to every
 * session.
 *
 * ServingAdaptor owns a rolling MetricsSnapshot: each tick() computes
 * the delta since the previous tick (metrics::snapshotDiff), folds the
 * serving.* instruments into one WindowObservation, and feeds the
 * controller.  When a decision comes back, it calls
 * ServingRuntime::retuneAll — every session lands the swap at its own
 * next chunk boundary, so no protocol step ever sees a mid-chunk knob
 * change.
 *
 * The owner calls tick() once per window, on a thread of its own
 * choosing (perfbench's serve-spike ticks on its load generator, so the
 * adaptive loop costs no extra thread).  Ticks are serialized by a
 * mutex; the controller itself stays single-threaded.
 */

#ifndef REPRO_ADAPT_SERVING_ADAPTOR_H
#define REPRO_ADAPT_SERVING_ADAPTOR_H

#include <chrono>
#include <functional>
#include <mutex>
#include <optional>

#include "adapt/controller.h"
#include "metrics/metrics.h"
#include "serving/serving_runtime.h"

namespace repro::adapt {

/** Feeds live serving metrics to a FeedbackController. */
class ServingAdaptor
{
  public:
    struct Options
    {
        ControllerConfig controller;

        /** Clock used to measure window lengths; null = steady clock
         *  (injectable for deterministic tests). */
        std::function<std::chrono::steady_clock::time_point()> clock;
    };

    /** @param runtime Must outlive the adaptor. */
    ServingAdaptor(serving::ServingRuntime &runtime, Options options);

    ServingAdaptor(const ServingAdaptor &) = delete;
    ServingAdaptor &operator=(const ServingAdaptor &) = delete;

    /**
     * One observation window: delta the registry since the last tick,
     * run the controller, broadcast its decision.  Returns the
     * decision, if any.
     */
    std::optional<Decision> tick();

    /** The wrapped controller (decision trace, calibration state). */
    const FeedbackController &controller() const { return controller_; }

  private:
    std::chrono::steady_clock::time_point now() const;

    serving::ServingRuntime &runtime_;
    const Options opts_;

    std::mutex mu_; //!< Serializes ticks.
    FeedbackController controller_;
    metrics::MetricsSnapshot prev_;
    std::chrono::steady_clock::time_point lastTick_;
};

} // namespace repro::adapt

#endif // REPRO_ADAPT_SERVING_ADAPTOR_H

#include "adapt/serving_adaptor.h"

#include <algorithm>

#include "obs/span_recorder.h"

namespace repro::adapt {

namespace {

/** Folds the serving.* slice of one windowed registry delta into the
 *  controller's observation shape. */
WindowObservation
foldServingWindow(const metrics::MetricsSnapshot &delta, double seconds,
                  unsigned sessions)
{
    WindowObservation obs;
    obs.seconds = seconds;
    obs.aborts = delta.counterValue("serving.chunks_aborted");
    obs.chunksProcessed =
        delta.counterValue("serving.chunks_committed") + obs.aborts;
    obs.inputsProcessed = delta.counterValue("serving.outputs_delivered");
    obs.inputsSubmitted = delta.counterValue("serving.inputs_submitted");
    obs.inputsRejected = delta.counterValue("serving.inputs_rejected");
    obs.chunkSeconds =
        delta.histogramValue("serving.chunk_process_seconds").sumSeconds;
    obs.queueDepthP99 =
        delta.histogramValue("serving.queue_depth").quantileSeconds(0.99);
    obs.sessions = sessions > 0 ? sessions : 1;
    return obs;
}

} // namespace

ServingAdaptor::ServingAdaptor(serving::ServingRuntime &runtime,
                               Options options)
    : runtime_(runtime), opts_(std::move(options)),
      controller_(opts_.controller),
      prev_(metrics::MetricsRegistry::global().snapshot()),
      lastTick_(now())
{
}

std::chrono::steady_clock::time_point
ServingAdaptor::now() const
{
    return opts_.clock ? opts_.clock()
                       : std::chrono::steady_clock::now();
}

std::optional<Decision>
ServingAdaptor::tick()
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto t = now();
    const double seconds =
        std::chrono::duration<double>(t - lastTick_).count();
    lastTick_ = t;

    auto cur = metrics::MetricsRegistry::global().snapshot();
    const auto delta = metrics::snapshotDiff(prev_, cur);
    prev_ = std::move(cur);

    const WindowObservation window = foldServingWindow(
        delta, std::max(seconds, 0.0),
        static_cast<unsigned>(runtime_.activeSessions()));
    auto decision = controller_.observe(window);
    if (decision) {
        // The decision span's detail is the triggering metric window's
        // id, tying the retune back to the delta that motivated it.
        obs::Span span = obs::SpanRecorder::global().start(
            obs::SpanKind::AdaptDecision, 0, 0, -1, -1, 0,
            static_cast<std::int64_t>(decision->window));
        runtime_.retuneAll(decision->to);
        obs::SpanRecorder::global().finish(span);
    }
    return decision;
}

} // namespace repro::adapt

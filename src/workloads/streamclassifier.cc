#include "workloads/streamclassifier.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/log.h"

namespace repro::workloads {

constexpr unsigned kClasses = StreamclassifierState::kClasses;

StreamclassifierModel::StreamclassifierModel(
    StreamclassifierParams params, const std::vector<LabeledPoint> *points)
    : p(params), points_(points)
{
    REPRO_ASSERT(points_ != nullptr,
                 "streamclassifier needs an input stream");
    REPRO_ASSERT(points_->size() >= p.inputs * p.pointsPerInput,
                 "input stream shorter than inputs x batch size");
}

Point2
StreamclassifierModel::classCenter(const StreamclassifierParams &p,
                                   double t, unsigned cls)
{
    // Two classes on opposite sides of the arena, both drifting.
    const double gx = p.arena * (cls == 0 ? 0.35 : 0.65);
    const double gy = p.arena * 0.5;
    return {gx + smoothTrajectory(t, 10 + 2 * cls, p.driftAmplitude),
            gy + smoothTrajectory(t, 11 + 2 * cls, p.driftAmplitude)};
}

core::StateHandle
StreamclassifierModel::initialState() const
{
    auto s = std::make_unique<StreamclassifierState>();
    for (unsigned c = 0; c < kClasses; ++c)
        s->protos[c] = classCenter(p, 0.0, c);
    s->counts.fill(1.0);
    return s;
}

core::StateHandle
StreamclassifierModel::coldState() const
{
    auto s = std::make_unique<StreamclassifierState>();
    // Neutral prototypes at the undrifted class anchors.
    for (unsigned c = 0; c < kClasses; ++c) {
        const double gx = p.arena * (c == 0 ? 0.35 : 0.65);
        s->protos[c] = {gx, p.arena * 0.5};
    }
    s->counts.fill(1.0);
    return s;
}

double
StreamclassifierModel::update(core::State &state, std::size_t input,
                              core::ExecContext &ctx) const
{
    auto &s = static_cast<StreamclassifierState &>(state);
    const LabeledPoint *batch =
        points_->data() + input * p.pointsPerInput;

    std::array<Point2, kClasses> sums{};
    std::array<double, kClasses> ns{};

    for (unsigned j = 0; j < p.pointsPerInput; ++j) {
        const LabeledPoint &lp = batch[j];
        // Nearest-prototype prediction.
        unsigned pred = 0;
        double best = distanceSq(lp.pos, s.protos[0]);
        for (unsigned c = 1; c < kClasses; ++c) {
            const double d = distanceSq(lp.pos, s.protos[c]);
            if (d < best) {
                best = d;
                pred = c;
            }
        }
        const double correct = pred == lp.label ? 1.0 : 0.0;
        s.accuracyEma += p.accuracyAlpha * (correct - s.accuracyEma);
        if (ctx.rng().bernoulli(p.includeProbability)) {
            sums[lp.label].x += lp.pos.x;
            sums[lp.label].y += lp.pos.y;
            ns[lp.label] += 1.0;
        }
    }
    ctx.tick(static_cast<std::uint64_t>(p.pointsPerInput) *
             p.opsPerPointClassify);

    // Count-weighted prototype refinement: stale prototypes iterate
    // more (see file comment).
    for (unsigned c = 0; c < kClasses; ++c) {
        if (ns[c] <= 0.0)
            continue;
        const Point2 centroid{sums[c].x / ns[c], sums[c].y / ns[c]};
        unsigned iters = 0;
        while (distance(s.protos[c], centroid) > p.convergeEps &&
               iters < p.maxRefineIters) {
            const double f = ns[c] / (s.counts[c] + ns[c]);
            s.protos[c].x += f * (centroid.x - s.protos[c].x);
            s.protos[c].y += f * (centroid.y - s.protos[c].y);
            ctx.tick(static_cast<std::uint64_t>(p.pointsPerInput) *
                     p.opsPerPointRefine);
            ++iters;
        }
        s.counts[c] = std::min(s.counts[c] + ns[c], p.countCap);
    }

    if (ctx.rng().bernoulli(p.explorationProbability)) {
        const unsigned c =
            static_cast<unsigned>(ctx.rng().uniformInt(kClasses));
        s.protos[c].x += ctx.rng().gaussian(0.0, 2.0);
        s.protos[c].y += ctx.rng().gaussian(0.0, 2.0);
    }

    return s.accuracyEma;
}

bool
StreamclassifierModel::matches(const core::State &spec,
                               const core::State &orig) const
{
    const auto &a = static_cast<const StreamclassifierState &>(spec);
    const auto &b = static_cast<const StreamclassifierState &>(orig);
    double proto_dist = 0.0;
    for (unsigned c = 0; c < kClasses; ++c)
        proto_dist += distance(a.protos[c], b.protos[c]);
    return proto_dist <= p.matchTolerance &&
           std::abs(a.accuracyEma - b.accuracyEma) <=
               p.accMatchTolerance;
}

StreamclassifierWorkload::StreamclassifierWorkload(double scale)
{
    params_.inputs = std::max<std::size_t>(
        static_cast<std::size_t>(560 * scale), 112);

    // A batch's centers depend only on the batch, so they are computed
    // once; the draw order (label, x offset, y offset) fixes the stream.
    util::Rng data_rng(params_.dataSeed);
    points_.reserve(params_.inputs * params_.pointsPerInput);
    for (std::size_t i = 0; i < params_.inputs; ++i) {
        const double t = static_cast<double>(i);
        const std::array<Point2, kClasses> centers = {
            StreamclassifierModel::classCenter(params_, t, 0),
            StreamclassifierModel::classCenter(params_, t, 1)};
        for (unsigned j = 0; j < params_.pointsPerInput; ++j) {
            LabeledPoint lp;
            lp.label = static_cast<unsigned>(data_rng.uniformInt(kClasses));
            const Point2 &c = centers[lp.label];
            lp.pos.x = c.x + data_rng.gaussian(0.0, params_.classSpread);
            lp.pos.y = c.y + data_rng.gaussian(0.0, params_.classSpread);
            points_.push_back(lp);
        }
    }
    model_ = std::make_unique<StreamclassifierModel>(params_, &points_);
}

core::RegionProfile
StreamclassifierWorkload::region() const
{
    const double body = static_cast<double>(params_.inputs) *
                        params_.pointsPerInput *
                        (params_.opsPerPointClassify +
                         5.0 * params_.opsPerPointRefine);
    return {0.03 * body, 0.025 * body};
}

core::TlpModel
StreamclassifierWorkload::tlpModel() const
{
    core::TlpModel tlp;
    tlp.parallelFraction = 0.85;
    tlp.maxThreads = 10;
    tlp.syncWorkPerRound = 2000.0;
    return tlp;
}

core::StatsConfig
StreamclassifierWorkload::tunedConfig(unsigned cores) const
{
    // Table I: 28 threads / 28 states at 28 cores: one chunk per core.
    core::StatsConfig cfg;
    cfg.numChunks = static_cast<unsigned>(std::min<std::size_t>(
        cores, model_->numInputs() / 8));
    const std::size_t chunk_len = model_->numInputs() / cfg.numChunks;
    cfg.altWindowK = static_cast<unsigned>(
        std::clamp<std::size_t>(chunk_len / 10, 2, 4));
    cfg.numOriginalStates = 1;
    cfg.innerTlpThreads = 1;
    return cfg;
}

double
StreamclassifierWorkload::quality(const std::vector<double> &outputs) const
{
    REPRO_ASSERT(!outputs.empty(), "quality needs outputs");
    // Steady-state error rate: 1 - mean accuracy over the second half.
    double sum = 0.0;
    const std::size_t half = outputs.size() / 2;
    for (std::size_t i = half; i < outputs.size(); ++i)
        sum += outputs[i];
    return 1.0 - sum / static_cast<double>(outputs.size() - half);
}

perfmodel::AccessProfile
StreamclassifierWorkload::accessProfile() const
{
    perfmodel::AccessProfile a;
    a.stateBytes = model_->stateSizeBytes();
    a.scratchBytes = 6 * 1024;
    a.streamBytesPerInput =
        params_.pointsPerInput * sizeof(LabeledPoint);
    a.accessesPerInput = params_.pointsPerInput * 36;
    a.hotFraction = 0.5;
    a.branchesPerInput = params_.pointsPerInput * 10;
    a.noisyBranchFraction = 0.25; // Overlapping classes: noisy compares.
    a.loopPeriod = 8;
    a.hotSequentialFraction = 0.5;
    a.streamReuse = 0.3;
    a.statsWorkScale = 0.8;
    return a;
}

} // namespace repro::workloads

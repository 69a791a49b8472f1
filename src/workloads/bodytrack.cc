#include "workloads/bodytrack.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace repro::workloads {

BodytrackModel::BodytrackModel(BodytrackParams params,
                               const std::vector<Point2> *truth,
                               const std::vector<Point2> *obs)
    : p(params), truth_(truth), obs_(obs)
{
    REPRO_ASSERT(truth_ && obs_, "bodytrack needs truth and observations");
    REPRO_ASSERT(truth_->size() >= p.frames * p.joints &&
                     obs_->size() >= p.frames * p.joints,
                 "frame data shorter than frames x joints");
}

core::StateHandle
BodytrackModel::initialState() const
{
    // The program is given the initial pose (frame 0 ground truth).
    auto s = std::make_unique<BodytrackState>(p.particles, p.joints * 2);
    std::vector<double> center(p.joints * 2);
    for (unsigned j = 0; j < p.joints; ++j) {
        center[2 * j] = (*truth_)[j].x;
        center[2 * j + 1] = (*truth_)[j].y;
    }
    s->cloud.collapseTo(center);
    s->setSeeded(true);
    return s;
}

core::StateHandle
BodytrackModel::coldState() const
{
    // No history: guesses are distributed once the first image is seen
    // (update() seeds from the observation, like the original taking
    // random guesses across the image).
    auto s = std::make_unique<BodytrackState>(p.particles, p.joints * 2);
    s->cloud.spreadUniform(0.0, p.arena);
    // Flags word starts at zero: not seeded.
    return s;
}

double
BodytrackModel::update(core::State &state, std::size_t input,
                       core::ExecContext &ctx) const
{
    auto &s = static_cast<BodytrackState &>(state);
    const Point2 *frame_obs = obs_->data() + input * p.joints;
    const Point2 *frame_truth = truth_->data() + input * p.joints;
    ParticleCloud &cloud = s.cloud;

    if (!s.seeded()) {
        // Distribute guesses around the current image's measurements
        // (whole-block rewrite: a cold clone reseeds without copying
        // the shared particle blocks it is about to discard).
        std::vector<double> center(cloud.dims());
        for (unsigned j = 0; j < p.joints; ++j) {
            center[2 * j] = frame_obs[j].x;
            center[2 * j + 1] = frame_obs[j].y;
        }
        const std::vector<double> sigma(cloud.dims(), p.seedSpread);
        cloud.reseed(ctx.rng(), center, sigma);
        s.setSeeded(true);
    }

    cloud.propagate(ctx.rng(), p.propagateSigma);

    // Tempered joint likelihood: normalizing by the joint count keeps
    // the effective sample size high in the 20-dimensional pose space
    // (an annealing layer, as in the original bodytrack's annealed
    // particle filter).
    const double inv2s2 = 1.0 / (2.0 * p.likelihoodSigma *
                                 p.likelihoodSigma * p.joints);
    cloud.weigh([&](unsigned part) {
        double logl = 0.0;
        for (unsigned j = 0; j < p.joints; ++j) {
            const Point2 pos{cloud.coord(part, 2 * j),
                             cloud.coord(part, 2 * j + 1)};
            logl -= distanceSq(pos, frame_obs[j]) * inv2s2;
        }
        return logl;
    });

    // Tracking error of the weighted-mean pose (the output sample the
    // quality metric consumes: average Euclidean distance, §IV-C).
    double err = 0.0;
    for (unsigned j = 0; j < p.joints; ++j) {
        const Point2 est{cloud.mean(2 * j), cloud.mean(2 * j + 1)};
        err += distance(est, frame_truth[j]);
    }
    err /= static_cast<double>(p.joints);

    cloud.resample(ctx.rng());

    ctx.tick(static_cast<std::uint64_t>(p.particles) * p.joints *
             p.opsPerParticleJoint);
    return err;
}

double
BodytrackModel::estimateDistance(const BodytrackState &a,
                                 const BodytrackState &b) const
{
    double dist = 0.0;
    for (unsigned j = 0; j < p.joints; ++j) {
        const Point2 ea{a.cloud.mean(2 * j), a.cloud.mean(2 * j + 1)};
        const Point2 eb{b.cloud.mean(2 * j), b.cloud.mean(2 * j + 1)};
        dist += distance(ea, eb);
    }
    return dist / static_cast<double>(p.joints);
}

bool
BodytrackModel::matches(const core::State &spec,
                        const core::State &orig) const
{
    const auto &a = static_cast<const BodytrackState &>(spec);
    const auto &b = static_cast<const BodytrackState &>(orig);
    if (!a.seeded() || !b.seeded())
        return false;
    return estimateDistance(a, b) <= p.matchTolerance;
}

std::uint64_t
BodytrackModel::compareBytes(const core::State &spec,
                             const core::State &orig) const
{
    return cloudCompareBytes(
        static_cast<const BodytrackState &>(spec).cloud,
        static_cast<const BodytrackState &>(orig).cloud,
        stateSizeBytes());
}

std::size_t
BodytrackModel::stateSizeBytes() const
{
    return static_cast<std::size_t>(p.particles) *
               (static_cast<std::size_t>(p.joints) * 2 * 8 + 8) +
           8; // Particles + weights + seeding flag word.
}

BodytrackWorkload::BodytrackWorkload(double scale)
{
    params_ = BodytrackParams{};
    params_.frames = std::max<std::size_t>(
        static_cast<std::size_t>(120 * scale), 48);
    params_.particles = std::max<unsigned>(
        static_cast<unsigned>(3000 * scale), 300);
    // The pose-estimate noise grows as 1/sqrt(particles); scale the
    // acceptance band accordingly so reduced-scale runs keep the
    // full-scale commit behaviour (at particles = 3000 this is a
    // no-op).
    params_.matchTolerance *=
        std::sqrt(3000.0 / static_cast<double>(params_.particles));

    // Ground truth: smooth joint trajectories plus a random walk, all
    // from the fixed data seed (input data, identical across runs).
    util::Rng data_rng(params_.dataSeed);
    const std::size_t n = params_.frames * params_.joints;
    truth_.resize(n);
    obs_.resize(n);
    std::vector<Point2> walk(params_.joints);
    for (std::size_t f = 0; f < params_.frames; ++f) {
        for (unsigned j = 0; j < params_.joints; ++j) {
            walk[j].x += data_rng.gaussian(0.0, params_.walkSigma);
            walk[j].y += data_rng.gaussian(0.0, params_.walkSigma);
            // Joints arranged on a ring around the body center.
            const double angle =
                2.0 * 3.14159265358979 * j / params_.joints;
            const double cx =
                params_.arena * 0.5 +
                smoothTrajectory(static_cast<double>(f), 40,
                                 params_.trajectoryAmplitude);
            const double cy =
                params_.arena * 0.5 +
                smoothTrajectory(static_cast<double>(f), 41,
                                 params_.trajectoryAmplitude);
            Point2 &t = truth_[f * params_.joints + j];
            t.x = cx + 8.0 * std::cos(angle) + walk[j].x;
            t.y = cy + 8.0 * std::sin(angle) + walk[j].y;
            Point2 &o = obs_[f * params_.joints + j];
            o.x = t.x + data_rng.gaussian(0.0, params_.obsNoise);
            o.y = t.y + data_rng.gaussian(0.0, params_.obsNoise);
        }
    }
    model_ = std::make_unique<BodytrackModel>(params_, &truth_, &obs_);
}

core::RegionProfile
BodytrackWorkload::region() const
{
    // Image decode before / edge rendering after are small next to the
    // per-frame particle evaluation.
    const double body = static_cast<double>(params_.frames) *
                        params_.particles * params_.joints *
                        params_.opsPerParticleJoint;
    return {0.01 * body, 0.01 * body};
}

core::TlpModel
BodytrackWorkload::tlpModel() const
{
    // The pthreads build evaluates particles in parallel within a
    // frame; resampling and the pose update stay serial.
    core::TlpModel tlp;
    tlp.parallelFraction = 0.88;
    tlp.maxThreads = 10;
    tlp.syncWorkPerRound = 4000.0;
    return tlp;
}

core::StatsConfig
BodytrackWorkload::tunedConfig(unsigned cores) const
{
    // Table I: 74 threads / 12 states at 28 cores: few chunks (the
    // 500 KB state makes boundaries expensive), wide inner TLP, and a
    // replica per boundary; the large replay window drives the +107%
    // extra instructions of Fig. 14.
    core::StatsConfig cfg;
    cfg.numChunks = std::min(12u, std::max(2u, cores * 12 / 28));
    cfg.altWindowK = static_cast<unsigned>(std::max<std::size_t>(
        model_->numInputs() / cfg.numChunks / 2, 2));
    cfg.numOriginalStates = 2;
    cfg.innerTlpThreads = std::max(1u, cores * 6 / 28);
    return cfg;
}

double
BodytrackWorkload::quality(const std::vector<double> &outputs) const
{
    REPRO_ASSERT(!outputs.empty(), "quality needs outputs");
    // Average Euclidean tracking error across the stream (§IV-C).
    double sum = 0.0;
    for (double o : outputs)
        sum += o;
    return sum / static_cast<double>(outputs.size());
}

perfmodel::AccessProfile
BodytrackWorkload::accessProfile() const
{
    perfmodel::AccessProfile a;
    a.stateBytes = model_->stateSizeBytes(); // ~500 KB: blows L1/L2.
    a.scratchBytes = 64 * 1024;
    a.streamBytesPerInput = 128 * 1024; // Image data per frame.
    a.accessesPerInput = static_cast<std::uint64_t>(params_.particles) *
                         params_.joints * 4;
    a.hotFraction = 0.85;
    a.branchesPerInput =
        static_cast<std::uint64_t>(params_.particles) * params_.joints;
    a.noisyBranchFraction = 0.01;
    a.loopPeriod = 10; // Joint loop.
    a.hotSequentialFraction = 0.8; // Particle arrays stream.
    a.streamReuse = 0.9;
    a.statsWorkScale = 1.0;
    return a;
}

} // namespace repro::workloads

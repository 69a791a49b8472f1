#include "workloads/facetrack.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace repro::workloads {

FacetrackModel::FacetrackModel(FacetrackParams params,
                               const std::vector<double> *truth,
                               const std::vector<double> *obs)
    : p(params), truth_(truth), obs_(obs)
{
    REPRO_ASSERT(truth_ && obs_, "facetrack needs truth and observations");
    REPRO_ASSERT(truth_->size() >= p.frames * 3 &&
                     obs_->size() >= p.frames * 3,
                 "frame data shorter than frames x 3");
}

core::StateHandle
FacetrackModel::initialState() const
{
    auto s = std::make_unique<FacetrackState>(p.particles);
    s->cloud.collapseTo({(*truth_)[0], (*truth_)[1], (*truth_)[2]});
    s->setSeeded(true);
    return s;
}

core::StateHandle
FacetrackModel::coldState() const
{
    auto s = std::make_unique<FacetrackState>(p.particles);
    s->cloud.spreadUniform(0.0, p.arena);
    // Flags word starts at zero: not seeded, lost count 0.
    return s;
}

double
FacetrackModel::update(core::State &state, std::size_t input,
                       core::ExecContext &ctx) const
{
    auto &s = static_cast<FacetrackState &>(state);
    ParticleCloud &cloud = s.cloud;
    const double *ob = obs_->data() + input * 3;
    const double *tr = truth_->data() + input * 3;

    auto seed_from = [&](const double *center) {
        const double seed_sigma[3] = {p.seedSpread, p.seedSpread, 0.05};
        cloud.reseed(ctx.rng(), {center, 3}, seed_sigma);
        s.setSeeded(true);
        s.setLostCount(0);
    };

    if (!s.seeded())
        seed_from(ob);

    // Motion model.
    const double propagate_sigma[3] = {p.propagateSigma, p.propagateSigma,
                                       p.scalePropagateSigma};
    cloud.propagate(ctx.rng(), propagate_sigma);

    // Appearance likelihood against the apparent measurement.  A locked
    // tracker far from a decoy sees a flat (floored) likelihood and
    // coasts; a lost tracker re-seeds after a few flat frames.
    const double inv2s2 =
        1.0 / (2.0 * p.likelihoodSigma * p.likelihoodSigma);
    double max_logl = -1e300;
    cloud.weigh([&](unsigned part) {
        const double dx = cloud.coord(part, 0) - ob[0];
        const double dy = cloud.coord(part, 1) - ob[1];
        const double ds = (cloud.coord(part, 2) - ob[2]) * 20.0;
        const double logl = -(dx * dx + dy * dy + ds * ds) * inv2s2;
        max_logl = std::max(max_logl, logl);
        return logl;
    });

    if (max_logl < p.lostLogLikelihood) {
        s.setLostCount(s.lostCount() + 1);
        if (s.lostCount() >= p.lostFramesToReseed)
            seed_from(ob);
    } else {
        s.setLostCount(0);
    }

    const Point2 est{cloud.mean(0), cloud.mean(1)};
    const double err = distance(est, {tr[0], tr[1]});

    cloud.resample(ctx.rng());
    ctx.tick(static_cast<std::uint64_t>(p.particles) * p.opsPerParticle);
    return err;
}

bool
FacetrackModel::matches(const core::State &spec,
                        const core::State &orig) const
{
    const auto &a = static_cast<const FacetrackState &>(spec);
    const auto &b = static_cast<const FacetrackState &>(orig);
    if (!a.seeded() || !b.seeded())
        return false;
    const Point2 ea{a.cloud.mean(0), a.cloud.mean(1)};
    const Point2 eb{b.cloud.mean(0), b.cloud.mean(1)};
    const double scale_term =
        std::abs(a.cloud.mean(2) - b.cloud.mean(2)) * 20.0;
    return distance(ea, eb) + scale_term <= p.matchTolerance;
}

std::size_t
FacetrackModel::stateSizeBytes() const
{
    return static_cast<std::size_t>(p.particles) * (3 * 8 + 8);
}

std::uint64_t
FacetrackModel::compareBytes(const core::State &spec,
                             const core::State &orig) const
{
    return cloudCompareBytes(
        static_cast<const FacetrackState &>(spec).cloud,
        static_cast<const FacetrackState &>(orig).cloud,
        stateSizeBytes());
}

FacetrackWorkload::FacetrackWorkload(double scale)
{
    params_ = FacetrackParams{};
    params_.frames = std::max<std::size_t>(
        static_cast<std::size_t>(600 * scale), 140);

    util::Rng data_rng(params_.dataSeed);
    truth_.resize(params_.frames * 3);
    obs_.resize(params_.frames * 3);
    decoy_.assign(params_.frames, false);

    // Ambiguous bursts: geometric burst lengths covering roughly
    // decoyFraction of the stream.  Frame 0 is always clean (the
    // tracker is handed a valid initial box).
    std::size_t f = 1;
    while (f < params_.frames) {
        if (data_rng.bernoulli(params_.decoyFraction /
                               params_.decoyBurstLength)) {
            const std::size_t len =
                1 + data_rng.uniformInt(2 * params_.decoyBurstLength);
            for (std::size_t i = f;
                 i < std::min(f + len, params_.frames); ++i)
                decoy_[i] = true;
            f += len;
        } else {
            ++f;
        }
    }

    double wx = 0.0, wy = 0.0;
    for (std::size_t fr = 0; fr < params_.frames; ++fr) {
        wx += data_rng.gaussian(0.0, params_.walkSigma);
        wy += data_rng.gaussian(0.0, params_.walkSigma);
        const double t = static_cast<double>(fr);
        truth_[fr * 3] =
            params_.arena * 0.5 +
            smoothTrajectory(t, 50, params_.trajectoryAmplitude) + wx;
        truth_[fr * 3 + 1] =
            params_.arena * 0.5 +
            smoothTrajectory(t, 51, params_.trajectoryAmplitude) + wy;
        truth_[fr * 3 + 2] =
            1.0 + 0.2 * std::sin(0.02 * t); // Apparent face scale.

        if (decoy_[fr]) {
            // The measurement sits on a face-like background region far
            // from the true face.
            obs_[fr * 3] =
                params_.arena * 0.2 +
                smoothTrajectory(t, 60, 6.0);
            obs_[fr * 3 + 1] =
                params_.arena * 0.8 +
                smoothTrajectory(t, 61, 6.0);
            obs_[fr * 3 + 2] = 1.0;
        } else {
            obs_[fr * 3] =
                truth_[fr * 3] +
                data_rng.gaussian(0.0, params_.obsNoise);
            obs_[fr * 3 + 1] =
                truth_[fr * 3 + 1] +
                data_rng.gaussian(0.0, params_.obsNoise);
            obs_[fr * 3 + 2] =
                truth_[fr * 3 + 2] + data_rng.gaussian(0.0, 0.03);
        }
    }
    model_ = std::make_unique<FacetrackModel>(params_, &truth_, &obs_);
}

core::RegionProfile
FacetrackWorkload::region() const
{
    const double body = static_cast<double>(params_.frames) *
                        params_.particles * params_.opsPerParticle;
    return {0.02 * body, 0.02 * body};
}

core::TlpModel
FacetrackWorkload::tlpModel() const
{
    core::TlpModel tlp;
    tlp.parallelFraction = 0.80; // OpenCV pipeline: modest inner TLP.
    tlp.maxThreads = 8;
    tlp.syncWorkPerRound = 2500.0;
    return tlp;
}

core::StatsConfig
FacetrackWorkload::tunedConfig(unsigned cores) const
{
    // Table I: 14 threads / 14 states at 28 cores.  The autotuner keeps
    // only 7 chunks to avoid mispeculation (boundaries inside ambiguous
    // bursts abort) and pairs each with one original-TLP helper.
    core::StatsConfig cfg;
    cfg.numChunks = std::max(2u, std::min(7u, cores / 4));
    cfg.altWindowK = static_cast<unsigned>(std::min<std::size_t>(
        40, model_->numInputs() / cfg.numChunks / 2));
    cfg.numOriginalStates = 1;
    cfg.innerTlpThreads = 2;
    return cfg;
}

double
FacetrackWorkload::quality(const std::vector<double> &outputs) const
{
    REPRO_ASSERT(!outputs.empty(), "quality needs outputs");
    // Average Euclidean distance between tracked and true box (§IV-C).
    double sum = 0.0;
    for (double o : outputs)
        sum += o;
    return sum / static_cast<double>(outputs.size());
}

perfmodel::AccessProfile
FacetrackWorkload::accessProfile() const
{
    perfmodel::AccessProfile a;
    a.stateBytes = model_->stateSizeBytes(); // 8 KB.
    a.scratchBytes = 24 * 1024;              // Frame patch + weights.
    a.streamBytesPerInput = 96 * 1024;       // Video frame data.
    a.accessesPerInput =
        static_cast<std::uint64_t>(params_.particles) * 48;
    a.hotFraction = 0.75;
    a.branchesPerInput =
        static_cast<std::uint64_t>(params_.particles) * 8;
    a.noisyBranchFraction = 0.02;
    a.loopPeriod = 8;
    a.hotSequentialFraction = 0.7;
    a.streamReuse = 0.93;
    a.statsWorkScale = 1.0;
    return a;
}

} // namespace repro::workloads

#include "workloads/facedet_track.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace repro::workloads {

FacedetTrackModel::FacedetTrackModel(FacedetTrackParams params,
                                     const std::vector<double> *truth,
                                     const std::vector<double> *obs,
                                     const std::vector<bool> *occluded)
    : p(params), truth_(truth), obs_(obs), occluded_(occluded)
{
    REPRO_ASSERT(truth_ && obs_ && occluded_,
                 "facedet-and-track needs truth, obs, and occlusion");
    REPRO_ASSERT(truth_->size() >= p.frames * 3 &&
                     obs_->size() >= p.frames * 3 &&
                     occluded_->size() >= p.frames,
                 "frame data shorter than the stream");
}

core::StateHandle
FacedetTrackModel::initialState() const
{
    auto s = std::make_unique<FacedetTrackState>(p.particles);
    s->cloud.collapseTo({(*truth_)[0], (*truth_)[1], (*truth_)[2]});
    s->setSeeded(true);
    return s;
}

core::StateHandle
FacedetTrackModel::coldState() const
{
    auto s = std::make_unique<FacedetTrackState>(p.particles);
    s->cloud.spreadUniform(0.0, p.arena);
    // Flags word starts at zero: not seeded.
    return s;
}

double
FacedetTrackModel::update(core::State &state, std::size_t input,
                          core::ExecContext &ctx) const
{
    auto &s = static_cast<FacedetTrackState &>(state);
    ParticleCloud &cloud = s.cloud;
    const double *ob = obs_->data() + input * 3;
    const double *tr = truth_->data() + input * 3;

    if (!(*occluded_)[input]) {
        // Detection fired: re-seed the particle set around it (the
        // tracker trusts the detector when it works).  The whole-block
        // rewrite discards shared blocks without copying them, and the
        // estimate computed below — after the frame's last mutation —
        // leaves the cloud's mean cache warm for the commit check.
        const double detect_sigma[3] = {1.0, 1.0, 0.03};
        cloud.reseed(ctx.rng(), {ob, 3}, detect_sigma);
        s.setSeeded(true);
        ctx.tick(p.opsDetectFrame);
        const Point2 est{cloud.mean(0), cloud.mean(1)};
        return distance(est, {tr[0], tr[1]});
    }

    // Detector failed: full particle-filter step on the weak cue.
    if (!s.seeded()) {
        const double seed_sigma[3] = {p.seedSpread, p.seedSpread, 0.05};
        cloud.reseed(ctx.rng(), {ob, 3}, seed_sigma);
        s.setSeeded(true);
    }

    const double propagate_sigma[3] = {p.propagateSigma, p.propagateSigma,
                                       0.02};
    cloud.propagate(ctx.rng(), propagate_sigma);

    const double inv2s2 =
        1.0 / (2.0 * p.likelihoodSigma * p.likelihoodSigma);
    cloud.weigh([&](unsigned part) {
        const double dx = cloud.coord(part, 0) - ob[0];
        const double dy = cloud.coord(part, 1) - ob[1];
        return -(dx * dx + dy * dy) * inv2s2;
    });

    const Point2 est{cloud.mean(0), cloud.mean(1)};
    const double err = distance(est, {tr[0], tr[1]});
    cloud.resample(ctx.rng());
    ctx.tick(p.opsTrackFrame);
    return err;
}

bool
FacedetTrackModel::matches(const core::State &spec,
                           const core::State &orig) const
{
    const auto &a = static_cast<const FacedetTrackState &>(spec);
    const auto &b = static_cast<const FacedetTrackState &>(orig);
    if (!a.seeded() || !b.seeded())
        return false;
    const Point2 ea{a.cloud.mean(0), a.cloud.mean(1)};
    const Point2 eb{b.cloud.mean(0), b.cloud.mean(1)};
    return distance(ea, eb) <= p.matchTolerance;
}

std::size_t
FacedetTrackModel::stateSizeBytes() const
{
    return static_cast<std::size_t>(p.particles) * (3 * 8 + 8);
}

std::uint64_t
FacedetTrackModel::compareBytes(const core::State &spec,
                                const core::State &orig) const
{
    return cloudCompareBytes(
        static_cast<const FacedetTrackState &>(spec).cloud,
        static_cast<const FacedetTrackState &>(orig).cloud,
        stateSizeBytes());
}

FacedetTrackWorkload::FacedetTrackWorkload(double scale)
{
    params_ = FacedetTrackParams{};
    params_.frames = std::max<std::size_t>(
        static_cast<std::size_t>(1050 * scale), 224);

    util::Rng data_rng(params_.dataSeed);
    truth_.resize(params_.frames * 3);
    obs_.resize(params_.frames * 3);
    occluded_.assign(params_.frames, false);

    // Occlusion bursts (frame 0 is never occluded).
    std::size_t f = 1;
    while (f < params_.frames) {
        if (data_rng.bernoulli(params_.occlusionFraction /
                               params_.occlusionBurstLength)) {
            const std::size_t len =
                1 +
                data_rng.uniformInt(2 * params_.occlusionBurstLength);
            for (std::size_t i = f;
                 i < std::min(f + len, params_.frames); ++i)
                occluded_[i] = true;
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
            smoothTrajectory(t, 70, params_.trajectoryAmplitude) + wx;
        truth_[fr * 3 + 1] =
            params_.arena * 0.5 +
            smoothTrajectory(t, 71, params_.trajectoryAmplitude) + wy;
        truth_[fr * 3 + 2] = 1.0 + 0.15 * std::sin(0.017 * t);

        const double noise = occluded_[fr] ? params_.weakObsNoise
                                           : params_.detectionNoise;
        obs_[fr * 3] =
            truth_[fr * 3] + data_rng.gaussian(0.0, noise);
        obs_[fr * 3 + 1] =
            truth_[fr * 3 + 1] + data_rng.gaussian(0.0, noise);
        obs_[fr * 3 + 2] =
            truth_[fr * 3 + 2] + data_rng.gaussian(0.0, 0.05);
    }
    model_ = std::make_unique<FacedetTrackModel>(params_, &truth_, &obs_,
                                                 &occluded_);
}

core::RegionProfile
FacedetTrackWorkload::region() const
{
    const double avg_frame =
        0.8 * params_.opsDetectFrame + 0.2 * params_.opsTrackFrame;
    const double body = static_cast<double>(params_.frames) * avg_frame;
    return {0.02 * body, 0.02 * body};
}

core::TlpModel
FacedetTrackWorkload::tlpModel() const
{
    // The detector/filter pipeline synchronizes heavily: the original
    // TLP buys little and costs a lot of fork/join traffic.
    core::TlpModel tlp;
    tlp.parallelFraction = 0.80;
    tlp.maxThreads = 8;
    tlp.syncWorkPerRound = 2000.0;
    // The detector/filter pipeline synchronizes every couple of
    // frames, not a few times per chunk.
    tlp.fanoutRoundsPerChunk = 72;
    return tlp;
}

core::StatsConfig
FacedetTrackWorkload::tunedConfig(unsigned cores) const
{
    // Table I: 70 threads at 28 cores, with 14 parallel chunks ("STATS
    // only creates 14 parallel chunks to avoid mispeculation").
    core::StatsConfig cfg;
    cfg.numChunks = std::max(2u, cores / 2);
    cfg.altWindowK = static_cast<unsigned>(std::min<std::size_t>(
        8, model_->numInputs() / cfg.numChunks / 8));
    cfg.numOriginalStates = 3;
    cfg.innerTlpThreads = std::max(1u, cores * 3 / 28);
    return cfg;
}

double
FacedetTrackWorkload::quality(const std::vector<double> &outputs) const
{
    REPRO_ASSERT(!outputs.empty(), "quality needs outputs");
    double sum = 0.0;
    for (double o : outputs)
        sum += o;
    return sum / static_cast<double>(outputs.size());
}

perfmodel::AccessProfile
FacedetTrackWorkload::accessProfile() const
{
    perfmodel::AccessProfile a;
    a.stateBytes = model_->stateSizeBytes(); // 8 KB.
    a.scratchBytes = 32 * 1024;
    a.streamBytesPerInput = 96 * 1024;
    a.accessesPerInput = 9000;
    a.hotFraction = 0.7;
    a.branchesPerInput = 1800;
    a.noisyBranchFraction = 0.02;
    a.loopPeriod = 8;
    a.hotSequentialFraction = 0.7;
    a.streamReuse = 0.93;
    a.statsWorkScale = 1.0;
    return a;
}

} // namespace repro::workloads

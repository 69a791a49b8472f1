/**
 * @file
 * Particle-cloud primitive shared by the tracking workloads.
 *
 * bodytrack, facetrack, and facedet-and-track are particle filters over
 * different state spaces (articulated body joints; a face box; a face
 * box behind a detector).  ParticleCloud provides the common machinery:
 * particle storage (the bytes counted in Table I), propagation,
 * weighting, systematic resampling, and the weighted-mean estimate.
 *
 * Storage is a core::VersionedBuffer laid out as
 *   [particles x dims coordinates][particles weights][one flags word]
 * so cloning a cloud shares blocks instead of copying bytes, and the
 * bulk mutators (overwriteCoords, reseed, propagate, weigh, resample)
 * rewrite whole blocks without first materializing the stale content.
 * The flags word packs workload booleans (seeded, lost counters) into
 * the versioned payload so the whole computational state lives behind
 * one buffer.
 *
 * Draw order: reseed() and propagate() take each block piece's normals
 * from one util::Rng::gaussians() call, in coordinate order (particles
 * ascending, dims innermost), and write center[d] + (0.0 + sigma[d] * z)
 * or old + (0.0 + sigma[d] * z).  Those are the values and the RNG
 * state a per-coordinate rng.gaussian(0.0, sigma[d]) loop in that order
 * leaves (ParticleCloud.BatchedDrawsMatchPerElementDraws), so a kernel
 * that moved from such a loop changed no output bit.
 *
 * The passes allocate nothing per call: the scratch they need (weigh's
 * log-weights, mean's and resample's snapshots, propagate's normals)
 * is per thread and grows to the largest cloud the thread has run.  It
 * is not part of the cloud, so clones copy none of it.
 *
 * The weighted-mean estimates are cached per cloud object and
 * invalidated by any mutation.  A commit check whose sides were
 * estimated after their last mutation (the common case: the update
 * computes its output estimate last) reads only the cached means —
 * that is the incremental-validation win the state-comparison §V-B
 * category measures.
 */

#ifndef REPRO_WORKLOADS_PARTICLE_FILTER_H
#define REPRO_WORKLOADS_PARTICLE_FILTER_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/versioned_state.h"
#include "util/rng.h"

namespace repro::workloads {

/**
 * A set of weighted particles in a D-dimensional state space.
 *
 * Mutators require exclusive use of the cloud object; const reads
 * (including mean(), which may fill the estimate cache) may race with
 * nothing but other const reads on the *same* object.  Distinct clones
 * sharing blocks are independent objects and safe to use concurrently.
 */
class ParticleCloud
{
  public:
    /** Creates @p particles particles of @p dims dimensions at zero. */
    ParticleCloud(unsigned particles, unsigned dims);

    /** Particle count. */
    unsigned particles() const { return numParticles; }
    /** State-space dimensionality. */
    unsigned dims() const { return numDims; }

    /** Coordinate @p d of particle @p p. */
    double
    coord(unsigned p, unsigned d) const
    {
        return buf_.get<double>(static_cast<std::size_t>(p) * numDims +
                                d);
    }

    /** Writes coordinate @p d of particle @p p. */
    void
    setCoord(unsigned p, unsigned d, double v)
    {
        invalidateEstimates();
        buf_.set<double>(static_cast<std::size_t>(p) * numDims + d, v);
    }

    /** Weight of particle @p p (normalized after weigh()). */
    double
    weight(unsigned p) const
    {
        return buf_.get<double>(weightIndex(p));
    }

    /**
     * Rewrites every coordinate to fn(p, d), visiting particles in
     * ascending order with dims innermost (the order seeding loops
     * draw their RNG values in).  Whole blocks are swapped in fresh,
     * so reseeding a shared clone copies nothing.
     */
    template <typename Fn>
    void
    overwriteCoords(Fn &&fn)
    {
        invalidateEstimates();
        buf_.overwrite(
            0, coordBytes(),
            [&](std::byte *dst, std::size_t bytes, std::size_t rel) {
                std::size_t i = rel / sizeof(double);
                auto *out = reinterpret_cast<double *>(dst);
                for (std::size_t k = 0; k < bytes / sizeof(double);
                     ++k, ++i) {
                    out[k] = fn(static_cast<unsigned>(i / numDims),
                                static_cast<unsigned>(i % numDims));
                }
            });
    }

    /**
     * Deterministic stratified spread over [lo, hi] per dimension — the
     * cold start of an alternative producer (no RNG: cold states must
     * be identical across runs).
     */
    void spreadUniform(double lo, double hi);

    /** Collapses every particle onto @p center (dims() values) and
     *  resets weights — the informed initial state. */
    void collapseTo(const std::vector<double> &center);

    /**
     * Rewrites every coordinate of dimension d to center[d] plus
     * Gaussian noise of sigma[d] (see the file comment for the draw
     * order).  Whole blocks are swapped in fresh, so reseeding a shared
     * clone copies nothing.
     */
    void reseed(util::Rng &rng, std::span<const double> center,
                std::span<const double> sigma);

    /** Adds Gaussian jitter of sigma[d] to every coordinate of
     *  dimension d (draw order as for reseed()). */
    void propagate(util::Rng &rng, std::span<const double> sigma);

    /** Adds Gaussian jitter of @p sigma to every coordinate. */
    void propagate(util::Rng &rng, double sigma);

    /**
     * Computes normalized weights from a per-particle log-likelihood.
     * Uses the max-shift trick for numerical stability and mixes in a
     * uniform floor so the cloud survives outlier observations.
     *
     * @param log_likelihood Maps particle index to log p(obs | particle);
     *        called once per particle, in ascending order.  It may read
     *        any cloud but must not weigh one: the log-weights live in
     *        this thread's scratch until the weights are written.
     * @param floor Uniform mixture weight in [0, 1).
     */
    template <typename LogLikelihood>
    void
    weigh(LogLikelihood &&log_likelihood, double floor = 1e-3)
    {
        invalidateEstimates();
        const std::span<double> logw = logWeightScratch(numParticles);
        double max_logw = -1e300;
        for (unsigned p = 0; p < numParticles; ++p) {
            logw[p] = log_likelihood(p);
            max_logw = std::max(max_logw, logw[p]);
        }
        setWeightsFromLog(logw, max_logw, floor);
    }

    /** Systematic (low-variance) resampling using one uniform draw. */
    void resample(util::Rng &rng);

    /** Weighted mean of dimension @p d. */
    double mean(unsigned d) const;

    /** Whether the estimate cache is valid, i.e. a commit check can
     *  read means without scanning the particle payload. */
    bool estimatesWarm() const { return meanValid_; }

    /** The 64-bit flags word workloads pack booleans into (versioned
     *  with the particles; starts at zero). */
    std::uint64_t
    flagsWord() const
    {
        return buf_.get<std::uint64_t>(flagsIndex());
    }

    /** Overwrites the flags word. */
    void
    setFlagsWord(std::uint64_t w)
    {
        buf_.set<std::uint64_t>(flagsIndex(), w);
    }

    /** The versioned payload (State::payload plumbing). */
    const core::VersionedBuffer &buffer() const { return buf_; }

    /** Bytes of particle storage: particles x (dims x 8 + 8). */
    std::size_t sizeBytes() const;

  private:
    std::size_t
    coordBytes() const
    {
        return static_cast<std::size_t>(numParticles) * numDims *
               sizeof(double);
    }

    std::size_t
    weightIndex(unsigned p) const
    {
        return static_cast<std::size_t>(numParticles) * numDims + p;
    }

    std::size_t
    flagsIndex() const
    {
        return static_cast<std::size_t>(numParticles) * (numDims + 1);
    }

    void
    invalidateEstimates()
    {
        meanValid_ = false;
    }

    /** The first @p n elements of this thread's log-weight buffer. */
    static std::span<double> logWeightScratch(unsigned n);

    /** weigh()'s second half: weights exp(logw - max_logw) + floor,
     *  normalized. */
    void setWeightsFromLog(std::span<const double> logw, double max_logw,
                           double floor);

    /** propagate() with dimension d's sigma given by sigma_of(d). */
    template <typename SigmaOf>
    void propagateWith(util::Rng &rng, SigmaOf sigma_of);

    unsigned numParticles;
    unsigned numDims;
    core::VersionedBuffer buf_;

    // Estimate cache: weighted means of all dims, filled in place by
    // one particle-major pass.
    mutable std::vector<double> meanCache_;
    mutable bool meanValid_ = false;
};

/**
 * Bytes a commit check between two clouds actually reads, one side at
 * a time: a warm side contributes its cached estimates, a cold side
 * half of @p full_state_bytes (cold+cold equals the legacy flat
 * charge).
 */
std::uint64_t cloudCompareBytes(const ParticleCloud &speculative,
                                const ParticleCloud &original,
                                std::size_t full_state_bytes);

} // namespace repro::workloads

#endif // REPRO_WORKLOADS_PARTICLE_FILTER_H

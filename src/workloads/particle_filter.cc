#include "workloads/particle_filter.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/log.h"

namespace repro::workloads {

namespace {

/** The bulk passes' per-thread scratch, one buffer per pass so that a
 *  likelihood reading another cloud's mean() cannot clobber weigh()'s
 *  log-weights. */
struct Scratch
{
    std::vector<double> logw;     //!< weigh(): log-likelihoods.
    std::vector<double> weights;  //!< mean(): the weights.
    std::vector<double> normals;  //!< propagate(): one piece's draws.
    std::vector<double> snapshot; //!< resample(): coords, then weights.
};

thread_local Scratch scratch;

/** The first @p n elements of @p v, growing it if it is shorter. */
std::span<double>
grown(std::vector<double> &v, std::size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return {v.data(), n};
}

} // namespace

ParticleCloud::ParticleCloud(unsigned particles, unsigned dims)
    : numParticles(particles), numDims(dims),
      buf_((static_cast<std::size_t>(particles) * (dims + 1) + 1) *
           sizeof(double)),
      meanCache_(dims)
{
    REPRO_ASSERT(particles > 0 && dims > 0,
                 "particle cloud needs particles and dims");
    const double w0 = 1.0 / static_cast<double>(particles);
    buf_.overwrite(
        coordBytes(), static_cast<std::size_t>(numParticles) * 8,
        [&](std::byte *dst, std::size_t bytes, std::size_t) {
            auto *out = reinterpret_cast<double *>(dst);
            std::fill(out, out + bytes / sizeof(double), w0);
        });
}

void
ParticleCloud::spreadUniform(double lo, double hi)
{
    // Deterministic low-discrepancy spread (Weyl sequence per dim).
    const double span = hi - lo;
    overwriteCoords([&](unsigned p, unsigned d) {
        const double frac =
            std::fmod(0.5 + static_cast<double>(p) * 0.6180339887498949 +
                          static_cast<double>(d) * 0.3247179572447458,
                      1.0);
        return lo + span * frac;
    });
    const double w0 = 1.0 / static_cast<double>(numParticles);
    buf_.overwrite(
        coordBytes(), static_cast<std::size_t>(numParticles) * 8,
        [&](std::byte *dst, std::size_t bytes, std::size_t) {
            auto *out = reinterpret_cast<double *>(dst);
            std::fill(out, out + bytes / sizeof(double), w0);
        });
}

void
ParticleCloud::collapseTo(const std::vector<double> &center)
{
    REPRO_ASSERT(center.size() == numDims,
                 "collapse center has wrong dimensionality");
    overwriteCoords([&](unsigned, unsigned d) { return center[d]; });
    const double w0 = 1.0 / static_cast<double>(numParticles);
    buf_.overwrite(
        coordBytes(), static_cast<std::size_t>(numParticles) * 8,
        [&](std::byte *dst, std::size_t bytes, std::size_t) {
            auto *out = reinterpret_cast<double *>(dst);
            std::fill(out, out + bytes / sizeof(double), w0);
        });
}

void
ParticleCloud::reseed(util::Rng &rng, std::span<const double> center,
                      std::span<const double> sigma)
{
    REPRO_ASSERT(center.size() == numDims && sigma.size() == numDims,
                 "reseed center or sigma has wrong dimensionality");
    invalidateEstimates();
    buf_.overwrite(0, coordBytes(),
                   [&](std::byte *dst, std::size_t bytes,
                       std::size_t rel) {
                       auto *out = reinterpret_cast<double *>(dst);
                       const std::size_t n = bytes / sizeof(double);
                       rng.gaussians({out, n});
                       unsigned d = static_cast<unsigned>(
                           rel / sizeof(double) % numDims);
                       for (std::size_t k = 0; k < n; ++k) {
                           out[k] = center[d] + (0.0 + sigma[d] * out[k]);
                           if (++d == numDims)
                               d = 0;
                       }
                   });
}

template <typename SigmaOf>
void
ParticleCloud::propagateWith(util::Rng &rng, SigmaOf sigma_of)
{
    invalidateEstimates();
    buf_.transform(0, coordBytes(),
                   [&](std::byte *dst, const std::byte *src,
                       std::size_t bytes, std::size_t rel) {
                       auto *out = reinterpret_cast<double *>(dst);
                       const auto *in =
                           reinterpret_cast<const double *>(src);
                       const std::size_t n = bytes / sizeof(double);
                       // dst may alias src, so the normals need a
                       // buffer of their own.
                       const std::span<double> z =
                           grown(scratch.normals, n);
                       rng.gaussians(z);
                       unsigned d = static_cast<unsigned>(
                           rel / sizeof(double) % numDims);
                       for (std::size_t k = 0; k < n; ++k) {
                           out[k] = in[k] + (0.0 + sigma_of(d) * z[k]);
                           if (++d == numDims)
                               d = 0;
                       }
                   });
}

void
ParticleCloud::propagate(util::Rng &rng, std::span<const double> sigma)
{
    REPRO_ASSERT(sigma.size() == numDims,
                 "propagate sigma has wrong dimensionality");
    propagateWith(rng, [&](unsigned d) { return sigma[d]; });
}

void
ParticleCloud::propagate(util::Rng &rng, double sigma)
{
    propagateWith(rng, [sigma](unsigned) { return sigma; });
}

std::span<double>
ParticleCloud::logWeightScratch(unsigned n)
{
    return grown(scratch.logw, n);
}

void
ParticleCloud::setWeightsFromLog(std::span<const double> logw,
                                 double max_logw, double floor)
{
    double total = 0.0;
    const std::size_t wbytes =
        static_cast<std::size_t>(numParticles) * sizeof(double);
    buf_.overwrite(coordBytes(), wbytes,
                   [&](std::byte *dst, std::size_t bytes,
                       std::size_t rel) {
                       std::size_t p = rel / sizeof(double);
                       auto *out = reinterpret_cast<double *>(dst);
                       for (std::size_t k = 0;
                            k < bytes / sizeof(double); ++k, ++p) {
                           out[k] =
                               std::exp(logw[p] - max_logw) + floor;
                           total += out[k];
                       }
                   });
    buf_.transform(coordBytes(), wbytes,
                   [&](std::byte *dst, const std::byte *src,
                       std::size_t bytes, std::size_t) {
                       auto *out = reinterpret_cast<double *>(dst);
                       const auto *in =
                           reinterpret_cast<const double *>(src);
                       for (std::size_t k = 0;
                            k < bytes / sizeof(double); ++k)
                           out[k] = in[k] / total;
                   });
}

void
ParticleCloud::resample(util::Rng &rng)
{
    invalidateEstimates();
    const double step = 1.0 / static_cast<double>(numParticles);
    double u = rng.uniform() * step;
    // The new cloud reads old coordinates across block boundaries, so
    // snapshot them, and the weights that follow them in the payload,
    // in one blockwise read instead of transforming in place.
    const std::size_t ncoords =
        static_cast<std::size_t>(numParticles) * numDims;
    const std::span<double> old =
        grown(scratch.snapshot, ncoords + numParticles);
    buf_.forEachRead(0, old.size_bytes(),
                     [&](const std::byte *p, std::size_t bytes,
                         std::size_t rel) {
                         std::memcpy(&old[rel / sizeof(double)], p,
                                     bytes);
                     });
    const double *w = old.data() + ncoords;
    // Systematic resampling: particle p copies the first source whose
    // cumulative weight reaches u, found as each new particle starts.
    double cum = w[0];
    unsigned src = 0;
    const double *from = old.data();
    unsigned d = 0;
    buf_.overwrite(
        0, coordBytes(),
        [&](std::byte *dst, std::size_t bytes, std::size_t) {
            auto *out = reinterpret_cast<double *>(dst);
            for (std::size_t k = 0; k < bytes / sizeof(double); ++k) {
                if (d == 0) {
                    while (cum < u && src + 1 < numParticles) {
                        ++src;
                        cum += w[src];
                    }
                    from = old.data() +
                           static_cast<std::size_t>(src) * numDims;
                    u += step;
                }
                out[k] = from[d];
                if (++d == numDims)
                    d = 0;
            }
        });
    buf_.overwrite(
        coordBytes(), static_cast<std::size_t>(numParticles) * 8,
        [&](std::byte *dst, std::size_t bytes, std::size_t) {
            auto *out = reinterpret_cast<double *>(dst);
            std::fill(out, out + bytes / sizeof(double), step);
        });
}

double
ParticleCloud::mean(unsigned d) const
{
    if (meanValid_)
        return meanCache_[d];
    // One particle-major pass over the coordinate blocks fills every
    // dim.  Each dim's accumulation visits particles in order, so each
    // mean equals a per-dim scan bit for bit.
    const std::span<double> w = grown(scratch.weights, numParticles);
    buf_.forEachRead(coordBytes(), w.size_bytes(),
                     [&](const std::byte *p, std::size_t bytes,
                         std::size_t rel) {
                         std::memcpy(&w[rel / sizeof(double)], p, bytes);
                     });
    std::fill(meanCache_.begin(), meanCache_.end(), 0.0);
    double *acc = meanCache_.data();
    std::size_t p = 0;
    unsigned dd = 0;
    buf_.forEachRead(0, coordBytes(),
                     [&](const std::byte *src, std::size_t bytes,
                         std::size_t) {
                         const auto *in =
                             reinterpret_cast<const double *>(src);
                         for (std::size_t k = 0;
                              k < bytes / sizeof(double); ++k) {
                             acc[dd] += w[p] * in[k];
                             if (++dd == numDims) {
                                 dd = 0;
                                 ++p;
                             }
                         }
                     });
    meanValid_ = true;
    return meanCache_[d];
}

std::size_t
ParticleCloud::sizeBytes() const
{
    return static_cast<std::size_t>(numParticles) *
           (static_cast<std::size_t>(numDims) * 8 + 8);
}

std::uint64_t
cloudCompareBytes(const ParticleCloud &speculative,
                  const ParticleCloud &original,
                  std::size_t full_state_bytes)
{
    const auto side = [&](const ParticleCloud &c) -> std::uint64_t {
        return c.estimatesWarm()
                   ? std::uint64_t{c.dims()} * sizeof(double)
                   : static_cast<std::uint64_t>(full_state_bytes) / 2;
    };
    return side(speculative) + side(original);
}

} // namespace repro::workloads

#include "workloads/particle_filter.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/log.h"

namespace repro::workloads {

ParticleCloud::ParticleCloud(unsigned particles, unsigned dims)
    : numParticles(particles), numDims(dims),
      buf_((static_cast<std::size_t>(particles) * (dims + 1) + 1) *
           sizeof(double))
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
ParticleCloud::propagate(util::Rng &rng, double sigma)
{
    invalidateEstimates();
    buf_.transform(0, coordBytes(),
                   [&](std::byte *dst, const std::byte *src,
                       std::size_t bytes, std::size_t) {
                       auto *out = reinterpret_cast<double *>(dst);
                       const auto *in =
                           reinterpret_cast<const double *>(src);
                       for (std::size_t k = 0;
                            k < bytes / sizeof(double); ++k)
                           out[k] = in[k] + rng.gaussian(0.0, sigma);
                   });
}

void
ParticleCloud::weigh(const std::function<double(unsigned)> &log_likelihood,
                     double floor)
{
    invalidateEstimates();
    std::vector<double> logw(numParticles);
    double max_logw = -1e300;
    for (unsigned p = 0; p < numParticles; ++p) {
        logw[p] = log_likelihood(p);
        max_logw = std::max(max_logw, logw[p]);
    }
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
    std::vector<unsigned> src_of(numParticles);
    double cum = weight(0);
    unsigned src = 0;
    for (unsigned p = 0; p < numParticles; ++p) {
        while (cum < u && src + 1 < numParticles) {
            ++src;
            cum += weight(src);
        }
        src_of[p] = src;
        u += step;
    }
    // The new cloud reads old coordinates across block boundaries, so
    // snapshot them once instead of transforming in place.
    std::vector<double> old(static_cast<std::size_t>(numParticles) *
                            numDims);
    buf_.forEachRead(0, coordBytes(),
                     [&](const std::byte *p, std::size_t bytes,
                         std::size_t rel) {
                         std::memcpy(&old[rel / sizeof(double)], p,
                                     bytes);
                     });
    buf_.overwrite(
        0, coordBytes(),
        [&](std::byte *dst, std::size_t bytes, std::size_t rel) {
            std::size_t i = rel / sizeof(double);
            auto *out = reinterpret_cast<double *>(dst);
            for (std::size_t k = 0; k < bytes / sizeof(double);
                 ++k, ++i) {
                out[k] = old[static_cast<std::size_t>(
                                 src_of[i / numDims]) *
                                 numDims +
                             i % numDims];
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
    // One particle-major pass filling every dim.  Each dim's
    // accumulation visits particles in order, so each mean equals a
    // per-dim scan bit for bit.
    std::vector<double> acc(numDims, 0.0);
    for (unsigned p = 0; p < numParticles; ++p) {
        const double w = weight(p);
        for (unsigned dd = 0; dd < numDims; ++dd)
            acc[dd] += w * coord(p, dd);
    }
    meanCache_ = std::move(acc);
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

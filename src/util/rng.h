/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of nondeterminism in this reproduction flows through Rng so
 * that a whole experiment is a pure function of (workload, config, seed).
 * The paper's subject programs are *nondeterministic*; we model their
 * nondeterminism as draws from an explicitly seeded stream, which lets the
 * STATS commit/abort protocol, the output-variability study (Fig. 16), and
 * every test replay bit-identically.
 *
 * The generator is xoshiro256** seeded via SplitMix64.  Independent logical
 * streams (one per STATS thread, alternative producer, or original-state
 * replica) are derived with split(), which hashes the parent seed with the
 * stream id so sibling streams are statistically uncorrelated.
 *
 * The draw members are defined inline below because every kernel and
 * input generator calls them once per element.  Inlining changes no
 * value: the build enables no floating-point contraction, and
 * Rng.DrawsMatchPinnedValues pins the draws across builds.  The bulk
 * gaussians() fill is the one out-of-line draw: it is called once per
 * block of particle coordinates, and it returns the values of the
 * scalar gaussian() calls it replaces (Rng.GaussiansMatchSuccessiveGaussian).
 */

#ifndef REPRO_UTIL_RNG_H
#define REPRO_UTIL_RNG_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "util/log.h"

namespace repro::util {

/** Mixes a 64-bit value through the SplitMix64 finalizer. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * xoshiro256** pseudo-random generator with explicit stream splitting.
 *
 * Satisfies the UniformRandomBitGenerator named requirement so it can be
 * used with <random> distributions, though the member helpers below are
 * preferred (they are guaranteed stable across standard libraries).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Constructs a generator for @p seed (any value, including 0). */
    explicit Rng(std::uint64_t seed = 0xBADC0FFEE0DDF00DULL);

    /** Minimum value produced by operator(). */
    static constexpr result_type min() { return 0; }
    /** Maximum value produced by operator(). */
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Next raw 64-bit draw. */
    result_type operator()();

    /**
     * Derives an independent child stream.
     *
     * @param stream_id Identifier of the child (e.g. STATS thread index).
     * @return A generator decorrelated from this one and from siblings
     *         created with different ids.
     */
    Rng split(std::uint64_t stream_id) const;

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n).  @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal draw (polar Box-Muller, cached spare). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Writes the values of out.size() successive gaussian() calls to
     * @p out, bit for bit, and leaves the generator where those calls
     * would: the same raw draws consumed and the same spare pending.
     * It draws in blocks of pairs: an accept pass runs the polar
     * method's rejection test without branching on it, then a second
     * pass turns each accepted pair into two normals.
     */
    void gaussians(std::span<double> out);

    /** Exponential draw with the given rate.  @pre rate > 0. */
    double exponential(double rate);

    /** Bernoulli draw: true with probability @p p. */
    bool bernoulli(double p);

    /** The seed this generator was constructed with. */
    std::uint64_t seed() const { return _seed; }

  private:
    /** One xoshiro256** step on the state words s0..s3. */
    static result_type step(std::uint64_t &s0, std::uint64_t &s1,
                            std::uint64_t &s2, std::uint64_t &s3);

    std::uint64_t _seed;
    std::uint64_t s[4];
    double spare = 0.0;
    bool hasSpare = false;
};

inline Rng::result_type
Rng::step(std::uint64_t &s0, std::uint64_t &s1, std::uint64_t &s2,
          std::uint64_t &s3)
{
    const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;

    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);

    return result;
}

inline Rng::result_type
Rng::operator()()
{
    return step(s[0], s[1], s[2], s[3]);
}

inline double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

inline std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    REPRO_ASSERT(n > 0, "uniformInt requires n > 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() -
        std::numeric_limits<std::uint64_t>::max() % n;
    std::uint64_t draw;
    do {
        draw = (*this)();
    } while (draw >= limit);
    return draw % n;
}

inline double
Rng::gaussian()
{
    if (hasSpare) {
        hasSpare = false;
        return spare;
    }
    double u, v, q;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        q = u * u + v * v;
    } while (q >= 1.0 || q == 0.0);
    const double f = std::sqrt(-2.0 * std::log(q) / q);
    spare = v * f;
    hasSpare = true;
    return u * f;
}

inline double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

inline bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

} // namespace repro::util

#endif // REPRO_UTIL_RNG_H

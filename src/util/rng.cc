#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace repro::util {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : _seed(seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

Rng
Rng::split(std::uint64_t stream_id) const
{
    // Mix the parent seed with the stream id through SplitMix64 twice so
    // adjacent ids land far apart in the child seed space.
    std::uint64_t mix = _seed ^ (0xA0761D6478BD642FULL * (stream_id + 1));
    std::uint64_t child = splitmix64(mix);
    child ^= splitmix64(mix);
    return Rng(child);
}

void
Rng::gaussians(std::span<double> out)
{
    const std::size_t n = out.size();
    std::size_t i = 0;
    if (n == 0)
        return;
    if (hasSpare) {
        hasSpare = false;
        out[i++] = spare;
    }

    // gaussian()'s loop, split in two passes per block of pairs.  The
    // accept pass stores every candidate and advances the slot only
    // when gaussian() would have accepted it, so it consumes the same
    // raw draws; the state stays in locals until the end.
    constexpr double lo = -1.0, hi = 1.0;
    constexpr std::size_t kPairs = 128;
    double us[kPairs], vs[kPairs], qs[kPairs];
    std::uint64_t s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
    while (i < n) {
        const std::size_t pairs = std::min(kPairs, (n - i + 1) / 2);
        for (std::size_t got = 0; got < pairs;) {
            const double u =
                lo + (hi - lo) *
                         (static_cast<double>(step(s0, s1, s2, s3) >> 11) *
                          0x1.0p-53);
            const double v =
                lo + (hi - lo) *
                         (static_cast<double>(step(s0, s1, s2, s3) >> 11) *
                          0x1.0p-53);
            const double q = u * u + v * v;
            us[got] = u;
            vs[got] = v;
            qs[got] = q;
            got += static_cast<std::size_t>((q < 1.0) & (q != 0.0));
        }
        for (std::size_t j = 0; j < pairs; ++j) {
            const double f = std::sqrt(-2.0 * std::log(qs[j]) / qs[j]);
            out[i++] = us[j] * f;
            if (i == n) {
                // An odd count leaves this pair's second value pending,
                // as gaussian() would.
                spare = vs[j] * f;
                hasSpare = true;
                break;
            }
            out[i++] = vs[j] * f;
        }
    }
    s[0] = s0;
    s[1] = s1;
    s[2] = s2;
    s[3] = s3;
}

double
Rng::exponential(double rate)
{
    REPRO_ASSERT(rate > 0.0, "exponential requires rate > 0");
    // 1 - uniform() is in (0, 1], so the log argument is never zero.
    return -std::log(1.0 - uniform()) / rate;
}

} // namespace repro::util

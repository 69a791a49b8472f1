#include "util/rng.h"

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

double
Rng::exponential(double rate)
{
    REPRO_ASSERT(rate > 0.0, "exponential requires rate > 0");
    // 1 - uniform() is in (0, 1], so the log argument is never zero.
    return -std::log(1.0 - uniform()) / rate;
}

} // namespace repro::util

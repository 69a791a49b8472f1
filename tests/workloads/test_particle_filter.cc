/**
 * @file
 * Unit tests for the particle-cloud primitive
 * (workloads/particle_filter.h).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "workloads/particle_filter.h"

namespace {

using repro::util::Rng;
using repro::workloads::ParticleCloud;

TEST(ParticleCloud, ConstructionZeroed)
{
    ParticleCloud c(10, 3);
    EXPECT_EQ(c.particles(), 10u);
    EXPECT_EQ(c.dims(), 3u);
    for (unsigned p = 0; p < 10; ++p) {
        for (unsigned d = 0; d < 3; ++d)
            EXPECT_DOUBLE_EQ(c.coord(p, d), 0.0);
        EXPECT_DOUBLE_EQ(c.weight(p), 0.1);
    }
}

TEST(ParticleCloud, SizeBytes)
{
    // 250 particles x (3 dims x 8 + 8 weight) = 8000: the facetrack
    // state size of Table I.
    ParticleCloud c(250, 3);
    EXPECT_EQ(c.sizeBytes(), 8000u);
}

TEST(ParticleCloud, SpreadUniformDeterministicInBounds)
{
    ParticleCloud a(100, 2), b(100, 2);
    a.spreadUniform(0.0, 50.0);
    b.spreadUniform(0.0, 50.0);
    for (unsigned p = 0; p < 100; ++p) {
        for (unsigned d = 0; d < 2; ++d) {
            EXPECT_DOUBLE_EQ(a.coord(p, d), b.coord(p, d));
            EXPECT_GE(a.coord(p, d), 0.0);
            EXPECT_LE(a.coord(p, d), 50.0);
        }
    }
}

TEST(ParticleCloud, SpreadCoversSpace)
{
    ParticleCloud c(256, 1);
    c.spreadUniform(0.0, 1.0);
    int low = 0, high = 0;
    for (unsigned p = 0; p < 256; ++p) {
        low += c.coord(p, 0) < 0.5 ? 1 : 0;
        high += c.coord(p, 0) >= 0.5 ? 1 : 0;
    }
    EXPECT_GT(low, 100);
    EXPECT_GT(high, 100);
}

TEST(ParticleCloud, CollapseTo)
{
    ParticleCloud c(20, 2);
    c.collapseTo({7.0, -3.0});
    for (unsigned p = 0; p < 20; ++p) {
        EXPECT_DOUBLE_EQ(c.coord(p, 0), 7.0);
        EXPECT_DOUBLE_EQ(c.coord(p, 1), -3.0);
    }
    EXPECT_DOUBLE_EQ(c.mean(0), 7.0);
    EXPECT_DOUBLE_EQ(c.mean(1), -3.0);
}

TEST(ParticleCloud, PropagateAddsNoise)
{
    ParticleCloud c(500, 2);
    c.collapseTo({0.0, 0.0});
    Rng rng(5);
    c.propagate(rng, 1.0);
    double var = 0.0;
    for (unsigned p = 0; p < 500; ++p)
        var += c.coord(p, 0) * c.coord(p, 0);
    var /= 500;
    EXPECT_NEAR(var, 1.0, 0.2);
    EXPECT_NEAR(c.mean(0), 0.0, 0.15);
}

TEST(ParticleCloud, WeighNormalizes)
{
    ParticleCloud c(50, 1);
    c.spreadUniform(0.0, 10.0);
    c.weigh([&](unsigned p) { return -c.coord(p, 0); });
    double sum = 0.0;
    for (unsigned p = 0; p < 50; ++p) {
        EXPECT_GT(c.weight(p), 0.0);
        sum += c.weight(p);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ParticleCloud, WeighPrefersLikelyParticles)
{
    ParticleCloud c(2, 1);
    c.setCoord(0, 0, 0.0);
    c.setCoord(1, 0, 10.0);
    // Observation at 0: particle 0 is far more likely.
    c.weigh([&](unsigned p) {
        const double d = c.coord(p, 0);
        return -d * d;
    });
    EXPECT_GT(c.weight(0), 0.9);
}

TEST(ParticleCloud, WeighFloorKeepsOutliersAlive)
{
    ParticleCloud c(4, 1);
    for (unsigned p = 0; p < 4; ++p)
        c.setCoord(p, 0, p == 0 ? 0.0 : 100.0);
    c.weigh([&](unsigned p) { return -c.coord(p, 0) * c.coord(p, 0); },
            0.01);
    for (unsigned p = 1; p < 4; ++p)
        EXPECT_GT(c.weight(p), 0.001);
}

TEST(ParticleCloud, ResampleConcentrates)
{
    ParticleCloud c(1000, 1);
    c.spreadUniform(0.0, 100.0);
    // Sharp likelihood around 50.
    c.weigh([&](unsigned p) {
        const double d = c.coord(p, 0) - 50.0;
        return -d * d / 2.0;
    });
    Rng rng(9);
    c.resample(rng);
    EXPECT_NEAR(c.mean(0), 50.0, 2.0);
    // Weights uniform after resampling.
    for (unsigned p = 0; p < 1000; ++p)
        EXPECT_DOUBLE_EQ(c.weight(p), 0.001);
}

TEST(ParticleCloud, ResampleDeterministicGivenRng)
{
    ParticleCloud a(100, 1), b(100, 1);
    a.spreadUniform(0.0, 10.0);
    b.spreadUniform(0.0, 10.0);
    auto like = [](ParticleCloud &c) {
        c.weigh([&](unsigned p) { return -c.coord(p, 0); });
    };
    like(a);
    like(b);
    Rng r1(3), r2(3);
    a.resample(r1);
    b.resample(r2);
    for (unsigned p = 0; p < 100; ++p)
        EXPECT_DOUBLE_EQ(a.coord(p, 0), b.coord(p, 0));
}

TEST(ParticleCloud, CopyIsDeep)
{
    ParticleCloud a(10, 1);
    a.collapseTo({1.0});
    ParticleCloud b = a;
    b.setCoord(0, 0, 99.0);
    EXPECT_DOUBLE_EQ(a.coord(0, 0), 1.0);
}

TEST(ParticleCloud, MeanCacheMatchesLegacyScanBitwise)
{
    // The mean cache fills every dim in one particle-major pass; each
    // dim must accumulate the exact operands in the exact order of a
    // per-dim scan, so the cached value is bit-identical (not merely
    // close) to it.
    const auto build = [] {
        ParticleCloud c(523, 3); // Straddles block boundaries unevenly.
        c.spreadUniform(0.0, 100.0);
        Rng rng(11);
        c.propagate(rng, 2.0);
        c.weigh([&](unsigned p) { return -c.coord(p, 0) / 10.0; });
        return c;
    };
    const ParticleCloud c = build();
    EXPECT_FALSE(c.estimatesWarm());
    for (unsigned d = 0; d < c.dims(); ++d) {
        double legacy = 0.0;
        for (unsigned p = 0; p < c.particles(); ++p)
            legacy += c.weight(p) * c.coord(p, d);
        ASSERT_EQ(c.mean(d), legacy) << "dim " << d;
    }
    EXPECT_TRUE(c.estimatesWarm());
}

TEST(ParticleCloud, BatchedDrawsMatchPerElementDraws)
{
    // reseed() and the per-dimension propagate() draw in bulk; each must
    // leave the coordinates, the flags word and the RNG bit-identical to
    // a per-coordinate rng.gaussian(0.0, sigma[d]) loop in (particle,
    // dimension) order.  A fresh cloud transforms in place; a clone
    // sharing every block takes the copy-on-write path, and its parent
    // must not change.
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const auto coordBits = [&](const ParticleCloud &c) {
        std::vector<std::uint64_t> out;
        for (unsigned p = 0; p < c.particles(); ++p) {
            for (unsigned d = 0; d < c.dims(); ++d)
                out.push_back(bits(c.coord(p, d)));
        }
        return out;
    };
    // (3000, 20) spans about 120 blocks.
    for (const auto &[particles, dims] :
         {std::pair{250u, 3u}, std::pair{3000u, 20u}}) {
        std::vector<double> center(dims), sigma(dims);
        for (unsigned d = 0; d < dims; ++d) {
            center[d] = 10.0 + d;
            sigma[d] = 0.5 + 0.25 * d;
        }
        const auto make = [&] {
            ParticleCloud c(particles, dims);
            c.spreadUniform(-50.0, 50.0);
            c.setFlagsWord(0xF1A65);
            return c;
        };
        const ParticleCloud parent = make();
        const std::vector<std::uint64_t> before = coordBits(parent);

        for (const bool shared : {false, true}) {
            for (const bool reseed : {true, false}) {
                const std::string what =
                    std::to_string(particles) + "x" + std::to_string(dims) +
                    (shared ? " clone" : " fresh") +
                    (reseed ? " reseed" : " propagate");
                ParticleCloud cloud = shared ? parent : make();
                if (shared) {
                    ASSERT_EQ(
                        cloud.buffer().sharedBlocksWith(parent.buffer()),
                        parent.buffer().numBlocks());
                }
                // One odd draw first, so the bulk draws start on a
                // pending spare.
                Rng rng(23), ref(23);
                rng.gaussian();
                ref.gaussian();
                std::vector<std::uint64_t> expected;
                for (unsigned p = 0; p < particles; ++p) {
                    for (unsigned d = 0; d < dims; ++d) {
                        const double base =
                            reseed ? center[d] : parent.coord(p, d);
                        expected.push_back(
                            bits(base + ref.gaussian(0.0, sigma[d])));
                    }
                }
                if (reseed)
                    cloud.reseed(rng, center, sigma);
                else
                    cloud.propagate(rng, sigma);

                EXPECT_TRUE(coordBits(cloud) == expected) << what;
                EXPECT_EQ(cloud.flagsWord(), 0xF1A65u) << what;
                Rng rng_next = rng, ref_next = ref;
                EXPECT_EQ(rng_next(), ref_next()) << what;
                EXPECT_EQ(bits(rng.gaussian()), bits(ref.gaussian()))
                    << what;
            }
        }
        EXPECT_TRUE(coordBits(parent) == before);
        EXPECT_EQ(parent.flagsWord(), 0xF1A65u);
    }
}

} // namespace

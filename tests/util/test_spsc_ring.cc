/**
 * @file
 * Unit tests for the bounded SPSC ring (util/spsc_ring.h): FIFO order,
 * exact capacity (including non-power-of-two), wrap-around over many
 * cycles, the positional consumer calls (pushed, at, bulk pop), and a
 * producer/consumer stress run that the TSan CI job exercises for
 * ordering bugs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/spsc_ring.h"

namespace {

using repro::util::SpscRing;

TEST(SpscRing, FifoOrderAndEmptyness)
{
    SpscRing<int> ring(4);
    EXPECT_TRUE(ring.empty());
    int out = 0;
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_TRUE(ring.tryPush(1));
    EXPECT_TRUE(ring.tryPush(2));
    EXPECT_TRUE(ring.tryPush(3));
    EXPECT_EQ(ring.size(), 3u);
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 1);
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 2);
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 3);
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingReportsBackpressureAtRequestedCapacity)
{
    // Capacity 3 rounds up to 4 slots internally, but the *requested*
    // bound is what full is measured against.
    SpscRing<int> ring(3);
    EXPECT_EQ(ring.capacity(), 3u);
    EXPECT_TRUE(ring.tryPush(10));
    EXPECT_TRUE(ring.tryPush(11));
    EXPECT_TRUE(ring.tryPush(12));
    EXPECT_FALSE(ring.tryPush(13)); // Backpressure, value not consumed.
    int out = 0;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 10);
    EXPECT_TRUE(ring.tryPush(13)); // One slot freed, push succeeds.
    EXPECT_EQ(ring.size(), 3u);
}

TEST(SpscRing, WrapAroundPreservesOrderAcrossManyCycles)
{
    SpscRing<std::uint64_t> ring(8);
    std::uint64_t next = 0;
    std::uint64_t expect = 0;
    // Push/pop in ragged bursts so head and tail lap the slot array
    // many times at different phases.
    for (int cycle = 0; cycle < 200; ++cycle) {
        const int burst = 1 + cycle % 8;
        for (int i = 0; i < burst; ++i) {
            if (!ring.tryPush(next))
                break;
            ++next;
        }
        const int drain = 1 + (cycle * 3) % 8;
        std::uint64_t out = 0;
        for (int i = 0; i < drain && ring.tryPop(out); ++i)
            EXPECT_EQ(out, expect++);
    }
    std::uint64_t out = 0;
    while (ring.tryPop(out))
        EXPECT_EQ(out, expect++);
    EXPECT_EQ(expect, next);
}

TEST(SpscRing, PositionalReadsAndBulkPopAcrossWrap)
{
    // Capacity 5 on 8 slots: the consumer reads queued values in place
    // by position and frees them in bulk, lapping the slots many times.
    SpscRing<std::uint64_t> ring(5);
    const auto value = [](std::uint64_t pos) { return pos * 7 + 1; };
    std::uint64_t next = 0;
    std::uint64_t popped = 0;
    for (int cycle = 0; cycle < 40; ++cycle) {
        while (ring.tryPush(value(next)))
            ++next;
        ASSERT_EQ(ring.pushed(), next);
        ASSERT_EQ(next - popped, ring.capacity());
        for (std::uint64_t pos = popped; pos < ring.pushed(); ++pos)
            ASSERT_EQ(ring.at(pos), value(pos)) << "position " << pos;

        // pop(n) frees exactly n slots.
        const std::size_t n = 1 + cycle % 5;
        ring.pop(n);
        popped += n;
        EXPECT_EQ(ring.size(), ring.capacity() - n);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(ring.tryPush(value(next)));
            ++next;
        }
        EXPECT_FALSE(ring.tryPush(0));
    }
    EXPECT_GT(next, 10u * 8); // Ten laps of the slot array at least.

    // tryPop carries on from where the bulk pops left the tail.
    std::uint64_t out = 0;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, value(popped));
    EXPECT_EQ(ring.size(), ring.capacity() - 1);
}

TEST(SpscRing, ConcurrentProducerConsumerDeliversEverythingInOrder)
{
    constexpr std::uint64_t kItems = 100000;
    SpscRing<std::uint64_t> ring(64);
    // Yield on full/empty: on a single-core host a bare spin burns a
    // whole scheduler quantum per hand-off.
    std::thread producer([&] {
        std::uint64_t v = 0;
        while (v < kItems) {
            if (ring.tryPush(v))
                ++v;
            else
                std::this_thread::yield();
        }
    });
    std::uint64_t expect = 0;
    std::uint64_t out = 0;
    while (expect < kItems) {
        if (ring.tryPop(out)) {
            ASSERT_EQ(out, expect);
            ++expect;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, SizeIsBoundedDuringConcurrentTraffic)
{
    constexpr std::uint64_t kItems = 20000;
    SpscRing<std::uint64_t> ring(16);
    std::thread producer([&] {
        std::uint64_t v = 0;
        while (v < kItems) {
            if (ring.tryPush(v))
                ++v;
            else
                std::this_thread::yield();
        }
    });
    std::uint64_t drained = 0;
    std::uint64_t out = 0;
    while (drained < kItems) {
        EXPECT_LE(ring.size(), 16u);
        if (ring.tryPop(out))
            ++drained;
        else
            std::this_thread::yield();
    }
    producer.join();
}

} // namespace

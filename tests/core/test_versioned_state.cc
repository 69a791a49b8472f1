/**
 * @file
 * Unit tests for the copy-on-write versioned state payload
 * (core/versioned_state.h): clone sharing and materialization,
 * aliasing safety across abort-style
 * drop/re-clone cycles, refcount teardown, dirty-block tracking,
 * incremental validation, and the concurrent readers + one writer
 * contract (the TSan job runs the VersionedState.* suite).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include "core/versioned_state.h"
#include "util/block_arena.h"

namespace {

using repro::core::VersionedBuffer;
using repro::util::BlockArena;

constexpr std::size_t kBytes = 10000; // 3 pages: 4096 + 4096 + 1808.

VersionedBuffer
filled(std::size_t bytes, BlockArena *arena = nullptr)
{
    VersionedBuffer buf(bytes, arena);
    for (std::size_t i = 0; i < bytes / sizeof(double); ++i)
        buf.set<double>(i, static_cast<double>(i) * 0.5 + 1.0);
    return buf;
}

TEST(VersionedState, FreshBufferIsZeroFilledAndClean)
{
    const VersionedBuffer buf(kBytes);
    EXPECT_EQ(buf.sizeBytes(), kBytes);
    EXPECT_EQ(buf.numBlocks(), 3u);
    EXPECT_EQ(buf.dirtyBlockCount(), 0u);
    EXPECT_EQ(buf.copiedBytes(), 0u);
    for (std::size_t i = 0; i < kBytes / sizeof(double); ++i)
        EXPECT_EQ(buf.get<double>(i), 0.0);
}

TEST(VersionedState, CowCloneSharesEveryBlock)
{
    const VersionedBuffer a = filled(kBytes);
    const VersionedBuffer b(a);
    EXPECT_EQ(b.creationStats().blocksShared, 3u);
    EXPECT_EQ(b.creationStats().blocksCopied, 0u);
    EXPECT_EQ(b.creationStats().bytesCopied, 0u);
    EXPECT_EQ(a.sharedBlocksWith(b), 3u);
    EXPECT_TRUE(VersionedBuffer::contentEquals(a, b));
}

TEST(VersionedState, WriteMaterializesOnlyTheTouchedBlock)
{
    const VersionedBuffer a = filled(kBytes);
    VersionedBuffer b(a);
    b.set<double>(0, -7.0); // Block 0 only.
    EXPECT_EQ(a.sharedBlocksWith(b), 2u);
    EXPECT_EQ(b.copiedBytes(), 4096u);
    EXPECT_EQ(b.dirtyBlockCount(), 1u);
    EXPECT_TRUE(b.blockDirty(0));
    EXPECT_FALSE(b.blockDirty(1));
    // The source is untouched.
    EXPECT_EQ(a.get<double>(0), 1.0);
    EXPECT_EQ(b.get<double>(0), -7.0);
    EXPECT_FALSE(VersionedBuffer::contentEquals(a, b));
    // A second write to the same block materializes nothing new.
    b.set<double>(1, -8.0);
    EXPECT_EQ(b.copiedBytes(), 4096u);
}

TEST(VersionedState, FullOverwriteSwapsBlocksWithoutCopying)
{
    const VersionedBuffer a = filled(kBytes);
    VersionedBuffer b(a);
    b.overwrite(0, kBytes,
                [](std::byte *dst, std::size_t bytes, std::size_t) {
                    std::memset(dst, 0x5A, bytes);
                });
    EXPECT_EQ(a.sharedBlocksWith(b), 0u);
    EXPECT_EQ(b.copiedBytes(), 0u); // Stale bytes never moved.
    EXPECT_EQ(b.dirtyBlockCount(), 3u);
    EXPECT_EQ(a.get<double>(0), 1.0); // Source intact.
}

TEST(VersionedState, TransformReadsOldBytesWhileWritingFreshBlock)
{
    const VersionedBuffer a = filled(kBytes);
    VersionedBuffer b(a);
    b.transform(0, kBytes,
                [](std::byte *dst, const std::byte *src,
                   std::size_t bytes, std::size_t) {
                    auto *out = reinterpret_cast<double *>(dst);
                    const auto *in =
                        reinterpret_cast<const double *>(src);
                    for (std::size_t k = 0; k < bytes / sizeof(double);
                         ++k)
                        out[k] = in[k] + 100.0;
                });
    EXPECT_EQ(b.copiedBytes(), 0u);
    for (std::size_t i = 0; i < kBytes / sizeof(double); ++i) {
        EXPECT_EQ(a.get<double>(i), static_cast<double>(i) * 0.5 + 1.0);
        EXPECT_EQ(b.get<double>(i), a.get<double>(i) + 100.0);
    }
}

TEST(VersionedState, AbortStyleDropAndReCloneKeepsSourceValid)
{
    // The abort path: a speculative version diverges, is discarded,
    // and the original is re-cloned for re-execution.
    const VersionedBuffer original = filled(kBytes);
    {
        VersionedBuffer speculative(original);
        speculative.set<double>(3, 1e9);
        speculative.overwrite(
            4096, 4096,
            [](std::byte *dst, std::size_t bytes, std::size_t) {
                std::memset(dst, 0xFF, bytes);
            });
    } // Abort: the speculative version dies here.
    for (std::size_t i = 0; i < kBytes / sizeof(double); ++i)
        EXPECT_EQ(original.get<double>(i),
                  static_cast<double>(i) * 0.5 + 1.0);
    const VersionedBuffer redo(original);
    EXPECT_EQ(redo.creationStats().blocksShared, 3u);
    EXPECT_TRUE(VersionedBuffer::contentEquals(original, redo));
}

TEST(VersionedState, RefcountTeardownReturnsEveryBlock)
{
    BlockArena arena(512);
    {
        const VersionedBuffer a = filled(2000, &arena); // 4 blocks.
        VersionedBuffer b(a);
        VersionedBuffer c(b);
        c.set<double>(0, 9.0); // One materialized block on top.
        EXPECT_EQ(arena.liveBlocks(), 5u);
    }
    EXPECT_EQ(arena.liveBlocks(), 0u);
}

TEST(VersionedState, DirtyBitmapResetsAtVersionBoundary)
{
    VersionedBuffer buf = filled(kBytes);
    buf.clearDirty();
    EXPECT_EQ(buf.dirtyBlockCount(), 0u);
    buf.set<double>(600, 3.25); // 4800 bytes in: block 1.
    EXPECT_EQ(buf.dirtyBlockCount(), 1u);
    EXPECT_TRUE(buf.blockDirty(1));
    // A clone starts clean even though its source is dirty.
    const VersionedBuffer child(buf);
    EXPECT_EQ(child.dirtyBlockCount(), 0u);
}

TEST(VersionedState, ContentHashIsIncrementalAndContentDefined)
{
    VersionedBuffer buf = filled(kBytes);
    const std::uint64_t h1 = buf.contentHash();
    EXPECT_EQ(buf.contentHash(), h1); // Cached per-block fingerprints.
    const double old = buf.get<double>(42);
    buf.set<double>(42, old + 1.0);
    const std::uint64_t h2 = buf.contentHash();
    EXPECT_NE(h2, h1);
    buf.set<double>(42, old); // Same bytes again.
    EXPECT_EQ(buf.contentHash(), h1);
}

TEST(VersionedState, ContentEqualsAfterByteEqualRewrite)
{
    // Materialized-but-equal blocks must still compare equal: the
    // cached-hash shortcut only proves inequality, never equality.
    const VersionedBuffer a = filled(kBytes);
    VersionedBuffer b(a);
    const double v = b.get<double>(10);
    b.set<double>(10, v + 5.0);
    EXPECT_FALSE(VersionedBuffer::contentEquals(a, b));
    b.set<double>(10, v);
    EXPECT_EQ(a.sharedBlocksWith(b), 2u); // Block 0 stays private...
    EXPECT_TRUE(VersionedBuffer::contentEquals(a, b)); // ...yet equal.
}

TEST(VersionedState, MixedBlockSizesCompareByContent)
{
    BlockArena small(256);
    const VersionedBuffer a = filled(2000, &small);
    const VersionedBuffer b = filled(2000); // Global 4 KB blocks.
    EXPECT_TRUE(VersionedBuffer::contentEquals(a, b));
    VersionedBuffer c = filled(2000, &small);
    c.set<double>(249, -1.0); // Last element, in the final partial block.
    EXPECT_FALSE(VersionedBuffer::contentEquals(b, c));
}

TEST(VersionedState, ConcurrentReadersOneWriter)
{
    // The runtime's sharing pattern: one thread mutates its private
    // version (materializing blocks and releasing shared references)
    // while other threads read, hash, and compare versions that share
    // blocks with it.
    const VersionedBuffer original = filled(kBytes);
    VersionedBuffer writer_version(original);
    const VersionedBuffer reader_version(original);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            std::uint64_t acc = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                acc ^= original.contentHash();
                acc += VersionedBuffer::contentEquals(original,
                                                      reader_version)
                           ? 1
                           : 0;
                acc += static_cast<std::uint64_t>(
                    original.get<double>(11));
            }
            EXPECT_NE(acc, std::uint64_t{0xFFFFFFFFFFFFFFFF});
        });
    }
    for (int round = 0; round < 200; ++round) {
        writer_version.set<double>(
            static_cast<std::size_t>(round) % (kBytes / sizeof(double)),
            static_cast<double>(round));
        VersionedBuffer scratch(writer_version);
        scratch.set<double>(0, -1.0);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : readers)
        t.join();

    // Readers never observed the writer's bytes.
    EXPECT_TRUE(VersionedBuffer::contentEquals(original, reader_version));
    EXPECT_EQ(original.get<double>(0), 1.0);
}

} // namespace

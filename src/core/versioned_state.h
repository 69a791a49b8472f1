/**
 * @file
 * Zero-copy state versioning: copy-on-write block payloads with
 * dirty-block tracking and incremental content validation.
 *
 * Every speculative hand-off, original-state snapshot, and abort
 * restart in the STATS protocol clones a whole computational state,
 * and every commit check scans one (§V-B's state-copy and
 * state-comparison extra-computation categories).  VersionedBuffer
 * removes the bulk of that traffic: a state payload is sliced into
 * fixed-size refcounted blocks (util::BlockArena), so
 *
 *  - cloning is O(blocks) atomic increments — no bytes move;
 *  - a writer materializes private blocks on first write, and a *full*
 *    block overwrite (or read-modify-write transform) installs a fresh
 *    block without ever copying the stale bytes;
 *  - each version keeps a dirty-block bitmap (blocks written since the
 *    version was created, i.e. since its chunk boundary) and each
 *    block caches a 64-bit content fingerprint, so re-validating a
 *    little-changed state re-hashes or re-compares only what changed.
 *
 * Soundness rule: cached hashes accelerate *equality* checks only in
 * the sound direction (shared block => equal; different cached hashes
 * => unequal).  A hash match never substitutes for a byte comparison
 * and never feeds a commit verdict — commit decisions come from the
 * model alone, and the engine-oracle tests pin them bit for bit.
 *
 * Thread-safety contract (matches the runtime's use): a buffer may be
 * cloned and read concurrently from many threads; writing requires
 * exclusive use of that buffer object.  Shared *blocks* are immutable
 * until their refcount drops to one.
 */

#ifndef REPRO_CORE_VERSIONED_STATE_H
#define REPRO_CORE_VERSIONED_STATE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/state.h"
#include "util/block_arena.h"

namespace repro::core {

/** What one clone actually did (feeds the DES cost model and the
 *  runtime's copy accounting). */
struct CloneStats
{
    std::uint64_t blocksShared = 0; //!< Refcount bumps (no bytes moved).
    std::uint64_t blocksCopied = 0; //!< Blocks copied at clone time.
    std::uint64_t bytesCopied = 0;  //!< Bytes those copies moved.
};

/**
 * A state payload of fixed byte size backed by refcounted arena
 * blocks.  All accessors take *byte* offsets into the logical payload;
 * the typed get/set helpers take element indices of trivially
 * copyable T (an element must not straddle a block boundary — block
 * sizes are powers of two, so any power-of-two element size is safe).
 */
class VersionedBuffer
{
  public:
    /** A zero-filled payload of @p bytes bytes in @p arena (null: the
     *  process-wide arena). */
    explicit VersionedBuffer(std::size_t bytes,
                             util::BlockArena *arena = nullptr);

    /** Clone: shares every block (copy-on-write). */
    VersionedBuffer(const VersionedBuffer &other);
    VersionedBuffer &operator=(const VersionedBuffer &other);
    VersionedBuffer(VersionedBuffer &&other) noexcept;
    VersionedBuffer &operator=(VersionedBuffer &&other) noexcept;
    ~VersionedBuffer();

    std::size_t sizeBytes() const { return bytes_; }
    std::size_t numBlocks() const { return blocks_.size(); }
    std::size_t blockBytes() const { return mask_ + 1; }

    /** What creating this buffer cost (zeros for a fresh buffer). */
    const CloneStats &creationStats() const { return creation_; }

    /** Bytes copied by write-triggered materializations since this
     *  version was created (excludes clone-time copies). */
    std::uint64_t copiedBytes() const { return copiedBytes_; }

    // ----- Typed element access -----------------------------------------

    template <typename T>
    T
    get(std::size_t index) const
    {
        const std::size_t off = index * sizeof(T);
        T v;
        std::memcpy(&v, blockData(off >> shift_) + (off & mask_),
                    sizeof(T));
        return v;
    }

    template <typename T>
    void
    set(std::size_t index, T value)
    {
        const std::size_t off = index * sizeof(T);
        std::memcpy(writableBlock(off >> shift_) + (off & mask_), &value,
                    sizeof(T));
    }

    // ----- Blockwise bulk access ----------------------------------------
    // Each visits the range [off, off + n) in block-contiguous pieces,
    // calling fn(ptr.., piece_bytes, rel_off) with rel_off the piece's
    // offset from the range start.

    /** Read-only visit. */
    template <typename Fn>
    void
    forEachRead(std::size_t off, std::size_t n, Fn &&fn) const
    {
        std::size_t pos = off;
        const std::size_t end = off + n;
        while (pos < end) {
            const std::size_t bi = pos >> shift_;
            const std::size_t bstart = bi << shift_;
            const std::size_t pend = std::min(end, bstart + blockBytes());
            fn(blockData(bi) + (pos - bstart), pend - pos, pos - off);
            pos = pend;
        }
    }

    /**
     * Full overwrite: fn must write *every* byte of each piece it is
     * handed.  Pieces covering a whole block swap in a fresh block
     * without copying the stale bytes — the fast path that makes
     * rewriting a cloned state cost zero copies.
     */
    template <typename Fn>
    void
    overwrite(std::size_t off, std::size_t n, Fn &&fn)
    {
        std::size_t pos = off;
        const std::size_t end = off + n;
        while (pos < end) {
            const std::size_t bi = pos >> shift_;
            const std::size_t bstart = bi << shift_;
            const std::size_t used = bstart + usedBytes(bi);
            const std::size_t pend = std::min(end, bstart + blockBytes());
            std::byte *base = (pos == bstart && pend >= used)
                                  ? freshBlock(bi)
                                  : writableBlock(bi);
            fn(base + (pos - bstart), pend - pos, pos - off);
            pos = pend;
        }
    }

    /**
     * Read-modify-write transform: fn(dst, src, bytes, rel_off) reads
     * the old bytes from src and writes every byte of dst.  dst and
     * src alias when the block is exclusively owned; on a shared block
     * a whole-block piece writes into a fresh block while reading the
     * shared one — again, no copy of the stale bytes.
     */
    template <typename Fn>
    void
    transform(std::size_t off, std::size_t n, Fn &&fn)
    {
        std::size_t pos = off;
        const std::size_t end = off + n;
        while (pos < end) {
            const std::size_t bi = pos >> shift_;
            const std::size_t bstart = bi << shift_;
            const std::size_t used = bstart + usedBytes(bi);
            const std::size_t pend = std::min(end, bstart + blockBytes());
            if (pos == bstart && pend >= used) {
                const TransformSlot slot = beginFullTransform(bi);
                fn(slot.dst, slot.src, pend - pos, pos - off);
                endFullTransform(slot);
            } else {
                std::byte *base = writableBlock(bi);
                const std::size_t d = pos - bstart;
                fn(base + d, base + d, pend - pos, pos - off);
            }
            pos = pend;
        }
    }

    // ----- Dirty tracking ------------------------------------------------

    /** Marks every block clean (a new version boundary). */
    void clearDirty();

    /** Blocks written since creation / the last clearDirty(). */
    std::size_t dirtyBlockCount() const;

    /** Whether block @p bi was written since the last boundary. */
    bool
    blockDirty(std::size_t bi) const
    {
        return (dirty_[bi >> 6] >> (bi & 63)) & 1;
    }

    // ----- Validation ----------------------------------------------------

    /**
     * Byte equality of two payloads.  Shared blocks are skipped
     * (pointer equality proves byte equality); differing cached
     * fingerprints prove inequality without a scan; everything else
     * falls back to the word-at-a-time comparison kernel.
     */
    static bool contentEquals(const VersionedBuffer &a,
                              const VersionedBuffer &b);

    /** 64-bit content fingerprint; per-block hashes are cached in the
     *  block headers, so only dirty blocks re-hash. */
    std::uint64_t contentHash() const;

    /** Where two payloads diverge (abort root-cause attribution). */
    struct DiffReport
    {
        bool comparable = false; //!< Same logical size.
        bool equal = false;
        /** First block index (of @p a's block granularity) whose bytes
         *  differ; -1 when equal or not comparable. */
        std::int64_t firstDiffBlock = -1;
        std::uint64_t bytesCompared = 0; //!< Bytes actually scanned.
        std::uint64_t blocksShared = 0;  //!< Skipped by identity.
    };

    /**
     * Diagnosis companion of contentEquals: walks the same
     * shared-skip / byte-compare ladder but reports *where* the first
     * difference lives instead of just the verdict, and — unlike
     * contentEquals — ticks no state.validation_* counters and never
     * consults cached fingerprints (a diagnosis wants the block
     * actually scanned, and it must not perturb the counters the
     * validation path is gated on in CI).
     */
    static DiffReport diffReport(const VersionedBuffer &a,
                                 const VersionedBuffer &b);

    /** Blocks physically shared with @p other (tests/metrics). */
    std::size_t sharedBlocksWith(const VersionedBuffer &other) const;

  private:
    struct TransformSlot
    {
        std::byte *dst;
        const std::byte *src;
        util::BlockArena::Block *fresh; //!< Null when in-place.
        std::size_t bi;
    };

    const std::byte *
    blockData(std::size_t bi) const
    {
        return blocks_[bi]->data();
    }

    /** Data bytes of block @p bi the payload actually uses. */
    std::size_t
    usedBytes(std::size_t bi) const
    {
        return std::min(blockBytes(), bytes_ - (bi << shift_));
    }

    void markDirty(std::size_t bi);
    std::byte *writableBlock(std::size_t bi); //!< Copy-materialize.
    std::byte *freshBlock(std::size_t bi);    //!< Swap, no copy.
    TransformSlot beginFullTransform(std::size_t bi);
    void endFullTransform(const TransformSlot &slot);
    void releaseAll();

    util::BlockArena *arena_ = nullptr;
    std::size_t bytes_ = 0;
    unsigned shift_ = 0;
    std::size_t mask_ = 0;
    std::vector<util::BlockArena::Block *> blocks_;
    std::vector<std::uint64_t> dirty_; //!< Bitmap, one bit per block.
    CloneStats creation_;
    std::uint64_t copiedBytes_ = 0;
};

/** CoW-materialization bytes a state accumulated so far (0 for states
 *  without a block payload). */
inline std::uint64_t
stateCopiedBytes(const State &s)
{
    const VersionedBuffer *p = s.payload();
    return p ? p->copiedBytes() : 0;
}

/** What cloning produced @p s cost; legacy deep-copy states report a
 *  full copy of @p fallback_bytes. */
inline CloneStats
stateCloneStats(const State &s, std::size_t fallback_bytes)
{
    if (const VersionedBuffer *p = s.payload())
        return p->creationStats();
    CloneStats stats;
    stats.blocksCopied =
        (fallback_bytes + util::BlockArena::kDefaultBlockBytes - 1) /
        util::BlockArena::kDefaultBlockBytes;
    stats.bytesCopied = fallback_bytes;
    return stats;
}

} // namespace repro::core

#endif // REPRO_CORE_VERSIONED_STATE_H

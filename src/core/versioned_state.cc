#include "core/versioned_state.h"

#include <algorithm>
#include <bit>

#include "metrics/metrics.h"
#include "util/blockops.h"

namespace repro::core {

namespace {

/** Registry handles for the state layer, resolved once. */
struct StateCounters
{
    metrics::Counter &blocksShared;    //!< Clone-time refcount bumps.
    metrics::Counter &blocksCopied;    //!< Write materializations.
    metrics::Counter &bytesCopied;     //!< Bytes those copies moved.
    metrics::Counter &blocksSwapped;   //!< Full overwrites, no copy.
    metrics::Counter &valCompared;     //!< Validation blocks byte-compared.
    metrics::Counter &valSkipped;      //!< ... skipped (physically shared).
    metrics::Counter &valHashed;       //!< ... re-fingerprinted.
    metrics::LatencyHistogram &cloneSeconds;
};

StateCounters &
stateCounters()
{
    auto &reg = metrics::MetricsRegistry::global();
    static StateCounters m{
        reg.counter("state.blocks_shared"),
        reg.counter("state.blocks_copied"),
        reg.counter("state.bytes_copied"),
        reg.counter("state.blocks_swapped"),
        reg.counter("state.validation_blocks_compared"),
        reg.counter("state.validation_blocks_skipped"),
        reg.counter("state.validation_blocks_hashed"),
        reg.histogram("state.clone_seconds")};
    return m;
}

} // namespace

VersionedBuffer::VersionedBuffer(std::size_t bytes,
                                 util::BlockArena *arena)
    : arena_(arena ? arena : &util::BlockArena::global()), bytes_(bytes)
{
    const std::size_t bb = arena_->blockBytes();
    shift_ = static_cast<unsigned>(std::countr_zero(bb));
    mask_ = bb - 1;
    const std::size_t n = (bytes_ + bb - 1) >> shift_;
    blocks_.resize(n);
    dirty_.assign((n + 63) / 64, 0);
    for (std::size_t bi = 0; bi < n; ++bi) {
        blocks_[bi] = arena_->allocate();
        std::memset(blocks_[bi]->data(), 0, usedBytes(bi));
    }
}

VersionedBuffer::VersionedBuffer(const VersionedBuffer &other)
    : arena_(other.arena_), bytes_(other.bytes_), shift_(other.shift_),
      mask_(other.mask_), blocks_(other.blocks_.size()),
      dirty_(other.dirty_.size(), 0)
{
    StateCounters &ctr = stateCounters();
    const metrics::ScopedTimer timer(ctr.cloneSeconds);
    const std::size_t n = blocks_.size();
    for (std::size_t bi = 0; bi < n; ++bi) {
        util::BlockArena::retain(other.blocks_[bi]);
        blocks_[bi] = other.blocks_[bi];
    }
    creation_.blocksShared = n;
    ctr.blocksShared.inc(n);
}

VersionedBuffer &
VersionedBuffer::operator=(const VersionedBuffer &other)
{
    if (this != &other) {
        VersionedBuffer tmp(other);
        *this = std::move(tmp);
    }
    return *this;
}

VersionedBuffer::VersionedBuffer(VersionedBuffer &&other) noexcept
    : arena_(other.arena_), bytes_(other.bytes_), shift_(other.shift_),
      mask_(other.mask_), blocks_(std::move(other.blocks_)),
      dirty_(std::move(other.dirty_)), creation_(other.creation_),
      copiedBytes_(other.copiedBytes_)
{
    other.blocks_.clear();
    other.bytes_ = 0;
}

VersionedBuffer &
VersionedBuffer::operator=(VersionedBuffer &&other) noexcept
{
    if (this != &other) {
        releaseAll();
        arena_ = other.arena_;
        bytes_ = other.bytes_;
        shift_ = other.shift_;
        mask_ = other.mask_;
        blocks_ = std::move(other.blocks_);
        dirty_ = std::move(other.dirty_);
        creation_ = other.creation_;
        copiedBytes_ = other.copiedBytes_;
        other.blocks_.clear();
        other.bytes_ = 0;
    }
    return *this;
}

VersionedBuffer::~VersionedBuffer() { releaseAll(); }

void
VersionedBuffer::releaseAll()
{
    for (util::BlockArena::Block *b : blocks_)
        arena_->release(b);
    blocks_.clear();
}

void
VersionedBuffer::markDirty(std::size_t bi)
{
    dirty_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
}

std::byte *
VersionedBuffer::writableBlock(std::size_t bi)
{
    util::BlockArena::Block *b = blocks_[bi];
    if (b->refs.load(std::memory_order_acquire) > 1) {
        util::BlockArena::Block *fresh = arena_->allocate();
        const std::size_t used = usedBytes(bi);
        std::memcpy(fresh->data(), b->data(), used);
        arena_->release(b);
        blocks_[bi] = b = fresh;
        copiedBytes_ += used;
        StateCounters &ctr = stateCounters();
        ctr.blocksCopied.inc();
        ctr.bytesCopied.inc(used);
    } else {
        b->invalidateHash();
    }
    markDirty(bi);
    return b->data();
}

std::byte *
VersionedBuffer::freshBlock(std::size_t bi)
{
    util::BlockArena::Block *b = blocks_[bi];
    if (b->refs.load(std::memory_order_acquire) > 1) {
        util::BlockArena::Block *fresh = arena_->allocate();
        arena_->release(b);
        blocks_[bi] = b = fresh;
        stateCounters().blocksSwapped.inc();
    } else {
        b->invalidateHash();
    }
    markDirty(bi);
    return b->data();
}

VersionedBuffer::TransformSlot
VersionedBuffer::beginFullTransform(std::size_t bi)
{
    util::BlockArena::Block *b = blocks_[bi];
    markDirty(bi);
    if (b->refs.load(std::memory_order_acquire) > 1) {
        util::BlockArena::Block *fresh = arena_->allocate();
        stateCounters().blocksSwapped.inc();
        return TransformSlot{fresh->data(), b->data(), fresh, bi};
    }
    b->invalidateHash();
    return TransformSlot{b->data(), b->data(), nullptr, bi};
}

void
VersionedBuffer::endFullTransform(const TransformSlot &slot)
{
    if (slot.fresh != nullptr) {
        // The stale shared block was the transform's source; drop our
        // reference only after the new content is fully written.
        arena_->release(blocks_[slot.bi]);
        blocks_[slot.bi] = slot.fresh;
    }
}

void
VersionedBuffer::clearDirty()
{
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

std::size_t
VersionedBuffer::dirtyBlockCount() const
{
    std::size_t n = 0;
    for (std::uint64_t w : dirty_)
        n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

bool
VersionedBuffer::contentEquals(const VersionedBuffer &a,
                               const VersionedBuffer &b)
{
    if (a.bytes_ != b.bytes_)
        return false;
    if (a.bytes_ == 0)
        return true;
    StateCounters &ctr = stateCounters();
    if (a.blockBytes() != b.blockBytes()) {
        // Mixed-arena payloads: lockstep walk over the smaller block
        // granularity (no sharing to exploit).
        bool equal = true;
        std::uint64_t compared = 0;
        std::size_t pos = 0;
        while (equal && pos < a.bytes_) {
            const std::size_t pa = a.blockBytes() - (pos & a.mask_);
            const std::size_t pb = b.blockBytes() - (pos & b.mask_);
            const std::size_t len =
                std::min({pa, pb, a.bytes_ - pos});
            equal = util::blockops::wordsEqual(
                a.blockData(pos >> a.shift_) + (pos & a.mask_),
                b.blockData(pos >> b.shift_) + (pos & b.mask_), len);
            ++compared;
            pos += len;
        }
        ctr.valCompared.inc(compared);
        return equal;
    }
    std::uint64_t skipped = 0;
    std::uint64_t compared = 0;
    bool equal = true;
    const std::size_t n = a.blocks_.size();
    for (std::size_t bi = 0; bi < n && equal; ++bi) {
        if (a.blocks_[bi] == b.blocks_[bi]) {
            ++skipped; // Physically shared: equal by identity.
            continue;
        }
        ++compared;
        std::uint64_t ha = 0;
        std::uint64_t hb = 0;
        if (a.blocks_[bi]->cachedHash(ha) &&
            b.blocks_[bi]->cachedHash(hb) && ha != hb) {
            equal = false; // Distinct fingerprints prove inequality.
            continue;
        }
        equal = util::blockops::wordsEqual(a.blockData(bi),
                                           b.blockData(bi),
                                           a.usedBytes(bi));
    }
    ctr.valSkipped.inc(skipped);
    ctr.valCompared.inc(compared);
    return equal;
}

VersionedBuffer::DiffReport
VersionedBuffer::diffReport(const VersionedBuffer &a,
                            const VersionedBuffer &b)
{
    DiffReport r;
    if (a.bytes_ != b.bytes_)
        return r;
    r.comparable = true;
    if (a.bytes_ == 0) {
        r.equal = true;
        return r;
    }
    if (a.blockBytes() != b.blockBytes()) {
        // Mixed granularity: lockstep walk, first difference reported
        // in a's block coordinates.
        std::size_t pos = 0;
        while (pos < a.bytes_) {
            const std::size_t pa = a.blockBytes() - (pos & a.mask_);
            const std::size_t pb = b.blockBytes() - (pos & b.mask_);
            const std::size_t len = std::min({pa, pb, a.bytes_ - pos});
            r.bytesCompared += len;
            if (!util::blockops::wordsEqual(
                    a.blockData(pos >> a.shift_) + (pos & a.mask_),
                    b.blockData(pos >> b.shift_) + (pos & b.mask_),
                    len)) {
                r.firstDiffBlock =
                    static_cast<std::int64_t>(pos >> a.shift_);
                return r;
            }
            pos += len;
        }
        r.equal = true;
        return r;
    }
    const std::size_t n = a.blocks_.size();
    for (std::size_t bi = 0; bi < n; ++bi) {
        if (a.blocks_[bi] == b.blocks_[bi]) {
            ++r.blocksShared; // Identity proves equality, 0 bytes read.
            continue;
        }
        const std::size_t used = a.usedBytes(bi);
        r.bytesCompared += used;
        if (!util::blockops::wordsEqual(a.blockData(bi), b.blockData(bi),
                                        used)) {
            r.firstDiffBlock = static_cast<std::int64_t>(bi);
            return r;
        }
    }
    r.equal = true;
    return r;
}

std::uint64_t
VersionedBuffer::contentHash() const
{
    StateCounters &ctr = stateCounters();
    std::uint64_t h =
        util::blockops::hash64(&bytes_, sizeof(bytes_), 0x5157A7D5u);
    std::uint64_t hashed = 0;
    for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
        std::uint64_t bh = 0;
        if (!blocks_[bi]->cachedHash(bh)) {
            bh = util::blockops::hash64(blockData(bi), usedBytes(bi));
            blocks_[bi]->publishHash(bh);
            ++hashed;
        }
        h = util::blockops::hashCombine(h, bh);
    }
    ctr.valHashed.inc(hashed);
    return h;
}

std::size_t
VersionedBuffer::sharedBlocksWith(const VersionedBuffer &other) const
{
    const std::size_t n =
        std::min(blocks_.size(), other.blocks_.size());
    std::size_t shared = 0;
    for (std::size_t bi = 0; bi < n; ++bi)
        shared += blocks_[bi] == other.blocks_[bi] ? 1 : 0;
    return shared;
}

} // namespace repro::core

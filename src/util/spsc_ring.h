/**
 * @file
 * Bounded single-producer/single-consumer ring buffer.
 *
 * The serving runtime (serving/serving_runtime.h) gives every session a
 * bounded queue: the session's producer thread pushes input stamps and
 * the consumer side reads them in place by position, freeing them once
 * their results are delivered.  One thread pushes and one thread at a
 * time frees, so the queue needs no locks — head and tail are
 * single-writer atomics, and a full ring is reported to the producer as
 * backpressure instead of blocking it.  Positions count pushes: the
 * n-th value pushed sits at position n - 1.
 *
 * Concurrency contract:
 *  - tryPush may be called by one thread at a time (the producer).
 *  - tryPop/pop may be called by one thread at a time (the consumer).
 *  - at(pos) may read a queued position from any thread that has seen
 *    pushed() > pos (itself or through a happens-before edge), until
 *    pop frees it.
 *  - Producer and consumer may run concurrently with each other.
 *  - size()/empty() are safe from any thread but only approximate
 *    while both sides are active (each side's own view is exact).
 *
 * The capacity is rounded up to a power of two so index wrapping is a
 * mask, and one slot is never left unused: a ring of capacity N
 * accepts exactly N elements before reporting full.
 */

#ifndef REPRO_UTIL_SPSC_RING_H
#define REPRO_UTIL_SPSC_RING_H

#include <atomic>
#include <cstddef>
#include <vector>

#include "util/log.h"

namespace repro::util {

/**
 * Fixed-capacity wait-free SPSC queue of trivially copyable values.
 */
template <typename T>
class SpscRing
{
  public:
    /** Ring accepting up to @p capacity elements (rounded up to a
     *  power of two internally; capacity() reports the requested
     *  bound, which is what full/backpressure is measured against). */
    explicit SpscRing(std::size_t capacity)
        : capacity_(capacity), mask_(roundUpPow2(capacity) - 1),
          slots_(mask_ + 1)
    {
        REPRO_ASSERT(capacity >= 1, "SPSC ring needs capacity >= 1");
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /** Maximum number of queued elements. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Enqueues @p value.  Producer-side only.
     * @return false when the ring is full (the value is not consumed).
     */
    bool
    tryPush(const T &value)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head - tail_.load(std::memory_order_acquire) >= capacity_)
            return false;
        slots_[head & mask_] = value;
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /** One past the newest queued position; reading it lets the
     *  reader at() every queued position below it. */
    std::size_t
    pushed() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /** The value at a queued position (see the contract above). */
    const T &at(std::size_t pos) const { return slots_[pos & mask_]; }

    /** Frees the @p n oldest positions.  Consumer-side only. */
    void
    pop(std::size_t n)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        REPRO_ASSERT(n <= pushed() - tail, "SPSC ring pop past its head");
        tail_.store(tail + n, std::memory_order_release);
    }

    /**
     * Dequeues the oldest element into @p out.  Consumer-side only.
     * @return false when the ring is empty.
     */
    bool
    tryPop(T &out)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == pushed())
            return false;
        out = at(tail);
        pop(1);
        return true;
    }

    /** Queued elements (exact only from the producer or consumer side
     *  while the other side is quiescent). */
    std::size_t
    size() const
    {
        return head_.load(std::memory_order_acquire) -
               tail_.load(std::memory_order_acquire);
    }

    /** True when no element is queued (same caveat as size()). */
    bool empty() const { return size() == 0; }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    const std::size_t capacity_;
    const std::size_t mask_;
    std::vector<T> slots_;
    alignas(64) std::atomic<std::size_t> head_{0}; //!< Producer-owned.
    alignas(64) std::atomic<std::size_t> tail_{0}; //!< Consumer-owned.
};

} // namespace repro::util

#endif // REPRO_UTIL_SPSC_RING_H

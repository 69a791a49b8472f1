#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "metrics/metrics.h"
#include "util/log.h"

namespace repro::util {

namespace {

/**
 * Always-on pool telemetry (metrics/metrics.h).  Resolved once; the
 * steady-state cost per event is one relaxed fetch_add on a
 * thread-private shard.
 */
struct PoolMetrics
{
    metrics::Counter &enqueued;      //!< Tasks queued to workers.
    metrics::Counter &executed;      //!< Tasks a worker dequeued and ran.
    metrics::Counter &rejected;      //!< Enqueues refused while stopping
                                     //!< (the caller runs these inline).
    metrics::Counter &forCalls;      //!< parallelFor invocations.
    metrics::Counter &grainsClaimed; //!< Iteration grains claimed from
                                     //!< the shared counter.
    metrics::Gauge &queueDepth;      //!< Tasks currently queued.
    metrics::LatencyHistogram &joinWait; //!< Caller wait at the
                                         //!< parallelFor join.
};

PoolMetrics &
poolMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static PoolMetrics m{reg.counter("pool.tasks_enqueued"),
                         reg.counter("pool.tasks_executed"),
                         reg.counter("pool.tasks_rejected"),
                         reg.counter("pool.parallel_for_calls"),
                         reg.counter("pool.grains_claimed"),
                         reg.gauge("pool.queue_depth"),
                         reg.histogram("pool.join_wait_seconds")};
    return m;
}

/**
 * Shared state of one parallelFor call.  Helpers hold it by
 * shared_ptr: a helper that is dequeued only after the call already
 * returned (possible when the queue is backed up) finds next >= n and
 * exits without touching the caller's stack.
 */
struct ForState
{
    std::function<void(std::size_t)> body;
    std::size_t n = 0;
    std::size_t grain = 1; //!< Iterations claimed per counter bump.
    std::atomic<std::size_t> next{0};

    /** Iterations accounted for (run, or skipped by an error mid-
     *  grain).  Atomic so the hot path never takes the mutex. */
    std::atomic<std::size_t> completed{0};
    /** Iterations the loop waits for: n, shrunk on the first failure
     *  to the number claimed up to that point (fail fast). */
    std::atomic<std::size_t> target{0};

    /** Set on the first body failure; in-flight grains poll it so
     *  fail-fast stays iteration-granular, not grain-granular. */
    std::atomic<bool> failed{false};

    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error; //!< First failure; guarded by mutex.
};

/**
 * Claims and runs grains of iterations until none are left (or a body
 * failed).  Completion is counted with atomics; the mutex is taken
 * only to record an error or to publish the final wakeup, so cheap
 * bodies do not serialize on a lock per iteration.
 */
void
drain(const std::shared_ptr<ForState> &st)
{
    const std::size_t n = st->n;
    const std::size_t grain = st->grain;
    for (std::size_t begin = st->next.fetch_add(grain); begin < n;
         begin = st->next.fetch_add(grain)) {
        const std::size_t end = std::min(begin + grain, n);
        poolMetrics().grainsClaimed.inc();
        std::exception_ptr err;
        try {
            // A grain claimed before the failure was published still
            // counts fully toward `target`, so it is accounted below
            // whether it runs or bails — but it stops executing
            // *bodies* at the first iteration that observes `failed`.
            for (std::size_t i = begin;
                 i < end && !st->failed.load(std::memory_order_relaxed);
                 ++i)
                st->body(i);
        } catch (...) {
            err = std::current_exception();
        }
        if (err) {
            st->failed.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(st->mutex);
            if (!st->error) {
                st->error = err;
                // Stop further claims.  exchange() also tells us how
                // many iterations were ever claimed (grains tile
                // [0, next), clamped at n) — exactly the ones the
                // caller must wait for.  The whole erroring grain
                // counts as claimed; the iterations it skipped are
                // still accounted below.
                const std::size_t claimed = st->next.exchange(n + grain);
                st->target.store(std::min(claimed, n));
            }
        }
        // The last accounted grain publishes the wakeup under the
        // mutex (so the notify cannot slip between the waiter's
        // predicate check and its sleep).  fetch_add is seq_cst, so
        // whichever executor pushes `completed` to the target observes
        // any earlier target shrink.
        const std::size_t done_count =
            st->completed.fetch_add(end - begin) + (end - begin);
        if (done_count >= st->target.load()) {
            std::lock_guard<std::mutex> lock(st->mutex);
            st->done.notify_all();
        }
    }
}

} // namespace

ThreadPool::ThreadPool(unsigned workers)
{
    const unsigned count = defaultThreadCount(workers);
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    stop();
}

void
ThreadPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    available_.notify_all();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
}

bool
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            poolMetrics().rejected.inc();
            return false;
        }
        queue_.push_back(std::move(task));
    }
    poolMetrics().enqueued.inc();
    poolMetrics().queueDepth.add(1);
    available_.notify_one();
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            available_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        poolMetrics().queueDepth.sub(1);
        poolMetrics().executed.inc();
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        unsigned max_concurrency, std::size_t grain)
{
    if (n == 0)
        return;
    poolMetrics().forCalls.inc();
    if (n == 1) {
        body(0);
        return;
    }

    const unsigned cap =
        max_concurrency ? max_concurrency : workerCount() + 1;
    const std::size_t helpers =
        std::min<std::size_t>({static_cast<std::size_t>(cap) - 1,
                               static_cast<std::size_t>(workerCount()),
                               n - 1});

    auto st = std::make_shared<ForState>();
    st->body = body;
    st->n = n;
    // Auto grain: ~8 claims per executor, so dynamic balancing still
    // works while the claim counter is bumped n/grain times, not n.
    st->grain = grain ? grain : std::max<std::size_t>(1, n / ((helpers + 1) * 8));
    st->target.store(n);
    for (std::size_t h = 0; h < helpers; ++h) {
        // A stopping pool rejects the helper; the caller drains alone.
        if (!enqueue([st] { drain(st); }))
            break;
    }

    drain(st); // The caller is always one of the executors.

    // Anything from here to the predicate passing is join wait: the
    // caller has no iterations left and is blocked on helpers.
    using Clock = std::chrono::steady_clock;
    const bool time_join = metrics::enabled();
    const Clock::time_point join_start =
        time_join ? Clock::now() : Clock::time_point{};
    std::unique_lock<std::mutex> lock(st->mutex);
    st->done.wait(lock, [&] {
        return st->completed.load() >= st->target.load();
    });
    if (time_join)
        poolMetrics().joinWait.observeSince(join_start);
    if (st->error)
        std::rethrow_exception(st->error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(0);
    return pool;
}

unsigned
ThreadPool::defaultThreadCount(unsigned requested)
{
    if (requested)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 2;
}

} // namespace repro::util

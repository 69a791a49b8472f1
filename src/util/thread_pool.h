/**
 * @file
 * Reusable fixed-size worker pool.
 *
 * The native STATS runtime's task graph (core/native_runtime.h,
 * util/task_graph_executor.h) and the serving strands
 * (serving/serving_runtime.h) run on one shared pool instead of
 * spawning and joining std::thread per round.  Persistent workers
 * amortize thread creation the same way speculative-multithreading
 * runtimes keep their worker set alive across speculation rounds.
 *
 * The pool has one way to run work: detach(fn) enqueues one
 * fire-and-forget task, and the caller synchronizes through its own
 * state.
 *
 * Observability: the pool.* metric family (metrics/metrics.h) counts
 * what the pool did — pool.tasks_executed ticks once per task a worker
 * dequeues (tasks a stopped pool runs inline are not counted).  Where
 * the time went is the business of the spans the tasks themselves
 * emit (obs/span_recorder.h).
 */

#ifndef REPRO_UTIL_THREAD_POOL_H
#define REPRO_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace repro::util {

/**
 * Fixed set of worker threads consuming a FIFO task queue.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Worker thread count; 0 selects
     *        defaultThreadCount(0) (hardware concurrency, with a
     *        fallback of 2 when the hardware cannot be queried).
     */
    explicit ThreadPool(unsigned workers = 0);

    /** Equivalent to stop(): pending tasks still run, workers join. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Stops the pool: pending tasks still run, then the workers join.
     * Idempotent (the destructor calls it), but not safe to race with
     * another stop() call.  A stopped pool stays usable in degraded
     * form: detach() runs the task inline on the calling thread, so
     * late submissions during static destruction of the global pool
     * degrade instead of crashing.
     */
    void stop();

    /** Number of worker threads. */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueues @p fn to run on some worker with no completion handle
     * (fire-and-forget; the caller synchronizes through its own state,
     * as util::TaskGraphExecutor does).  @p fn must not throw.  On a
     * stopped (or stopping) pool the task runs inline on the calling
     * thread before detach returns.
     */
    void
    detach(std::function<void()> fn)
    {
        if (!enqueue(fn))
            fn();
    }

    /**
     * The process-wide pool shared by the native runtime and the
     * serving layer, sized defaultThreadCount(0).  Created on first
     * use.
     */
    static ThreadPool &global();

    /**
     * Resolves a requested thread count: @p requested when non-zero,
     * otherwise std::thread::hardware_concurrency(), falling back to 2
     * when the implementation reports 0.  The single home of the
     * "what does max_threads = 0 mean" rule.
     */
    static unsigned defaultThreadCount(unsigned requested = 0);

  private:
    /** False when the pool is stopping and the task was not queued. */
    bool enqueue(std::function<void()> task);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable available_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

} // namespace repro::util

#endif // REPRO_UTIL_THREAD_POOL_H

#include "util/thread_pool.h"

#include "metrics/metrics.h"

namespace repro::util {

namespace {

/**
 * Always-on pool telemetry (metrics/metrics.h).  Resolved once; the
 * steady-state cost per event is one relaxed fetch_add on a
 * thread-private shard.
 */
struct PoolMetrics
{
    metrics::Counter &enqueued; //!< Tasks queued to workers.
    metrics::Counter &executed; //!< Tasks a worker dequeued and ran.
    metrics::Counter &rejected; //!< Enqueues refused while stopping
                                //!< (the caller runs these inline).
    metrics::Gauge &queueDepth; //!< Tasks currently queued.
};

PoolMetrics &
poolMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static PoolMetrics m{reg.counter("pool.tasks_enqueued"),
                         reg.counter("pool.tasks_executed"),
                         reg.counter("pool.tasks_rejected"),
                         reg.gauge("pool.queue_depth")};
    return m;
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

#include "util/task_graph_executor.h"

#include <limits>
#include <utility>

#include "metrics/metrics.h"
#include "util/log.h"

namespace repro::util {

namespace {

/** Always-on executor telemetry (metrics/metrics.h). */
struct ExecutorMetrics
{
    metrics::Counter &nodesAdded;
    metrics::Counter &nodesRun;       //!< Bodies actually executed.
    metrics::Counter &nodesFailed;    //!< Bodies that threw.
    metrics::Counter &nodesCancelled; //!< Skipped after a failure.
    metrics::Gauge &readyDepth;       //!< Nodes ready but not dispatched.
};

ExecutorMetrics &
executorMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static ExecutorMetrics m{reg.counter("executor.nodes_added"),
                             reg.counter("executor.nodes_run"),
                             reg.counter("executor.nodes_failed"),
                             reg.counter("executor.nodes_cancelled"),
                             reg.gauge("executor.ready_depth")};
    return m;
}

} // namespace

TaskGraphExecutor::TaskGraphExecutor(ThreadPool &pool,
                                     unsigned max_concurrency)
    : pool_(pool), cap_(max_concurrency)
{
}

TaskGraphExecutor::~TaskGraphExecutor()
{
    // Nodes capture `this`; they must all have drained before the
    // members go away.  Errors were either observed by an earlier
    // wait() or are intentionally dropped here.
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] { return quiescentLocked(); });
}

TaskGraphExecutor::NodeId
TaskGraphExecutor::add(std::function<void()> fn,
                       const std::vector<NodeId> &deps)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const NodeId id = nodes_.size();
    nodes_.emplace_back();
    Node &node = nodes_.back();
    node.fn = std::move(fn);
    ++unfinished_;
    for (const NodeId dep : deps) {
        REPRO_ASSERT(dep < id, "node depends on a not-yet-added node");
        if (!nodes_[dep].finished) {
            nodes_[dep].successors.push_back(id);
            ++node.pending;
        }
    }
    executorMetrics().nodesAdded.inc();
    if (node.pending == 0) {
        ready_.push_back(id);
        executorMetrics().readyDepth.add(1);
    }
    dispatchLocked(lock);
    return id;
}

void
TaskGraphExecutor::dispatchLocked(std::unique_lock<std::mutex> &lock)
{
    const std::size_t cap =
        cap_ ? cap_ : std::numeric_limits<std::size_t>::max();
    while (running_ < cap && !ready_.empty()) {
        const NodeId id = ready_.front();
        ready_.pop_front();
        executorMetrics().readyDepth.sub(1);
        ++running_;
        // detach() may run the node inline on a stopped pool; the node
        // re-locks, so the lock must be dropped around the handoff.
        // The node may finish before the lock is re-taken; counting
        // the hand-off keeps wait() and the destructor from returning
        // while this thread still has to touch the executor.
        ++dispatching_;
        lock.unlock();
        pool_.detach([this, id] { runNode(id); });
        lock.lock();
        --dispatching_;
    }
    if (quiescentLocked())
        idle_.notify_all();
}

void
TaskGraphExecutor::runNode(NodeId id)
{
    std::function<void()> fn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Fail fast: once any node threw, later bodies never start.
        if (!error_)
            fn = std::move(nodes_[id].fn);
    }
    std::exception_ptr err;
    if (fn) {
        try {
            fn();
        } catch (...) {
            err = std::current_exception();
        }
        executorMetrics().nodesRun.inc();
        if (err)
            executorMetrics().nodesFailed.inc();
    } else {
        executorMetrics().nodesCancelled.inc();
    }

    std::unique_lock<std::mutex> lock(mutex_);
    if (err && !error_)
        error_ = err;
    Node &node = nodes_[id];
    node.finished = true;
    node.fn = nullptr;
    for (const NodeId succ : node.successors) {
        if (--nodes_[succ].pending == 0) {
            ready_.push_back(succ);
            executorMetrics().readyDepth.add(1);
        }
    }
    node.successors.clear();
    --running_;
    --unfinished_;
    dispatchLocked(lock);
}

void
TaskGraphExecutor::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] { return quiescentLocked(); });
    if (error_)
        std::rethrow_exception(error_);
}

std::size_t
TaskGraphExecutor::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes_.size();
}

} // namespace repro::util

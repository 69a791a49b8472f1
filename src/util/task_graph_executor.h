/**
 * @file
 * Dependency-driven continuations on the shared ThreadPool.
 *
 * The batch schedule of the native STATS runtime
 * (core/native_runtime.h) runs each closure as soon as *its*
 * predecessors have finished, with no global join in between.
 * TaskGraphExecutor provides exactly that — a growable DAG of closures
 * whose ready nodes are detached to a ThreadPool the moment their
 * last declared predecessor completes.
 *
 * Model:
 *  - add(fn, deps) declares a node.  Predecessors are named by the
 *    NodeId add() returned for them, so the graph is acyclic by
 *    construction (a node can only depend on already-declared nodes).
 *  - A node with no unfinished predecessors is dispatched immediately;
 *    otherwise it is dispatched by the completion of its last
 *    unfinished predecessor.  Completion of a predecessor
 *    happens-before the successor's closure runs (the handoff goes
 *    through the executor's mutex), so a successor may freely read
 *    anything its predecessors wrote.
 *  - wait() blocks until every added node has completed and rethrows
 *    the first closure exception, if any.  After a closure throws, no
 *    further node bodies are started (fail fast) — remaining nodes
 *    complete as cancelled no-ops.  add() after wait() started is
 *    allowed from node closures (the wait covers them too).
 *
 * Concurrency: at most max_concurrency node bodies run at once
 * (0 = no executor-side cap beyond the pool's worker count).  Node
 * bodies run on pool workers; the thread calling wait() does not
 * participate.  On a stopped pool, dispatch degrades to inline
 * execution on the thread that made the node ready, so the graph
 * still completes.
 */

#ifndef REPRO_UTIL_TASK_GRAPH_EXECUTOR_H
#define REPRO_UTIL_TASK_GRAPH_EXECUTOR_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "util/thread_pool.h"

namespace repro::util {

/**
 * Executes a dynamically grown DAG of closures on a ThreadPool,
 * dispatching each node when its declared predecessors finish.
 */
class TaskGraphExecutor
{
  public:
    /** Handle of one declared node (dense, in add() order). */
    using NodeId = std::size_t;

    /**
     * @param pool Pool the node bodies are dispatched to.
     * @param max_concurrency Cap on concurrently running node bodies;
     *        0 leaves scheduling entirely to the pool.
     */
    explicit TaskGraphExecutor(ThreadPool &pool,
                               unsigned max_concurrency = 0);

    /** Blocks until every node completed (errors are swallowed here —
     *  call wait() first if you care about them). */
    ~TaskGraphExecutor();

    TaskGraphExecutor(const TaskGraphExecutor &) = delete;
    TaskGraphExecutor &operator=(const TaskGraphExecutor &) = delete;

    /**
     * Declares a node running @p fn once every node in @p deps has
     * completed, and possibly dispatches it right away.  Thread-safe;
     * in particular a node closure may add successor nodes.
     *
     * @param deps Predecessor ids returned by earlier add() calls.
     * @return Dense id of the new node.
     */
    NodeId add(std::function<void()> fn,
               const std::vector<NodeId> &deps = {});

    /**
     * Blocks until all nodes added so far (plus any added while
     * waiting) have completed.  Rethrows the first exception a node
     * body threw; the executor stays waitable afterwards (repeated
     * waits rethrow the same error).
     */
    void wait();

    /** Nodes declared so far. */
    std::size_t size() const;

  private:
    struct Node
    {
        std::function<void()> fn;
        std::vector<NodeId> successors;
        std::size_t pending = 0; //!< Unfinished predecessors.
        bool finished = false;
    };

    /** Moves ready nodes to the pool while under the concurrency cap,
     *  then wakes waiters if the graph became quiescent.  Call with
     *  mutex_ held; the lock is dropped around each hand-off. */
    void dispatchLocked(std::unique_lock<std::mutex> &lock);

    /** Every node finished and no thread is inside a hand-off. */
    bool
    quiescentLocked() const
    {
        return unfinished_ == 0 && dispatching_ == 0;
    }

    /** Body wrapper executed on a pool worker (or inline). */
    void runNode(NodeId id);

    ThreadPool &pool_;
    const unsigned cap_; //!< 0 = uncapped.

    mutable std::mutex mutex_;
    std::condition_variable idle_;
    std::deque<Node> nodes_; //!< Stable references while growing.
    std::deque<NodeId> ready_;
    std::size_t running_ = 0;
    std::size_t unfinished_ = 0;
    std::size_t dispatching_ = 0; //!< Hand-offs with mutex_ dropped.
    std::exception_ptr error_;
};

} // namespace repro::util

#endif // REPRO_UTIL_TASK_GRAPH_EXECUTOR_H

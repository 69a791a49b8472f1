/**
 * @file
 * Tests of the dependency-driven executor the pipelined commit
 * protocol schedules on: dependency ordering with real happens-before
 * checks, dynamic growth from inside node bodies, fail-fast
 * cancellation, the concurrency cap, and degradation on a stopped
 * pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/task_graph_executor.h"
#include "util/thread_pool.h"

namespace {

using repro::util::TaskGraphExecutor;
using repro::util::ThreadPool;

TEST(TaskGraphExecutor, RunsIndependentNodes)
{
    ThreadPool pool(4);
    TaskGraphExecutor exec(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i)
        exec.add([&] { ++ran; });
    exec.wait();
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(exec.size(), 64u);
}

TEST(TaskGraphExecutor, DependenciesOrderExecution)
{
    // A diamond: a -> {b, c} -> d.  d must observe both middle
    // writes; b and c must observe a's.
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        TaskGraphExecutor exec(pool);
        int a_val = 0, b_val = 0, c_val = 0, d_val = 0;
        const auto a = exec.add([&] { a_val = 1; });
        const auto b = exec.add([&] { b_val = a_val + 1; }, {a});
        const auto c = exec.add([&] { c_val = a_val + 10; }, {a});
        exec.add([&] { d_val = b_val + c_val; }, {b, c});
        exec.wait();
        ASSERT_EQ(d_val, 13) << "round " << round;
    }
}

TEST(TaskGraphExecutor, LongChainRunsInOrder)
{
    // The commit-boundary chain of the pipelined protocol is exactly
    // this shape: node c depends on node c-1 and appends in order.
    ThreadPool pool(4);
    TaskGraphExecutor exec(pool);
    std::vector<int> order;
    TaskGraphExecutor::NodeId prev = 0;
    for (int i = 0; i < 200; ++i) {
        prev = i == 0 ? exec.add([&order, i] { order.push_back(i); })
                      : exec.add([&order, i] { order.push_back(i); },
                                 {prev});
    }
    exec.wait();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(TaskGraphExecutor, NodeBodiesCanAddSuccessors)
{
    // Dynamic growth: a node declares follow-up work; wait() covers
    // the nodes added while it blocks.
    ThreadPool pool(2);
    TaskGraphExecutor exec(pool);
    std::atomic<int> ran{0};
    exec.add([&] {
        ++ran;
        exec.add([&] {
            ++ran;
            exec.add([&] { ++ran; });
        });
    });
    exec.wait();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(exec.size(), 3u);
}

TEST(TaskGraphExecutor, WaitRethrowsFirstErrorAndCancelsRest)
{
    ThreadPool pool(2);
    TaskGraphExecutor exec(pool);
    std::atomic<bool> late_ran{false};
    const auto boom =
        exec.add([] { throw std::runtime_error("node failed"); });
    // Dependent of the failing node: must be cancelled, not run.
    exec.add([&] { late_ran = true; }, {boom});
    EXPECT_THROW(exec.wait(), std::runtime_error);
    EXPECT_FALSE(late_ran.load());
    // The error is sticky across repeated waits.
    EXPECT_THROW(exec.wait(), std::runtime_error);
}

TEST(TaskGraphExecutor, ConcurrencyCapIsRespected)
{
    ThreadPool pool(4);
    TaskGraphExecutor exec(pool, 2);
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    for (int i = 0; i < 32; ++i) {
        exec.add([&] {
            const int now = ++running;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now))
                ;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            --running;
        });
    }
    exec.wait();
    EXPECT_LE(peak.load(), 2);
}

TEST(TaskGraphExecutor, DegradesToInlineOnStoppedPool)
{
    ThreadPool pool(2);
    pool.stop();
    TaskGraphExecutor exec(pool);
    int sum = 0;
    const auto a = exec.add([&] { sum += 1; });
    exec.add([&] { sum += 2; }, {a});
    exec.wait();
    EXPECT_EQ(sum, 3);
}

TEST(TaskGraphExecutor, DestructorWaitsForOutstandingNodes)
{
    ThreadPool pool(2);
    std::atomic<bool> ran{false};
    {
        TaskGraphExecutor exec(pool);
        exec.add([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            ran = true;
        });
        // No wait(): the destructor must block until the node is done
        // (the closure captures this frame's locals).
    }
    EXPECT_TRUE(ran.load());
}

TEST(TaskGraphExecutor, StackExecutorSurvivesBackToBackTeardown)
{
    // The batch runtime builds one executor per run on its stack and
    // destroys it the moment wait() returns.  A worker that dispatched
    // the last node may still be returning from the hand-off at that
    // point; it must never touch the executor after the waiter left.
    // Many tiny graphs make that window likely on any host.
    ThreadPool &pool = ThreadPool::global();
    std::atomic<long> sum{0};
    for (int g = 0; g < 100000; ++g) {
        TaskGraphExecutor exec(pool);
        const auto a = exec.add([&] { sum.fetch_add(1); });
        const auto b = exec.add([&] { sum.fetch_add(1); }, {a});
        exec.add([&] { sum.fetch_add(1); }, {b});
        exec.wait();
    }
    EXPECT_EQ(sum.load(), 300000);
}

TEST(TaskGraphExecutorDeathTest, ForwardDependencyIsFatal)
{
    ThreadPool pool(1);
    TaskGraphExecutor exec(pool);
    EXPECT_DEATH(exec.add([] {}, {5}), "not-yet-added");
}

} // namespace

/**
 * @file
 * Tests for the shared worker pool (util/thread_pool.h).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "metrics/metrics.h"
#include "util/thread_pool.h"

namespace {

using repro::util::ThreadPool;

TEST(ThreadPool, DefaultThreadCountResolvesZeroOnce)
{
    EXPECT_EQ(ThreadPool::defaultThreadCount(7), 7u);
    // 0 resolves to hardware concurrency, or the documented fallback
    // of 2 when the hardware cannot be queried — never 0.
    EXPECT_GE(ThreadPool::defaultThreadCount(0), 1u);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder)
{
    // Declared before the pool, so they outlive its workers.
    std::vector<int> order;
    std::latch done(16);
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
        pool.detach([&order, &done, i] {
            order.push_back(i);
            done.count_down();
        });
    }
    done.wait();
    std::vector<int> expected(16);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ReusableAcrossManySubmitRounds)
{
    std::atomic<int> sum{0};
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        // Each task holds the latch, so it outlives the last
        // count_down even after wait() returns.
        auto done = std::make_shared<std::latch>(8);
        for (int i = 0; i < 8; ++i) {
            pool.detach([&sum, done] {
                ++sum;
                done->count_down();
            });
        }
        done->wait();
    }
    EXPECT_EQ(sum.load(), 50 * 8);
}

TEST(ThreadPool, StopIsIdempotentAndDegradesGracefully)
{
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    pool.detach([&ran] { ++ran; });
    pool.stop(); // Pending tasks still run before the workers join.
    EXPECT_EQ(ran.load(), 1);
    pool.stop(); // Second stop is a no-op, not a crash.

    // Detaching to a stopped pool runs the task inline on the caller
    // before detach returns (instead of asserting, which used to crash
    // during static destruction of the global pool).
    std::thread::id ran_on;
    pool.detach([&ran_on] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, TasksExecutedCountsWorkerTasks)
{
    // pool.tasks_executed ticks once per task a worker dequeues: every
    // detach(), never a task a stopped pool runs inline.
    const repro::metrics::Counter &executed =
        repro::metrics::MetricsRegistry::global().counter(
            "pool.tasks_executed");
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    const std::uint64_t before = executed.value();

    constexpr int kTasks = 8;
    for (int i = 0; i < kTasks; ++i)
        pool.detach([&ran] { ++ran; });
    // Joining the workers dequeues every detached task.
    pool.stop();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_EQ(executed.value() - before, std::uint64_t{kTasks});

    pool.detach([&ran] { ++ran; }); // Stopped: runs inline, not dequeued.
    EXPECT_EQ(ran.load(), kTasks + 1);
    EXPECT_EQ(executed.value() - before, std::uint64_t{kTasks});
}

TEST(ThreadPool, GlobalPoolIsSharedAndUsable)
{
    ThreadPool &a = ThreadPool::global();
    ThreadPool &b = ThreadPool::global();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.workerCount(), 1u);

    // The global pool runs until exit, so a detached task runs on one
    // of its workers.  The task holds the latch, so it outlives the
    // count_down even after wait() returns.
    auto done = std::make_shared<std::latch>(1);
    std::thread::id ran_on;
    a.detach([done, &ran_on] {
        ran_on = std::this_thread::get_id();
        done->count_down();
    });
    done->wait();
    EXPECT_NE(ran_on, std::thread::id{});
    EXPECT_NE(ran_on, std::this_thread::get_id());
}

} // namespace

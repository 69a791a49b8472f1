/**
 * @file
 * Tests for the shared worker pool (util/thread_pool.h).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <numeric>
#include <stdexcept>
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

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForHonorsDegenerateSizes)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForConcurrencyCapOneStillCompletes)
{
    ThreadPool pool(4);
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    pool.parallelFor(
        64,
        [&](std::size_t) {
            const int now = ++concurrent;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            --concurrent;
        },
        /*max_concurrency=*/1);
    EXPECT_EQ(peak.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.parallelFor(32,
                         [&](std::size_t i) {
                             ++executed;
                             if (i == 7)
                                 throw std::runtime_error("iteration 7");
                         }),
        std::runtime_error);
    // Fail-fast: iterations claimed before the failure still run, but
    // unclaimed ones are cancelled — never more than the loop size.
    EXPECT_GE(executed.load(), 1);
    EXPECT_LE(executed.load(), 32);
    // The pool stays usable after a failed loop.
    std::atomic<int> after{0};
    pool.parallelFor(16, [&](std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, ParallelForFailsFastOnException)
{
    // A throwing body must abandon the (large) remaining iteration
    // space instead of executing all of it.  Iterations are claimed in
    // grains, but every in-flight grain polls the failure flag, so
    // each executor runs at most a handful of iterations after the
    // failure is published and the executed count stays tiny compared
    // to n.
    ThreadPool pool(4);
    constexpr std::size_t n = 1 << 16;
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        pool.parallelFor(n,
                         [&](std::size_t i) {
                             ++executed;
                             if (i == 11)
                                 throw std::runtime_error("stop");
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(20));
                         }),
        std::runtime_error);
    // Generous bound for noisy schedulers; still 64x below n, which
    // the pre-fix behavior (run everything) always exceeded.
    EXPECT_LE(executed.load(), std::size_t{1024});
}

TEST(ThreadPool, ParallelForCoversEveryIndexForAnyGrain)
{
    // Grained claiming must tile [0, n) exactly — no index dropped at
    // the ragged last grain, none run twice — for grains smaller than,
    // dividing, and exceeding n, plus the automatic grain (0).
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{100},
                                    std::size_t{999}, std::size_t{5000}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(
            n, [&](std::size_t i) { ++hits[i]; },
            /*max_concurrency=*/0, grain);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "grain " << grain << " index " << i;
    }
}

TEST(ThreadPool, ParallelForExplicitGrainFailsFast)
{
    // Fail-fast stays iteration-granular even with a huge explicit
    // grain: the erroring executor's own grain stops at the throw, and
    // other in-flight grains bail at the next flag poll.
    ThreadPool pool(4);
    constexpr std::size_t n = 1 << 15;
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        pool.parallelFor(
            n,
            [&](std::size_t i) {
                ++executed;
                if (i == 3)
                    throw std::runtime_error("stop");
                std::this_thread::sleep_for(
                    std::chrono::microseconds(20));
            },
            /*max_concurrency=*/0, /*grain=*/4096),
        std::runtime_error);
    EXPECT_LE(executed.load(), std::size_t{1024});
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

    // parallelFor on a stopped pool degrades to caller-only execution
    // but still covers every index.
    std::atomic<int> hits{0};
    pool.parallelFor(100, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPool, TasksExecutedCountsWorkerTasks)
{
    // pool.tasks_executed ticks once per task a worker dequeues: every
    // detach() and every parallelFor helper batch, never the
    // iterations the caller drains itself nor tasks a stopped pool runs
    // inline.
    const repro::metrics::Counter &executed =
        repro::metrics::MetricsRegistry::global().counter(
            "pool.tasks_executed");
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    const std::uint64_t before = executed.value();

    constexpr int kTasks = 8;
    for (int i = 0; i < kTasks; ++i)
        pool.detach([&ran] { ++ran; });
    // Caller plus both workers: two helper batches are queued.
    std::atomic<int> hits{0};
    pool.parallelFor(64, [&](std::size_t) { ++hits; });
    // Detached tasks and a helper may still be queued after the caller
    // drained the loop; joining the workers dequeues them.
    pool.stop();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_EQ(hits.load(), 64);
    EXPECT_EQ(executed.value() - before, kTasks + 2u);

    pool.detach([&ran] { ++ran; }); // Stopped: runs inline, not dequeued.
    EXPECT_EQ(ran.load(), kTasks + 1);
    EXPECT_EQ(executed.value() - before, kTasks + 2u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A parallelFor issued from inside a pool task must complete even
    // when every worker is busy: the issuing task drains the inner
    // loop itself.
    ThreadPool pool(2);
    std::atomic<int> inner{0};
    pool.parallelFor(4, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 4 * 8);
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

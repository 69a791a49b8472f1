#include "trace/measured_trace.h"

#include <algorithm>
#include <atomic>

#include "util/log.h"

namespace repro::trace {

double
MeasuredTrace::makespanUs() const
{
    double makespan = 0.0;
    for (double f : finishUs)
        makespan = std::max(makespan, f);
    return makespan;
}

/** Accumulates worker-side pool activity (ThreadPool profiler). */
class MeasuredTraceRecorder::PoolProbe : public util::ThreadPool::Profiler
{
  public:
    void
    onTaskBegin(unsigned, util::ThreadPool::Clock::time_point) override
    {
    }

    void
    onTaskEnd(unsigned, util::ThreadPool::Clock::time_point start,
              util::ThreadPool::Clock::time_point end) override
    {
        tasks_.fetch_add(1, std::memory_order_relaxed);
        busyNanos_.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - start)
                    .count()),
            std::memory_order_relaxed);
    }

    std::uint64_t tasks() const
    {
        return tasks_.load(std::memory_order_relaxed);
    }

    double busySeconds() const
    {
        return static_cast<double>(
                   busyNanos_.load(std::memory_order_relaxed)) *
               1e-9;
    }

  private:
    std::atomic<std::uint64_t> tasks_{0};
    std::atomic<std::uint64_t> busyNanos_{0};
};

MeasuredTraceRecorder::MeasuredTraceRecorder()
    : origin_(std::chrono::steady_clock::now()),
      probe_(std::make_shared<PoolProbe>())
{
}

MeasuredTraceRecorder::~MeasuredTraceRecorder() = default;

double
MeasuredTraceRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

unsigned
MeasuredTraceRecorder::laneOfCallingThread()
{
    const auto [it, inserted] = lanes_.try_emplace(
        std::this_thread::get_id(),
        static_cast<unsigned>(lanes_.size()));
    (void)inserted;
    return it->second;
}

TaskId
MeasuredTraceRecorder::begin(TaskKind kind, ThreadId thread,
                             std::int32_t chunk)
{
    const double start = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    Record rec;
    rec.kind = kind;
    rec.thread = thread;
    rec.chunk = chunk;
    rec.lane = laneOfCallingThread();
    rec.startUs = start;
    records_.push_back(rec);
    return static_cast<TaskId>(records_.size() - 1);
}

void
MeasuredTraceRecorder::end(TaskId id)
{
    const double finish = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    REPRO_ASSERT(id < records_.size(), "end() of an unknown task");
    Record &rec = records_[id];
    REPRO_ASSERT(!rec.ended, "task ended twice");
    rec.finishUs = std::max(finish, rec.startUs);
    rec.ended = true;
}

void
MeasuredTraceRecorder::addDep(TaskId before, TaskId after)
{
    std::lock_guard<std::mutex> lock(mutex_);
    REPRO_ASSERT(before < records_.size() && after < records_.size(),
                 "dependency references unknown measured task");
    REPRO_ASSERT(before < after,
                 "measured dependency must point backwards in time");
    deps_.emplace_back(before, after);
}

void
MeasuredTraceRecorder::retag(TaskId id, TaskKind kind)
{
    std::lock_guard<std::mutex> lock(mutex_);
    REPRO_ASSERT(id < records_.size(), "retag of an unknown task");
    records_[id].kind = kind;
}

std::size_t
MeasuredTraceRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

MeasuredTrace
MeasuredTraceRecorder::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    MeasuredTrace trace;
    trace.startUs.reserve(records_.size());
    trace.finishUs.reserve(records_.size());
    trace.lane.reserve(records_.size());
    for (const Record &rec : records_) {
        REPRO_ASSERT(rec.ended, "measured task begun but never ended");
        trace.graph.addTask(rec.kind, rec.thread,
                            rec.finishUs - rec.startUs, rec.chunk);
        trace.startUs.push_back(rec.startUs);
        trace.finishUs.push_back(rec.finishUs);
        trace.lane.push_back(rec.lane);
    }
    for (const auto &[before, after] : deps_)
        trace.graph.addDep(before, after);
    trace.laneCount = static_cast<unsigned>(lanes_.size());
    trace.wallSeconds = nowUs() * 1e-6;
    trace.poolTasks = probe_->tasks();
    trace.poolBusySeconds = probe_->busySeconds();
    return trace;
}

std::shared_ptr<util::ThreadPool::Profiler>
MeasuredTraceRecorder::poolProfiler()
{
    return probe_;
}

} // namespace repro::trace

/**
 * @file
 * Measured Fig.-10-style overhead characterization of a *native* run.
 *
 * Every figure bench re-simulates logical task graphs; this harness
 * instead executes the STATS protocol with real threads
 * (core::NativeRuntime), rebuilds each run's measured task graph from
 * the spans its protocol steps emitted (core::measuredTrace), and
 * feeds it to the same §V-B ladder (analysis::analyzeMeasuredGraph) —
 * printing the measured per-category speedup losses next to the DES
 * prediction for the same (workload, config, seed).  The
 * machine-readable baseline lives in BENCH_native_overheads.json at
 * the repo root.
 *
 * Default config: facedet-and-track at full scale, 4 threads, 5
 * repeats.  facedet-and-track is the workload whose tuned config has
 * R = 3 original states, so the default exercises the replica path
 * (streamclassifier tunes to R = 1: no replicas at all).  Full scale
 * keeps chunk bodies long enough that, even on a host with fewer
 * cores than threads, OS time-sharing averages out inside each chunk.
 *
 * Flags (bench_common.h style):
 *   --scale=<0..1>     workload input scale          (default 1.0)
 *   --seed=<n>         run seed                      (default 42)
 *   --workload=<name>  benchmark to run              (default facedet-and-track)
 *   --threads=<n>      parallelism cap, 0 = hardware (default 4)
 *   --repeats=<n>      timed runs, best taken        (default 5)
 *   --out=<path>       write the JSON here           (default BENCH_native_overheads.json)
 *   --trace=<path>     dump the measured run as a Chrome trace
 *   --metrics=<on|off> always-on metrics collection  (default on)
 *   --metrics-out=<p>  also write the metrics snapshot to <p>
 *   --trace-out=<p>    dump the recorded obs spans as a Chrome trace
 *   --flight-dir=<d>   write a manual flight-recorder dump into <d>
 *
 * Besides the overhead ladder, the harness prices the always-on
 * metrics themselves: the STATS run is timed with collection on and
 * off (interleaved, best of repeats) and the ratio is reported as
 * "metrics_overhead_fraction" — the acceptance bound is < 2%.  The
 * always-on span tracing layer (src/obs/) is priced the same way and
 * reported as "tracing_overhead_fraction", with the same < 2%
 * acceptance bound (CI gates the committed baseline).
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/critical_path.h"
#include "analysis/overheads.h"
#include "bench/bench_common.h"
#include "core/native_runtime.h"
#include "core/stats_protocol.h"
#include "metrics/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/span_recorder.h"
#include "platform/machine.h"
#include "platform/measured.h"
#include "platform/trace_export.h"
#include "trace/measured_trace.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/thread_pool.h"

using namespace repro;
using analysis::OverheadBreakdown;
using analysis::OverheadCategory;
using core::NativeRuntime;
using repro::util::formatDouble;
using repro::util::formatPercent;
using repro::util::Table;

namespace {

bool
sameResult(const NativeRuntime::Result &a, const NativeRuntime::Result &b)
{
    return a.outputs == b.outputs && a.commits == b.commits &&
           a.aborts == b.aborts;
}

double
lost(const OverheadBreakdown &b, OverheadCategory c)
{
    return b.lostFraction[static_cast<std::size_t>(c)];
}

void
ladderJson(std::ostringstream &json, const std::string &indent,
           const char *key, const OverheadBreakdown &b)
{
    json << indent << "\"" << key << "\": {\n"
         << indent << "  \"ideal_speedup\": " << b.idealSpeedup << ",\n"
         << indent << "  \"actual_speedup\": " << b.actualSpeedup
         << ",\n"
         << indent << "  \"lost_fraction\": {";
    for (std::size_t c = 0; c < analysis::kNumOverheadCategories; ++c) {
        json << (c ? ", " : "") << "\""
             << analysis::overheadCategoryName(
                    static_cast<OverheadCategory>(c))
             << "\": " << b.lostFraction[c];
    }
    json << "}\n" << indent << "}";
}

/** The native run, fully characterized. */
struct RunReport
{
    double statsSeconds = 0.0;
    NativeRuntime::Result kept; //!< The run whose graph is kept.
    std::uint64_t poolTasks = 0; //!< pool.tasks_executed over it.
    trace::MeasuredTrace mt;
    platform::Schedule sched;
    analysis::CriticalPathReport cp;
    OverheadBreakdown measured;

    /** Per-repeat sync+imbalance loss, one entry per run. */
    std::vector<double> syncImbalanceSamples;

    /**
     * The §V-B synchronization plus imbalance losses, averaged over
     * every repeat.  The mean, not the kept run's value: on a host
     * with fewer cores than threads the OS decides per run which
     * executor straggles, so only the expectation is stable.
     */
    double
    syncPlusImbalance() const
    {
        if (syncImbalanceSamples.empty())
            return lost(measured, OverheadCategory::Synchronization) +
                   lost(measured, OverheadCategory::Imbalance);
        double sum = 0.0;
        for (double s : syncImbalanceSamples)
            sum += s;
        return sum / static_cast<double>(syncImbalanceSamples.size());
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    const auto opt = bench::BenchOptions::parse(argc, argv, 1.0);
    const std::string workload_name =
        cli.getString("workload", "facedet-and-track");
    const unsigned threads = util::ThreadPool::defaultThreadCount(
        static_cast<unsigned>(cli.getInt("threads", 4)));
    const int repeats =
        std::max(1, static_cast<int>(cli.getInt("repeats", 5)));
    const std::string out_path =
        cli.getString("out", "BENCH_native_overheads.json");
    const std::string trace_path = cli.getString("trace", "");
    const std::string span_trace_path = cli.getString("trace-out", "");
    const std::string flight_dir = cli.getString("flight-dir", "");
    const bench::MetricsScope metrics_scope(opt);

    const bool oversubscribed = bench::threadsExceedCores(threads);

    const auto w = workloads::makeWorkload(workload_name, opt.scale);
    core::StatsConfig config = w->tunedConfig(threads);
    config.useStatsTlp = true;
    config.innerTlpThreads = 1; // Native path: no inner TLP re-execution.
    const auto &model = w->model();

    // Native sequential baseline (denominator), best of repeats.
    double seq_seconds = std::numeric_limits<double>::infinity();
    NativeRuntime::Result seq;
    for (int r = 0; r < repeats; ++r) {
        seq = NativeRuntime(threads).runSequential(model, opt.seed);
        seq_seconds = std::min(seq_seconds, seq.wallSeconds);
    }

    const NativeRuntime rt(threads);
    RunReport run;

    // STATS runs: wall time is the best of repeats, and each run's
    // measured task graph is rebuilt from the spans inside its window.
    // Keep the graph that used the most executor lanes and, among
    // those, the smallest makespan.  Preferring lanes first matters on
    // hosts with fewer cores than threads: there a repeat can
    // degenerate to one executor draining every chunk itself — a
    // serial execution that never exercises the protocol's scheduling
    // constraints — and such a run must not represent the protocol.
    // On an unloaded multi-core host every repeat uses all lanes and
    // the rule reduces to plain min-makespan (the run the OS disturbed
    // least, same best-of-repeats rule as the wall time).
    obs::SpanRecorder &spans = obs::SpanRecorder::global();
    const metrics::Counter &pool_tasks =
        metrics::MetricsRegistry::global().counter("pool.tasks_executed");
    run.statsSeconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
        const std::uint64_t mark = spans.nextId();
        const std::uint64_t tasks_before = pool_tasks.value();
        const NativeRuntime::Result result = rt.run(model, config, opt.seed);
        const std::uint64_t tasks = pool_tasks.value() - tasks_before;
        run.statsSeconds = std::min(run.statsSeconds, result.wallSeconds);
        trace::MeasuredTrace mt =
            core::measuredTrace(spans.snapshot().spans, mark);
        const OverheadBreakdown ladder = analysis::analyzeMeasuredGraph(
            mt.graph, threads, seq_seconds, result.commits, result.aborts);
        run.syncImbalanceSamples.push_back(
            lost(ladder, OverheadCategory::Synchronization) +
            lost(ladder, OverheadCategory::Imbalance));
        const bool better =
            r == 0 || mt.laneCount > run.mt.laneCount ||
            (mt.laneCount == run.mt.laneCount &&
             mt.makespanUs() < run.mt.makespanUs());
        if (better) {
            run.mt = std::move(mt);
            run.kept = result;
            run.poolTasks = tasks;
        }
    }
    run.sched = platform::measuredSchedule(run.mt);
    run.cp = analysis::criticalPathReport(run.sched, run.mt.graph);
    run.measured = analysis::analyzeMeasuredGraph(
        run.mt.graph, threads, seq_seconds, run.kept.commits,
        run.kept.aborts);

    // Price the always-on metrics: collection on vs off, interleaved
    // so clock drift and cache warm-up hit both states alike, best of
    // repeats each.  Results must be bit-identical either way —
    // collection only counts.  Skipped under --metrics=off: the probe
    // would have to enable collection, against the flag's word (the
    // fields stay 0).
    double on_seconds = 0.0;
    double off_seconds = 0.0;
    double metrics_overhead = 0.0;
    bool metrics_identical = true;
    if (opt.metrics) {
        on_seconds = std::numeric_limits<double>::infinity();
        off_seconds = std::numeric_limits<double>::infinity();
        for (int r = 0; r < repeats; ++r) {
            metrics::setEnabled(true);
            const NativeRuntime::Result on_run =
                rt.run(model, config, opt.seed);
            metrics::setEnabled(false);
            const NativeRuntime::Result off_run =
                rt.run(model, config, opt.seed);
            on_seconds = std::min(on_seconds, on_run.wallSeconds);
            off_seconds = std::min(off_seconds, off_run.wallSeconds);
            metrics_identical =
                metrics_identical && sameResult(on_run, off_run);
        }
        metrics::setEnabled(opt.metrics);
        if (!metrics_identical) {
            REPRO_LOG_WARN("metrics collection changed the results — "
                           "instrumentation bug");
        }
        metrics_overhead =
            off_seconds > 0.0 ? on_seconds / off_seconds - 1.0 : 0.0;
    }

    // Price the always-on span tracing (src/obs/) the same way:
    // recording on vs off, interleaved, best of repeats, and the
    // results must be bit-identical — spans only observe.
    double tracing_on_seconds = std::numeric_limits<double>::infinity();
    double tracing_off_seconds = std::numeric_limits<double>::infinity();
    bool tracing_identical = true;
    for (int r = 0; r < repeats; ++r) {
        obs::setEnabled(true);
        const NativeRuntime::Result on_run = rt.run(model, config, opt.seed);
        obs::setEnabled(false);
        const NativeRuntime::Result off_run =
            rt.run(model, config, opt.seed);
        tracing_on_seconds = std::min(tracing_on_seconds, on_run.wallSeconds);
        tracing_off_seconds =
            std::min(tracing_off_seconds, off_run.wallSeconds);
        tracing_identical = tracing_identical && sameResult(on_run, off_run);
    }
    obs::setEnabled(true);
    if (!tracing_identical) {
        REPRO_LOG_WARN("span tracing changed the results — "
                       "instrumentation bug");
    }
    const double tracing_overhead =
        tracing_off_seconds > 0.0
            ? tracing_on_seconds / tracing_off_seconds - 1.0
            : 0.0;

    // DES prediction of the same (workload, config, seed) for the
    // side-by-side comparison.
    const core::Engine engine;
    const analysis::OverheadAnalyzer analyzer(
        engine, platform::MachineModel::haswell(threads));
    const OverheadBreakdown des = analyzer.analyze(*w, config, opt.seed);

    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        if (!os)
            util::fatal("cannot write " + trace_path);
        platform::writeChromeTrace(run.sched, run.mt.graph, os);
    }
    if (!span_trace_path.empty()) {
        std::ofstream os(span_trace_path);
        if (!os)
            util::fatal("cannot write " + span_trace_path);
        platform::writeSpansChromeTrace(
            obs::SpanRecorder::global().snapshot(), os);
    }
    if (!flight_dir.empty()) {
        obs::FlightRecorder::Options fopts;
        fopts.dir = flight_dir;
        obs::FlightRecorder flight(fopts);
        const auto dump = flight.dump("manual");
        if (dump)
            std::cout << "flight dump: " << dump->path << "\n";
    }

    Table table({"Category", "measured", "DES model"});
    const auto row = [&](OverheadCategory c) {
        table.addRow({analysis::overheadCategoryName(c),
                      formatPercent(lost(run.measured, c)),
                      formatPercent(lost(des, c))});
    };
    row(OverheadCategory::Synchronization);
    row(OverheadCategory::ExtraComputation);
    row(OverheadCategory::Imbalance);
    row(OverheadCategory::SequentialCode);
    row(OverheadCategory::Mispeculation);
    row(OverheadCategory::Unreachability);
    table.addRow({"achieved speedup",
                  formatDouble(run.measured.actualSpeedup, 2) + "x",
                  formatDouble(des.actualSpeedup, 2) + "x"});
    bench::emit(table,
                "Measured vs DES % of ideal speedup lost (" +
                    workload_name + ", " + config.describe() + ", " +
                    std::to_string(threads) + " threads)",
                opt.csv);

    const double wall_speedup =
        run.statsSeconds > 0.0 ? seq_seconds / run.statsSeconds : 0.0;
    std::cout << "seq " << formatDouble(seq_seconds * 1e3, 2)
              << " ms, stats " << formatDouble(run.statsSeconds * 1e3, 2)
              << " ms (wall speedup " << formatDouble(wall_speedup, 2)
              << "x), " << run.kept.commits << " commits, "
              << run.kept.aborts << " aborts, "
              << run.mt.graph.size() << " measured tasks on "
              << run.mt.laneCount << " lanes, sync+imbalance "
              << formatPercent(run.syncPlusImbalance()) << "\n";
    std::cout << run.cp.describe();
    if (opt.metrics) {
        std::cout << "metrics overhead: "
                  << formatPercent(metrics_overhead) << " ("
                  << formatDouble(on_seconds * 1e3, 2) << " ms on vs "
                  << formatDouble(off_seconds * 1e3, 2) << " ms off)\n";
    }
    std::cout << "tracing overhead: " << formatPercent(tracing_overhead)
              << " (" << formatDouble(tracing_on_seconds * 1e3, 2)
              << " ms on vs "
              << formatDouble(tracing_off_seconds * 1e3, 2)
              << " ms off)\n";

    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"native_overheads\",\n"
         << "  \"workload\": \"" << workload_name << "\",\n"
         << "  \"config\": \"" << config.describe() << "\",\n"
         << "  \"scale\": " << opt.scale << ",\n"
         << "  \"seed\": " << opt.seed << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"threads_exceed_cores\": "
         << (oversubscribed ? "true" : "false") << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"host\": " << bench::hostMetadataJson() << ",\n"
         << "  \"sequential_seconds\": " << seq_seconds << ",\n"
         << "  \"metrics_overhead_fraction\": " << metrics_overhead
         << ",\n"
         << "  \"stats_seconds_metrics_on\": " << on_seconds << ",\n"
         << "  \"stats_seconds_metrics_off\": " << off_seconds << ",\n"
         << "  \"metrics_identical\": "
         << (metrics_identical ? "true" : "false") << ",\n"
         << "  \"tracing_overhead_fraction\": " << tracing_overhead
         << ",\n"
         << "  \"stats_seconds_tracing_on\": " << tracing_on_seconds
         << ",\n"
         << "  \"stats_seconds_tracing_off\": " << tracing_off_seconds
         << ",\n"
         << "  \"tracing_identical\": "
         << (tracing_identical ? "true" : "false") << ",\n"
         << "  \"native\": {\n"
         << "    \"commits\": " << run.kept.commits << ",\n"
         << "    \"aborts\": " << run.kept.aborts << ",\n"
         << "    \"stats_seconds\": " << run.statsSeconds << ",\n"
         << "    \"wall_speedup\": " << wall_speedup << ",\n"
         << "    \"measured_tasks\": " << run.mt.graph.size() << ",\n"
         << "    \"measured_lanes\": " << run.mt.laneCount << ",\n"
         << "    \"measured_makespan_us\": " << run.mt.makespanUs()
         << ",\n"
         << "    \"pool_tasks\": " << run.poolTasks << ",\n"
         << "    \"critical_path\": {\"busy_us\": " << run.cp.busyCycles
         << ", \"wait_us\": " << run.cp.waitCycles
         << ", \"makespan_us\": " << run.cp.makespan
         << ", \"overhead_share\": " << run.cp.overheadShare() << "},\n"
         << "    \"busy_seconds_by_kind\": {";
    for (std::size_t k = 0; k < trace::kNumTaskKinds; ++k) {
        json << (k ? ", " : "") << "\""
             << trace::taskKindName(static_cast<trace::TaskKind>(k))
             << "\": " << run.sched.busyByKind[k] * 1e-6;
    }
    json << "},\n"
         << "    \"sync_plus_imbalance\": " << run.syncPlusImbalance()
         << ",\n"
         << "    \"sync_plus_imbalance_samples\": [";
    for (std::size_t i = 0; i < run.syncImbalanceSamples.size(); ++i)
        json << (i ? ", " : "") << run.syncImbalanceSamples[i];
    json << "],\n";
    ladderJson(json, "    ", "measured", run.measured);
    json << "\n  },\n";
    ladderJson(json, "  ", "des_model", des);
    json << ",\n  \"metrics\": " << bench::metricsSnapshotJson("  ")
         << "\n}\n";

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        if (!os)
            util::fatal("cannot write " + out_path);
        os << json.str();
    }
    if (opt.csv)
        std::cout << json.str();
    return 0;
}

/**
 * @file
 * Regenerates Fig. 16: distribution of output qualities across
 * repeated runs (paper: 200) of the original program vs. the STATS
 * binary.  Quality is each workload's distance-to-oracle metric
 * (lower is better).
 */

#include <iostream>

#include "analysis/quality.h"
#include "bench/bench_common.h"
#include "util/cli.h"
#include "util/histogram.h"

using namespace repro;
using analysis::QualityMode;
using repro::util::formatDouble;
using repro::util::Table;

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    const auto opt = bench::BenchOptions::parse(argc, argv, 0.4);
    const bench::MetricsScope metrics_scope(opt);
    const unsigned runs =
        static_cast<unsigned>(cli.getInt("runs", 200));
    const core::Engine engine;

    Table table({"Benchmark", "Build", "min", "p25", "median", "p75",
                 "max", "mean", "distribution"});
    for (const auto &w : workloads::makeAllWorkloads(opt.scale)) {
        // Both builds share one histogram range so their sparklines
        // are comparable, like the paper's per-benchmark panels.
        const auto orig = analysis::measureQuality(
            *w, engine, QualityMode::Original, runs, 28, opt.seed);
        const auto stats = analysis::measureQuality(
            *w, engine, QualityMode::Stats, runs, 28, opt.seed);
        const double lo = std::min(orig.min, stats.min);
        const double hi = std::max(orig.max, stats.max);
        const double span = hi > lo ? hi - lo : 1.0;
        for (const auto *d : {&orig, &stats}) {
            util::Histogram hist(lo, lo + span, 24);
            hist.addAll(d->samples);
            std::string sparkline = "|";
            sparkline += hist.sparkline();
            sparkline += '|';
            table.addRow(
                {d == &orig ? w->name() : "",
                 d == &orig ? "original" : "stats",
                 formatDouble(d->min, 4), formatDouble(d->p25, 4),
                 formatDouble(d->median, 4), formatDouble(d->p75, 4),
                 formatDouble(d->max, 4), formatDouble(d->mean, 4),
                 sparkline});
        }
    }
    bench::emit(table,
                "Fig. 16: output-quality distribution over " +
                    std::to_string(runs) +
                    " runs (distance to oracle, lower is better)",
                opt.csv);
    std::cout << "paper: STATS preserves semantics and tends to "
                 "improve output quality.\n";
    return 0;
}

/**
 * @file
 * Regenerates the §IV-B autotuning characterization: configurations
 * explored per benchmark (the paper reports 89-342 within 2-72 h
 * windows) and the configuration the search settles on, compared
 * against the shipped tuned configuration.
 */

#include <cstdint>
#include <iostream>
#include <string>

#include "autotuner/tuner.h"
#include "bench/bench_common.h"
#include "platform/machine.h"
#include "util/cli.h"
#include "util/log.h"

using namespace repro;
using repro::util::formatDouble;
using repro::util::Table;

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    const auto opt = bench::BenchOptions::parse(argc, argv, 0.25);
    const bench::MetricsScope metrics_scope(opt);
    const std::int64_t budget_flag = cli.getInt("budget", 120);
    if (budget_flag < 1)
        util::fatal("--budget must be at least 1, got " +
                    std::to_string(budget_flag));
    const auto budget = static_cast<std::size_t>(budget_flag);
    const core::Engine engine;
    const auto machine = platform::MachineModel::haswell(28);

    Table table({"Benchmark", "space size", "configs explored",
                 "best found", "vs shipped config"});
    for (const auto &w : workloads::makeAllWorkloads(opt.scale)) {
        const autotuner::Objective objective(*w, engine, machine);
        const auto space = w->designSpace(28);

        autotuner::Tuner::Options topt;
        topt.budget = budget;
        topt.profileSeed = opt.seed;
        const autotuner::Tuner tuner(topt);
        auto strategy = autotuner::makeHillClimb();
        const auto result = tuner.tune(objective, space, *strategy);

        const double shipped =
            objective.evaluate(w->tunedConfig(28), opt.seed);
        const double ratio = shipped / result.best.cycles;
        table.addRow({w->name(), std::to_string(space.size()),
                      std::to_string(result.evaluated),
                      result.best.config.describe(),
                      formatDouble(ratio, 2) + "x"});
    }
    bench::emit(table,
                "Autotuner (§IV-B): design-space exploration, budget " +
                    std::to_string(budget),
                opt.csv);
    std::cout << "paper: 89-342 configurations explored per benchmark "
                 "(2-72 h windows; here the\n       profiler is the "
                 "platform simulator).  'vs shipped' > 1 means the "
                 "search found a\n       configuration faster than the "
                 "hard-coded tuned one.\n";
    return 0;
}

/**
 * @file
 * Tests for the design-space autotuner (autotuner/tuner.h).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "autotuner/tuner.h"
#include "platform/machine.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace {

using repro::autotuner::Objective;
using repro::autotuner::Tuner;
using repro::autotuner::TuningResult;
using repro::core::DesignSpace;
using repro::core::Engine;
using repro::platform::MachineModel;
using namespace repro::workloads;

constexpr double kScale = 0.25;

TEST(DesignSpace, IndexRoundTrip)
{
    const DesignSpace space = DesignSpace::standard(512, 28);
    for (std::size_t i = 0; i < space.size();
         i += std::max<std::size_t>(space.size() / 17, 1)) {
        const auto cfg = space.at(i);
        EXPECT_EQ(space.indexOf(cfg), i);
    }
}

TEST(DesignSpace, OffGridConfigNotFound)
{
    const DesignSpace space = DesignSpace::standard(512, 28);
    repro::core::StatsConfig cfg;
    cfg.numChunks = 9999;
    EXPECT_EQ(space.indexOf(cfg), space.size());
}

TEST(Objective, TunedConfigIsFeasible)
{
    const Engine engine;
    const auto w = makeWorkload("streamclassifier", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(28));
    const double cycles = obj.evaluate(w->tunedConfig(28), 42);
    EXPECT_TRUE(std::isfinite(cycles));
    EXPECT_GT(cycles, 0.0);
}

TEST(Objective, InfeasibleConfigIsInfinite)
{
    const Engine engine;
    const auto w = makeWorkload("streamclassifier", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(28));
    repro::core::StatsConfig bad;
    bad.numChunks = 1u << 20; // More chunks than inputs.
    EXPECT_TRUE(std::isinf(obj.evaluate(bad, 42)));
}

TEST(Tuner, BudgetRespected)
{
    const Engine engine;
    const auto w = makeWorkload("streamclassifier", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(14));
    const auto space = w->designSpace(14);
    Tuner::Options opt;
    opt.budget = 25;
    const Tuner tuner(opt);
    auto strategy = repro::autotuner::makeRandomSearch();
    const TuningResult r = tuner.tune(obj, space, *strategy);
    EXPECT_LE(r.evaluated, 25u);
    EXPECT_GE(r.evaluated, 10u);
    EXPECT_TRUE(r.best.feasible);
}

TEST(Tuner, BestIsMinimumOfHistory)
{
    const Engine engine;
    const auto w = makeWorkload("swaptions", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(14));
    Tuner::Options opt;
    opt.budget = 30;
    const Tuner tuner(opt);
    auto strategy = repro::autotuner::makeRandomSearch();
    const TuningResult r =
        tuner.tune(obj, w->designSpace(14), *strategy);
    for (const auto &eval : r.history)
        EXPECT_LE(r.best.cycles, eval.cycles);
}

TEST(Tuner, StrategiesProduceFeasibleResults)
{
    const Engine engine;
    const auto w = makeWorkload("streamcluster", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(14));
    const auto space = w->designSpace(14);
    Tuner::Options opt;
    opt.budget = 30;
    const Tuner tuner(opt);

    auto random = repro::autotuner::makeRandomSearch();
    auto climb = repro::autotuner::makeHillClimb();
    auto evo = repro::autotuner::makeEvolutionary(6);
    for (auto *strategy :
         {random.get(), climb.get(), evo.get()}) {
        const TuningResult r = tuner.tune(obj, space, *strategy);
        EXPECT_TRUE(r.best.feasible) << strategy->name();
        EXPECT_GT(r.evaluated, 0u) << strategy->name();
    }
}

TEST(Tuner, GuidedSearchBeatsMedianRandomPoint)
{
    // Weak but meaningful: after a 40-evaluation budget, hill climbing
    // must find a configuration at least as good as the median random
    // sample.
    const Engine engine;
    const auto w = makeWorkload("streamclassifier", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(14));
    const auto space = w->designSpace(14);
    Tuner::Options opt;
    opt.budget = 40;
    const Tuner tuner(opt);

    auto random = repro::autotuner::makeRandomSearch();
    auto climb = repro::autotuner::makeHillClimb();
    const TuningResult r_random = tuner.tune(obj, space, *random);
    const TuningResult r_climb = tuner.tune(obj, space, *climb);

    std::vector<double> random_cycles;
    for (const auto &eval : r_random.history) {
        if (eval.feasible)
            random_cycles.push_back(eval.cycles);
    }
    ASSERT_FALSE(random_cycles.empty());
    std::sort(random_cycles.begin(), random_cycles.end());
    const double median = random_cycles[random_cycles.size() / 2];
    EXPECT_LE(r_climb.best.cycles, median);
}

TEST(Tuner, Deterministic)
{
    const Engine engine;
    const auto w = makeWorkload("swaptions", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(14));
    Tuner::Options opt;
    opt.budget = 20;
    const Tuner tuner(opt);
    auto s1 = repro::autotuner::makeHillClimb();
    auto s2 = repro::autotuner::makeHillClimb();
    const TuningResult a = tuner.tune(obj, w->designSpace(14), *s1);
    const TuningResult b = tuner.tune(obj, w->designSpace(14), *s2);
    EXPECT_DOUBLE_EQ(a.best.cycles, b.best.cycles);
    EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST(Tuner, ZeroBudgetDies)
{
    const Engine engine;
    const auto w = makeWorkload("streamclassifier", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(14));
    const auto space = w->designSpace(14);
    Tuner::Options opt;
    opt.budget = 0;
    const Tuner tuner(opt);
    auto strategy = repro::autotuner::makeRandomSearch();
    EXPECT_DEATH(tuner.tune(obj, space, *strategy),
                 "budget must be positive");
}

TEST(Tuner, EachProposalProfilesWithItsIndexStream)
{
    // A proposal's profile seed is Rng(profileSeed).split(index) of
    // its design-space index, whatever the strategy and whenever the
    // search proposes it; every history entry is a distinct index.
    const Engine engine;
    const auto w = makeWorkload("streamclassifier", kScale);
    const Objective obj(*w, engine, MachineModel::haswell(14));
    const auto space = w->designSpace(14);
    Tuner::Options opt;
    opt.budget = 20;
    const Tuner tuner(opt);

    auto random = repro::autotuner::makeRandomSearch();
    auto climb = repro::autotuner::makeHillClimb();
    auto evo = repro::autotuner::makeEvolutionary(6);
    for (auto *strategy : {random.get(), climb.get(), evo.get()}) {
        const TuningResult r = tuner.tune(obj, space, *strategy);
        EXPECT_EQ(r.history.size(), r.evaluated) << strategy->name();
        std::set<std::size_t> seen;
        for (const auto &eval : r.history) {
            const std::size_t index = space.indexOf(eval.config);
            ASSERT_LT(index, space.size()) << strategy->name();
            EXPECT_TRUE(seen.insert(index).second)
                << strategy->name() << " profiled index " << index
                << " twice";
            const std::uint64_t seed =
                repro::util::Rng(opt.profileSeed).split(index).seed();
            EXPECT_EQ(eval.cycles, obj.evaluate(eval.config, seed))
                << strategy->name() << " index " << index;
        }
    }
}

} // namespace

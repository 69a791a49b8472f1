/**
 * @file
 * Parameterized property sweeps over the STATS design space.
 *
 * For every (chunks, window, replicas, innerTlp) combination these
 * check the invariants of DESIGN.md §4 hold: graph well-formedness,
 * determinism, speculation bookkeeping, instruction-accounting
 * consistency, and the makespan sanity bounds of the simulated
 * platform.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/ema_model.h"
#include "core/engine.h"
#include "platform/des.h"

namespace {

using repro::core::Engine;
using repro::core::RunResult;
using repro::core::StatsConfig;
using repro::core::TlpModel;
using repro::platform::MachineModel;
using repro::platform::Simulator;
using repro::testing::EmaModel;
using repro::trace::TaskKind;

/** (numChunks, altWindowK, numOriginalStates, innerTlpThreads). */
using ConfigTuple = std::tuple<unsigned, unsigned, unsigned, unsigned>;

class EngineConfigSweep : public ::testing::TestWithParam<ConfigTuple>
{
  protected:
    static EmaModel
    makeModel()
    {
        EmaModel::Config mc;
        mc.inputs = 192;
        mc.alpha = 0.5;
        mc.noise = 0.001;
        mc.tolerance = 0.1;
        return EmaModel(mc);
    }

    static StatsConfig
    config()
    {
        const auto [c, k, r, t] = GetParam();
        StatsConfig cfg;
        cfg.numChunks = c;
        cfg.altWindowK = k;
        cfg.numOriginalStates = r;
        cfg.innerTlpThreads = t;
        return cfg;
    }
};

TEST_P(EngineConfigSweep, GraphAcyclicAndBookkeepingConsistent)
{
    const EmaModel model = makeModel();
    const Engine engine;
    const RunResult r =
        engine.runStats(model, {}, TlpModel{}, config(), 7);

    EXPECT_TRUE(r.graph.isAcyclic());
    EXPECT_EQ(r.commits + r.aborts, config().numChunks - 1);
    EXPECT_EQ(r.outputs.size(), model.numInputs());

    // Ops and graph work agree for the executed-span categories.
    const auto by_kind = r.graph.workByKind();
    for (TaskKind k : {TaskKind::ChunkBody, TaskKind::AltProducer,
                       TaskKind::OriginalStateGen,
                       TaskKind::MispecReExec}) {
        EXPECT_NEAR(by_kind[static_cast<std::size_t>(k)],
                    static_cast<double>(r.ops.count(k)), 1e-6)
            << taskKindName(k);
    }
}

TEST_P(EngineConfigSweep, DeterministicAcrossRuns)
{
    const EmaModel model = makeModel();
    const Engine engine;
    const RunResult a =
        engine.runStats(model, {}, TlpModel{}, config(), 11);
    const RunResult b =
        engine.runStats(model, {}, TlpModel{}, config(), 11);
    EXPECT_EQ(a.graph.size(), b.graph.size());
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    for (std::size_t i = 0; i < a.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(a.outputs[i], b.outputs[i]);
}

TEST_P(EngineConfigSweep, MakespanWithinWorkBounds)
{
    const EmaModel model = makeModel();
    const Engine engine;
    const RunResult r =
        engine.runStats(model, {}, TlpModel{}, config(), 3);

    MachineModel m = MachineModel::haswell(8);
    m.syncOpCycles = 0.0;
    m.contextSwitchCycles = 0.0;
    const auto sched = Simulator(m).run(r.graph);

    // Makespan is at least total-work/cores and at most total work
    // plus the (zero-cost-sync) structural slack.
    EXPECT_GE(sched.makespan + 1e-6, r.graph.totalWork() / 8.0);
    EXPECT_LE(sched.makespan,
              r.graph.totalWork() + 1.0);
}

TEST_P(EngineConfigSweep, ThreadCountFormula)
{
    const EmaModel model = makeModel();
    const Engine engine;
    const auto cfg = config();
    const RunResult r = engine.runStats(model, {}, TlpModel{}, cfg, 5);
    const unsigned expected =
        cfg.numChunks * cfg.innerTlpThreads +
        (cfg.numChunks - 1) * (cfg.numOriginalStates - 1);
    EXPECT_EQ(r.threadsCreated, expected);
}

std::string
configName(const ::testing::TestParamInfo<ConfigTuple> &info)
{
    std::string name = "C";
    name += std::to_string(std::get<0>(info.param)) + "k" +
            std::to_string(std::get<1>(info.param)) + "R" +
            std::to_string(std::get<2>(info.param)) + "t" +
            std::to_string(std::get<3>(info.param));
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, EngineConfigSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Values(1u, 4u, 8u),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 2u, 4u)),
    configName);

/** Seed sweep: semantics preservation holds for every seed. */
class EngineSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineSeedSweep, CommitsOnlyWithinTolerance)
{
    // With a generous window and tolerance every chunk commits, and
    // every committed boundary satisfies the workload's own matches()
    // check by construction — cross-check by replaying the alternative
    // producers and comparing against the adjacent chunk outputs.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.noise = 0.001;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    StatsConfig cfg;
    cfg.numChunks = 8;
    cfg.altWindowK = 8;
    cfg.numOriginalStates = 2;

    const Engine engine;
    const RunResult r =
        engine.runStats(model, {}, TlpModel{}, cfg, GetParam());
    EXPECT_EQ(r.commits, 7u);
    EXPECT_EQ(r.aborts, 0u);

    // Outputs must be continuous at boundaries: adjacent outputs stay
    // within the decayed-tolerance envelope of the EMA.
    for (unsigned c = 1; c < 8; ++c) {
        const std::size_t b = 128 * c / 8;
        const double before = r.outputs[b - 1];
        const double after = r.outputs[b];
        const double step =
            std::abs(after - (1.0 - mc.alpha) * before -
                     mc.alpha * EmaModel::signal(b));
        EXPECT_LE(step, mc.tolerance + 6.0 * mc.noise)
            << "seed " << GetParam() << " boundary " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeedSweep,
                         ::testing::Range<std::uint64_t>(0, 16));

} // namespace

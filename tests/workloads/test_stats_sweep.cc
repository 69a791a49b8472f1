/**
 * @file
 * Parameterized STATS-integration sweep over (benchmark x seed).
 *
 * Every benchmark must uphold the protocol invariants for every seed:
 * deterministic replay, bounded abort rate under its tuned
 * configuration, finite bounded quality, and agreement between the
 * native runtime and the logical engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/engine.h"
#include "core/native_runtime.h"
#include "workloads/workload.h"

namespace {

using repro::core::Engine;
using repro::core::NativeRuntime;
using repro::core::RunResult;
using namespace repro::workloads;

constexpr double kScale = 0.25;

using Param = std::tuple<std::string, std::uint64_t>;

class StatsSweep : public ::testing::TestWithParam<Param>
{
};

TEST_P(StatsSweep, ProtocolInvariantsHold)
{
    const auto &[name, seed] = GetParam();
    const auto w = makeWorkload(name, kScale);
    const Engine engine;
    const auto cfg = w->tunedConfig(28);
    const RunResult run =
        engine.runStats(w->model(), w->region(), w->tlpModel(), cfg,
                        seed);

    // Every boundary resolves exactly once.
    EXPECT_EQ(run.commits + run.aborts, cfg.numChunks - 1);
    // The tuned configuration keeps the abort rate bounded for every
    // seed (bodytrack, the mispeculation-prone benchmark, may abort up
    // to half its boundaries at this reduced scale).
    const unsigned limit = name == "bodytrack"
                               ? cfg.numChunks / 2 + 1
                               : cfg.numChunks / 3 + 1;
    EXPECT_LE(run.aborts, limit) << name << " seed " << seed;

    // Quality is finite and within a loose envelope of the original's.
    const RunResult seq =
        engine.runSequential(w->model(), w->region(), seed);
    const double q_stats = w->quality(run.outputs);
    const double q_seq = w->quality(seq.outputs);
    EXPECT_TRUE(std::isfinite(q_stats));
    EXPECT_LE(q_stats, q_seq * 5.0 + 1.0) << name << " seed " << seed;

    // The graph is well formed.
    EXPECT_TRUE(run.graph.isAcyclic());
}

TEST_P(StatsSweep, NativeRuntimeAgreesWithEngine)
{
    const auto &[name, seed] = GetParam();
    const auto w = makeWorkload(name, kScale);
    const Engine engine;
    const NativeRuntime native(2);
    auto cfg = w->tunedConfig(14);
    cfg.innerTlpThreads = 1;

    const RunResult logical = engine.runStats(
        w->model(), w->region(), w->tlpModel(), cfg, seed);
    const auto real = native.run(w->model(), cfg, seed);
    ASSERT_EQ(real.outputs.size(), logical.outputs.size());
    EXPECT_EQ(real.commits, logical.commits) << name;
    EXPECT_EQ(real.aborts, logical.aborts) << name;
    for (std::size_t i = 0; i < real.outputs.size(); ++i) {
        // Exact equality, not a tolerance: the native protocol must
        // not diverge from the oracle by a single ULP.
        ASSERT_EQ(real.outputs[i], logical.outputs[i])
            << name << " seed " << seed << " input " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, StatsSweep,
    ::testing::Combine(::testing::Values("swaptions",
                                         "streamclassifier",
                                         "streamcluster", "bodytrack",
                                         "facetrack",
                                         "facedet-and-track"),
                       ::testing::Values<std::uint64_t>(1, 17, 99)),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string name = std::get<0>(info.param);
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace

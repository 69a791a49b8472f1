/**
 * @file
 * Bringing your own workload to the autotuner.
 *
 * Defines a small custom nondeterministic computation (a stochastic
 * cellular annealer), wraps it as a state dependence, and lets the
 * three search strategies explore the STATS design space the way the
 * paper's OpenTuner setup does (§II-C, §IV-B).
 *
 * Usage: ./build/examples/custom_state_dependence [--budget=80]
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autotuner/tuner.h"
#include "core/engine.h"
#include "platform/machine.h"
#include "util/cli.h"
#include "util/log.h"
#include "workloads/workload.h"

using namespace repro;

namespace {

/** State: a small grid of spins plus an annealing temperature. */
struct AnnealState : core::TypedState<AnnealState>
{
    std::vector<double> spins = std::vector<double>(64, 0.0);
    double temperature = 2.0;
};

/**
 * Stochastic annealer: each input performs a sweep of noisy local
 * relaxations and cools slightly.  Short memory: the temperature floor
 * and the local relaxation make the grid forget its past after a few
 * dozen sweeps.
 */
class Annealer : public core::IStateModel
{
  public:
    std::string name() const override { return "annealer"; }
    std::size_t numInputs() const override { return 2048; }

    core::StateHandle
    initialState() const override
    {
        return std::make_unique<AnnealState>();
    }

    core::StateHandle
    coldState() const override
    {
        return std::make_unique<AnnealState>();
    }

    double
    update(core::State &state, std::size_t input,
           core::ExecContext &ctx) const override
    {
        auto &s = static_cast<AnnealState &>(state);
        const double target =
            std::sin(static_cast<double>(input) * 0.004);
        double energy = 0.0;
        for (std::size_t i = 0; i < s.spins.size(); ++i) {
            const double left = s.spins[(i + 63) % 64];
            const double right = s.spins[(i + 1) % 64];
            const double proposal =
                0.5 * (left + right) * 0.5 + 0.5 * target +
                ctx.rng().gaussian(0.0, s.temperature * 0.02);
            s.spins[i] = 0.6 * s.spins[i] + 0.4 * proposal;
            energy += (s.spins[i] - target) * (s.spins[i] - target);
        }
        s.temperature = std::max(0.2, s.temperature * 0.999);
        ctx.tick(64 * 40);
        return energy / 64.0;
    }

    bool
    matches(const core::State &spec,
            const core::State &orig) const override
    {
        const auto &a = static_cast<const AnnealState &>(spec);
        const auto &b = static_cast<const AnnealState &>(orig);
        double d = 0.0;
        for (std::size_t i = 0; i < a.spins.size(); ++i)
            d += std::abs(a.spins[i] - b.spins[i]);
        return d / 64.0 <= 0.05;
    }

    std::size_t stateSizeBytes() const override { return 64 * 8 + 8; }
};

/** Minimal Workload adapter so the tuner's Objective can profile it. */
class AnnealerWorkload : public workloads::Workload
{
  public:
    std::string name() const override { return "annealer"; }
    const core::IStateModel &model() const override { return model_; }
    core::RegionProfile region() const override { return {5000, 5000}; }
    core::TlpModel tlpModel() const override { return {}; }

    core::StatsConfig
    tunedConfig(unsigned cores) const override
    {
        core::StatsConfig cfg;
        cfg.numChunks = cores;
        cfg.altWindowK = 24;
        cfg.numOriginalStates = 2;
        return cfg;
    }

    double
    quality(const std::vector<double> &outputs) const override
    {
        return outputs.back();
    }

    perfmodel::AccessProfile
    accessProfile() const override
    {
        return {};
    }

  private:
    Annealer model_;
};

} // namespace

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    const std::int64_t budget_flag = cli.getInt("budget", 80);
    if (budget_flag < 1)
        util::fatal("--budget must be at least 1, got " +
                    std::to_string(budget_flag));
    const auto budget = static_cast<std::size_t>(budget_flag);

    const AnnealerWorkload workload;
    const core::Engine engine;
    const autotuner::Objective objective(
        workload, engine, platform::MachineModel::haswell(28));
    const auto space = workload.designSpace(28);
    std::printf("design space: %zu configurations\n", space.size());

    autotuner::Tuner::Options opt;
    opt.budget = budget;
    const autotuner::Tuner tuner(opt);

    auto random = autotuner::makeRandomSearch();
    auto climb = autotuner::makeHillClimb();
    auto evo = autotuner::makeEvolutionary();
    for (autotuner::SearchStrategy *strategy :
         {random.get(), climb.get(), evo.get()}) {
        const auto result = tuner.tune(objective, space, *strategy);
        std::printf("%-12s: explored %3zu configs, best %s "
                    "(%.0f kcycles)\n",
                    strategy->name().c_str(), result.evaluated,
                    result.best.config.describe().c_str(),
                    result.best.cycles / 1e3);
    }
    return 0;
}

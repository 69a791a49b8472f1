#include "autotuner/tuner.h"

#include <algorithm>
#include <set>

#include "metrics/metrics.h"
#include "platform/des.h"
#include "util/log.h"

namespace repro::autotuner {

using core::DesignSpace;
using core::StatsConfig;

namespace {

/** Always-on tuner telemetry (metrics/metrics.h). */
struct TunerMetrics
{
    metrics::Counter &evaluated; //!< Objective::evaluate calls.
    metrics::Counter &cacheHits; //!< Re-proposals of profiled configs.
    metrics::LatencyHistogram &evaluateSeconds;
};

TunerMetrics &
tunerMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static TunerMetrics m{reg.counter("tuner.configs_evaluated"),
                          reg.counter("tuner.cache_hits"),
                          reg.histogram("tuner.evaluate_seconds")};
    return m;
}

} // namespace

Objective::Objective(const workloads::Workload &workload,
                     const core::Engine &engine,
                     platform::MachineModel machine)
    : workload_(workload), engine_(engine), machine_(std::move(machine))
{
}

double
Objective::evaluate(const StatsConfig &config, std::uint64_t seed) const
{
    const auto &model = workload_.model();
    if (!config.check(model.numInputs()).empty())
        return std::numeric_limits<double>::infinity();
    tunerMetrics().evaluated.inc();
    const metrics::ScopedTimer timer(tunerMetrics().evaluateSeconds);
    const core::RunResult run =
        engine_.runStats(model, workload_.region(), workload_.tlpModel(),
                         config, seed);
    return platform::Simulator(machine_).run(run.graph).makespan;
}

namespace {

/** Grid coordinates of a design-space index. */
struct Coords
{
    std::size_t ci = 0, wi = 0, ri = 0, ti = 0;
};

Coords
coordsOf(const DesignSpace &space, std::size_t index)
{
    Coords c;
    c.ti = index % space.innerTlpOptions.size();
    index /= space.innerTlpOptions.size();
    c.ri = index % space.origStateOptions.size();
    index /= space.origStateOptions.size();
    c.wi = index % space.windowOptions.size();
    index /= space.windowOptions.size();
    c.ci = index;
    return c;
}

std::size_t
indexOf(const DesignSpace &space, const Coords &c)
{
    return ((c.ci * space.windowOptions.size() + c.wi) *
                space.origStateOptions.size() +
            c.ri) *
               space.innerTlpOptions.size() +
           c.ti;
}

/** Random single-coordinate step of +/-1 on the grid. */
Coords
neighbor(const DesignSpace &space, Coords c, util::Rng &rng)
{
    const std::size_t dims[4] = {
        space.chunkOptions.size(), space.windowOptions.size(),
        space.origStateOptions.size(), space.innerTlpOptions.size()};
    std::size_t *fields[4] = {&c.ci, &c.wi, &c.ri, &c.ti};
    // Pick a dimension with more than one option.
    for (int attempt = 0; attempt < 8; ++attempt) {
        const std::size_t d = rng.uniformInt(4);
        if (dims[d] < 2)
            continue;
        std::size_t &v = *fields[d];
        if (v == 0) {
            ++v;
        } else if (v + 1 >= dims[d]) {
            --v;
        } else {
            v += rng.bernoulli(0.5) ? 1 : static_cast<std::size_t>(-1);
        }
        break;
    }
    return c;
}

/** Index of the minimum-cycles entry, front-first on ties. */
std::size_t
bestOfHistory(const std::vector<std::pair<std::size_t, Evaluation>> &history)
{
    std::size_t best_index = history.front().first;
    double best = history.front().second.cycles;
    for (const auto &[index, eval] : history) {
        if (eval.cycles < best) {
            best = eval.cycles;
            best_index = index;
        }
    }
    return best_index;
}

class RandomSearch final : public SearchStrategy
{
  public:
    std::string name() const override { return "random"; }

    std::size_t
    propose(const DesignSpace &space,
            const std::vector<std::pair<std::size_t, Evaluation>> &,
            util::Rng &rng) override
    {
        return rng.uniformInt(space.size());
    }
};

class HillClimb final : public SearchStrategy
{
  public:
    std::string name() const override { return "hill-climb"; }

    std::size_t
    propose(const DesignSpace &space,
            const std::vector<std::pair<std::size_t, Evaluation>> &history,
            util::Rng &rng) override
    {
        if (history.empty() || rng.bernoulli(0.1)) {
            // Random restart.
            return rng.uniformInt(space.size());
        }
        // Climb from the best feasible point so far.
        return indexOf(
            space,
            neighbor(space, coordsOf(space, bestOfHistory(history)), rng));
    }
};

class Evolutionary final : public SearchStrategy
{
  public:
    explicit Evolutionary(std::size_t population)
        : population_(std::max<std::size_t>(population, 2))
    {
    }

    std::string name() const override { return "evolutionary"; }

    std::size_t
    propose(const DesignSpace &space,
            const std::vector<std::pair<std::size_t, Evaluation>> &history,
            util::Rng &rng) override
    {
        if (history.size() < population_)
            return rng.uniformInt(space.size());

        // Parents: tournament over the full history.
        auto tournament = [&]() {
            std::size_t best = history[rng.uniformInt(history.size())].first;
            double best_cycles =
                std::numeric_limits<double>::infinity();
            for (int round = 0; round < 3; ++round) {
                const auto &[index, eval] =
                    history[rng.uniformInt(history.size())];
                if (eval.cycles < best_cycles) {
                    best_cycles = eval.cycles;
                    best = index;
                }
            }
            return best;
        };
        const Coords a = coordsOf(space, tournament());
        const Coords b = coordsOf(space, tournament());
        // Uniform crossover + mutation.
        Coords child;
        child.ci = rng.bernoulli(0.5) ? a.ci : b.ci;
        child.wi = rng.bernoulli(0.5) ? a.wi : b.wi;
        child.ri = rng.bernoulli(0.5) ? a.ri : b.ri;
        child.ti = rng.bernoulli(0.5) ? a.ti : b.ti;
        if (rng.bernoulli(0.4))
            child = neighbor(space, child, rng);
        return indexOf(space, child);
    }

  private:
    std::size_t population_;
};

/** The per-proposal profile stream: a pure function of the space
 *  index, so a configuration profiles with the same seed whenever the
 *  search proposes it. */
std::uint64_t
profileSeedFor(std::uint64_t profile_seed, std::size_t index)
{
    return util::Rng(profile_seed).split(index).seed();
}

} // namespace

std::unique_ptr<SearchStrategy>
makeRandomSearch()
{
    return std::make_unique<RandomSearch>();
}

std::unique_ptr<SearchStrategy>
makeHillClimb()
{
    return std::make_unique<HillClimb>();
}

std::unique_ptr<SearchStrategy>
makeEvolutionary(std::size_t population)
{
    return std::make_unique<Evolutionary>(population);
}

TuningResult
Tuner::tune(const Objective &objective, const DesignSpace &space,
            SearchStrategy &strategy) const
{
    REPRO_ASSERT(space.size() > 0, "empty design space");
    REPRO_ASSERT(options_.budget >= 1, "tuning budget must be positive");
    util::Rng rng(options_.searchSeed);

    TuningResult result;
    std::vector<std::pair<std::size_t, Evaluation>> history;
    std::set<std::size_t> profiled;

    // Proposals are capped well above budget so a strategy that keeps
    // re-proposing profiled points still terminates.
    const std::size_t max_proposals = options_.budget * 20 + 100;
    for (std::size_t p = 0;
         p < max_proposals && result.evaluated < options_.budget; ++p) {
        const std::size_t index = strategy.propose(space, history, rng);
        REPRO_ASSERT(index < space.size(),
                     "strategy proposed an out-of-space index");
        if (!profiled.insert(index).second) {
            tunerMetrics().cacheHits.inc();
            continue;
        }

        Evaluation eval;
        eval.config = space.at(index);
        eval.cycles = objective.evaluate(
            eval.config, profileSeedFor(options_.profileSeed, index));
        eval.feasible = eval.cycles < std::numeric_limits<double>::infinity();
        history.emplace_back(index, eval);
        result.history.push_back(eval);
        ++result.evaluated;

        if (!result.best.feasible || eval.cycles < result.best.cycles)
            result.best = eval;
    }
    return result;
}

} // namespace repro::autotuner

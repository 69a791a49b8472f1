/**
 * @file
 * Design-space autotuner (the paper's OpenTuner role, §II-C).
 *
 * The STATS system iterates autotuner -> back-end compiler -> profiler
 * until the best configuration is found; the paper reports 89-342
 * configurations explored per benchmark within 2-72 hour windows
 * (§IV-B).  Here the profiler is the platform simulator (seconds, not
 * hours), the design space comes from core::DesignSpace, and three
 * search strategies are provided: pure random sampling, hill climbing
 * with random restarts on the parameter grid, and a small evolutionary
 * search.
 */

#ifndef REPRO_AUTOTUNER_TUNER_H
#define REPRO_AUTOTUNER_TUNER_H

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "platform/machine.h"
#include "workloads/workload.h"

namespace repro::autotuner {

/**
 * The profiler of the tuning loop: maps a configuration to the
 * simulated execution time of the STATS binary it would produce.
 */
class Objective
{
  public:
    Objective(const workloads::Workload &workload,
              const core::Engine &engine, platform::MachineModel machine);

    /**
     * Simulated makespan (cycles) of @p config; +infinity when the
     * configuration is infeasible for the dependence.
     */
    double evaluate(const core::StatsConfig &config,
                    std::uint64_t seed) const;

    const platform::MachineModel &machine() const { return machine_; }

  private:
    const workloads::Workload &workload_;
    const core::Engine &engine_;
    platform::MachineModel machine_;
};

/** One profiled configuration. */
struct Evaluation
{
    core::StatsConfig config;
    double cycles = std::numeric_limits<double>::infinity();
    bool feasible = false;
};

/** Outcome of a tuning session. */
struct TuningResult
{
    Evaluation best;                  //!< Best configuration found.
    std::size_t evaluated = 0;        //!< Distinct configs profiled.
    std::vector<Evaluation> history;  //!< In evaluation order.
};

/**
 * A search strategy proposing design-space indices to profile.
 */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    /** Strategy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Index of the next configuration to profile.
     *
     * @param space The design space.
     * @param history Evaluations so far, paired with their space index.
     * @param rng Search randomness.
     */
    virtual std::size_t
    propose(const core::DesignSpace &space,
            const std::vector<std::pair<std::size_t, Evaluation>> &history,
            util::Rng &rng) = 0;
};

/** Uniform random sampling of the space. */
std::unique_ptr<SearchStrategy> makeRandomSearch();

/** Hill climbing on the parameter grid with random restarts. */
std::unique_ptr<SearchStrategy> makeHillClimb();

/** (mu + lambda)-style evolutionary search on grid coordinates. */
std::unique_ptr<SearchStrategy> makeEvolutionary(std::size_t population = 8);

/**
 * The tuning loop.
 */
class Tuner
{
  public:
    struct Options
    {
        std::size_t budget = 200;  //!< Configurations to profile
                                   //!< (paper range: 89-342).
        std::uint64_t searchSeed = 1;   //!< Strategy randomness.
        std::uint64_t profileSeed = 42; //!< Workload run seed; each
                                        //!< proposal profiles with the
                                        //!< per-index stream
                                        //!< Rng(profileSeed).split(index),
                                        //!< so an evaluation does not
                                        //!< depend on *when* it runs.
    };

    explicit Tuner(Options options) : options_(options) {}
    Tuner() : Tuner(Options{}) {}

    /**
     * Profiles up to Options::budget configurations of @p space with
     * @p strategy and returns the best.  A configuration proposed
     * again is not profiled again and does not consume budget.
     *
     * @pre Options::budget >= 1.
     */
    TuningResult tune(const Objective &objective,
                      const core::DesignSpace &space,
                      SearchStrategy &strategy) const;

  private:
    Options options_;
};

} // namespace repro::autotuner

#endif // REPRO_AUTOTUNER_TUNER_H

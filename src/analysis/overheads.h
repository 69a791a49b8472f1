/**
 * @file
 * Overhead attribution: the paper's §V-B methodology.
 *
 * The paper instruments every critical point of the STATS execution
 * model, computes the post-mortem critical path, and then, for each
 * overhead category, "emulates the parallel execution removing only the
 * part of the overhead targeted that is in the critical path" (after
 * [26]) to obtain the speedup the benchmark would reach without that
 * overhead.  Here the emulation is exact: the task graph is re-simulated
 * with the targeted category's cost elided.
 *
 * Categories follow Section III: imbalance, extra computation (with the
 * §III-B subcategories), thread synchronization, sequential code, and
 * the two model-level categories — mispeculation (speedup lost because
 * aborts force the autotuner toward fewer chunks) and unreachability
 * (not enough parallel chunks to fill the cores even when everything
 * commits).
 *
 * Attribution uses a cumulative ladder so the per-category losses and
 * the achieved speedup partition the ideal speedup exactly:
 *
 *   S0 actual -> S1 (-sequential code) -> S2 (-sync) -> S3 (-extra
 *   computation) -> S4 (-imbalance) -> S5 (mispeculation-free
 *   counterfactual: enough chunks, all commits, same removals) ->
 *   ideal = cores.
 *
 * lost(category_i) = (S_i - S_{i-1}) / ideal;
 * lost(unreachability) = (ideal - S5) / ideal.
 */

#ifndef REPRO_ANALYSIS_OVERHEADS_H
#define REPRO_ANALYSIS_OVERHEADS_H

#include <array>
#include <cstdint>

#include "core/engine.h"
#include "platform/des.h"
#include "platform/machine.h"
#include "workloads/workload.h"

namespace repro::analysis {

/** Speedup-loss categories of Section III. */
enum class OverheadCategory : std::uint8_t
{
    Synchronization,
    ExtraComputation,
    Imbalance,
    SequentialCode,
    Mispeculation,
    Unreachability,
    NumCategories
};

/** Number of overhead categories. */
constexpr std::size_t kNumOverheadCategories =
    static_cast<std::size_t>(OverheadCategory::NumCategories);

/** Human-readable category name. */
const char *overheadCategoryName(OverheadCategory category);

/** Result of the ladder analysis for one (workload, config, machine). */
struct OverheadBreakdown
{
    double idealSpeedup = 0.0;  //!< Equals the number of cores.
    double actualSpeedup = 0.0; //!< Measured (simulated) speedup.

    /** Fraction of the ideal speedup lost per category (sums, together
     *  with actualSpeedup/idealSpeedup, to 1). */
    std::array<double, kNumOverheadCategories> lostFraction{};

    /** Absolute speedup lost w.r.t. ideal (the number printed at the
     *  right of each Fig. 10 bar). */
    double
    totalLostSpeedup() const
    {
        return idealSpeedup - actualSpeedup;
    }

    unsigned commits = 0; //!< Speculation commits of the base run.
    unsigned aborts = 0;  //!< Speculation aborts of the base run.
};

/** Per-subcategory view of the extra computation (Figs. 11/13/15). */
struct ExtraComputationBreakdown
{
    /** Busy-time fraction of each extra-computation subcategory within
     *  the total extra-computation time (Fig. 11). */
    double specStateTime = 0.0;   //!< Alternative producers.
    double origStatesTime = 0.0;  //!< Multiple original states.
    double comparisonsTime = 0.0; //!< State comparisons.
    double setupTime = 0.0;       //!< Setup/teardown.
    double copyTime = 0.0;        //!< State copying.

    /** Speedup lost to each subcategory alone (Fig. 13): simulated
     *  speedup with only that subcategory removed minus the actual. */
    double specStateLoss = 0.0;
    double origStatesLoss = 0.0;
    double comparisonsLoss = 0.0;
    double setupLoss = 0.0;
    double copyLoss = 0.0;
};

/**
 * The §V-B ladder applied to a *measured* task graph (a native
 * NativeRuntime run, rebuilt from its spans by core::measuredTrace:
 * one task per protocol step).
 *
 * Work units are microseconds, so the graph is re-simulated on
 * MachineModel::measured(cores) — 1 cycle = 1 us, no modeled
 * synchronization/copy surcharges (measured durations already include
 * every real cost).  The rungs mirror OverheadAnalyzer::analyze:
 * actual -> -SeqCode -> -Sync -> -extra computation -> balanced ->
 * -MispecReExec -> ideal = cores.  Mispeculation's counterfactual here
 * elides the re-execution tasks of the same graph (no autotuner
 * re-run exists for a measured trace), and "actual" is the greedy
 * re-simulation of the measured durations, so the losses partition
 * [actual, ideal] exactly just like the simulated ladder.
 *
 * @param graph Measured task graph (MeasuredTrace::graph).
 * @param cores Parallelism the run was allowed (ideal speedup).
 * @param sequential_seconds Measured wall-clock time of the native
 *        sequential program on the same (model, seed).
 * @param commits,aborts Speculation outcome of the measured run.
 */
OverheadBreakdown
analyzeMeasuredGraph(const trace::TaskGraph &graph, unsigned cores,
                     double sequential_seconds, unsigned commits = 0,
                     unsigned aborts = 0);

/**
 * Runs the §V-B what-if ladder for one workload.
 */
class OverheadAnalyzer
{
  public:
    /**
     * @param engine Engine executing the workloads.
     * @param machine Platform the task graphs are simulated on.
     */
    OverheadAnalyzer(const core::Engine &engine,
                     platform::MachineModel machine);

    /** Full ladder analysis (Figs. 10 and 12). */
    OverheadBreakdown analyze(const workloads::Workload &workload,
                              const core::StatsConfig &config,
                              std::uint64_t seed) const;

    /** Extra-computation subcategory analysis (Figs. 11 and 13). */
    ExtraComputationBreakdown
    analyzeExtraComputation(const workloads::Workload &workload,
                            const core::StatsConfig &config,
                            std::uint64_t seed) const;

    /** Simulated sequential time of the workload (denominator). */
    double sequentialTime(const workloads::Workload &workload,
                          std::uint64_t seed) const;

    /** The machine in use. */
    const platform::MachineModel &machine() const { return machine_; }

  private:
    /** The mispeculation-free counterfactual configuration: enough
     *  chunks to fill the machine, window shrunk to stay valid. */
    core::StatsConfig
    mispecFreeConfig(const core::StatsConfig &config,
                     std::size_t num_inputs) const;

    const core::Engine &engine_;
    platform::MachineModel machine_;
};

} // namespace repro::analysis

#endif // REPRO_ANALYSIS_OVERHEADS_H

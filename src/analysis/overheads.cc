#include "analysis/overheads.h"

#include <algorithm>
#include <map>

#include "util/log.h"

namespace repro::analysis {

using core::RunResult;
using core::StatsConfig;
using platform::SimOptions;
using platform::Simulator;
using trace::TaskGraph;
using trace::TaskKind;

namespace {

/** The §III-B extra-computation kinds. */
constexpr TaskKind kExtraKinds[] = {
    TaskKind::AltProducer, TaskKind::OriginalStateGen,
    TaskKind::StateCompare, TaskKind::StateCopy, TaskKind::Setup};

SimOptions
withoutKinds(SimOptions base, std::initializer_list<TaskKind> kinds)
{
    for (TaskKind k : kinds)
        base.kindCostScale[static_cast<std::size_t>(k)] = 0.0;
    return base;
}

/** Copy of @p graph with every chunk's body work set to the mean
 *  across chunks (the perfect-balance counterfactual). */
TaskGraph
balancedCopy(const TaskGraph &graph)
{
    // Mean body work per chunk.
    std::map<std::int32_t, double> chunk_work;
    for (const auto &t : graph.tasks()) {
        if (t.kind == TaskKind::ChunkBody && t.chunk != trace::kNoChunk)
            chunk_work[t.chunk] += t.work;
    }
    if (chunk_work.empty())
        return graph;
    double total = 0.0;
    for (const auto &[chunk, work] : chunk_work)
        total += work;
    const double mean = total / static_cast<double>(chunk_work.size());

    TaskGraph balanced = graph;
    for (const auto &t : graph.tasks()) {
        if (t.kind != TaskKind::ChunkBody || t.chunk == trace::kNoChunk)
            continue;
        const double cw = chunk_work[t.chunk];
        if (cw <= 0.0)
            continue;
        balanced.mutableTask(t.id).work = t.work * mean / cw;
    }
    return balanced;
}

/**
 * The §V-B ladder (see overheads.h) on @p machine, against a
 * sequential time of @p t_seq machine cycles.  The rungs up to
 * imbalance re-simulate @p graph; the mispeculation rung re-simulates
 * the balanced @p free_graph with re-execution removed as well.
 * Sequential code is removed first: it lives outside the STATS region,
 * and removing it first keeps its Amdahl cap from masking the
 * execution-model overheads.  Each rung is clamped to the previous one
 * (a removal can only help), so the per-category losses partition
 * [actual, ideal] exactly.  Commits and aborts are the caller's.
 */
OverheadBreakdown
ladder(const platform::MachineModel &machine, double t_seq,
       const TaskGraph &graph, const TaskGraph &free_graph)
{
    OverheadBreakdown out;
    out.idealSpeedup = static_cast<double>(machine.numCores);

    auto speedup_of = [&](const TaskGraph &g, const SimOptions &opt) {
        const double t = Simulator(machine, opt).run(g).makespan;
        REPRO_ASSERT(t > 0.0, "zero makespan in what-if simulation");
        return t_seq / t;
    };

    const SimOptions base;
    const double s0 = speedup_of(graph, base);
    out.actualSpeedup = s0;

    const SimOptions no_seqcode = withoutKinds(base, {TaskKind::SeqCode});
    const double s1 = std::max(s0, speedup_of(graph, no_seqcode));

    const SimOptions no_sync = withoutKinds(no_seqcode, {TaskKind::Sync});
    const double s2 = std::max(s1, speedup_of(graph, no_sync));

    SimOptions no_extra = no_sync;
    for (TaskKind k : kExtraKinds)
        no_extra.kindCostScale[static_cast<std::size_t>(k)] = 0.0;
    const double s3 = std::max(s2, speedup_of(graph, no_extra));

    const double s4 =
        std::max(s3, speedup_of(balancedCopy(graph), no_extra));

    const SimOptions no_mispec =
        withoutKinds(no_extra, {TaskKind::MispecReExec});
    const double s5 =
        std::min(out.idealSpeedup,
                 std::max(s4, speedup_of(balancedCopy(free_graph),
                                         no_mispec)));

    const double ideal = out.idealSpeedup;
    auto lost = [&](double hi, double lo) {
        return std::max(0.0, (hi - lo) / ideal);
    };
    auto &frac = out.lostFraction;
    frac[static_cast<std::size_t>(OverheadCategory::SequentialCode)] =
        lost(s1, s0);
    frac[static_cast<std::size_t>(OverheadCategory::Synchronization)] =
        lost(s2, s1);
    frac[static_cast<std::size_t>(OverheadCategory::ExtraComputation)] =
        lost(s3, s2);
    frac[static_cast<std::size_t>(OverheadCategory::Imbalance)] =
        lost(s4, s3);
    frac[static_cast<std::size_t>(OverheadCategory::Mispeculation)] =
        lost(s5, s4);
    frac[static_cast<std::size_t>(OverheadCategory::Unreachability)] =
        lost(ideal, s5);
    return out;
}

} // namespace

const char *
overheadCategoryName(OverheadCategory category)
{
    switch (category) {
      case OverheadCategory::Synchronization: return "synchronization";
      case OverheadCategory::ExtraComputation: return "extra-computation";
      case OverheadCategory::Imbalance:       return "imbalance";
      case OverheadCategory::SequentialCode:  return "sequential-code";
      case OverheadCategory::Mispeculation:   return "mispeculation";
      case OverheadCategory::Unreachability:  return "unreachability";
      case OverheadCategory::NumCategories:   break;
    }
    return "?";
}

OverheadAnalyzer::OverheadAnalyzer(const core::Engine &engine,
                                   platform::MachineModel machine)
    : engine_(engine), machine_(std::move(machine))
{
}

double
OverheadAnalyzer::sequentialTime(const workloads::Workload &workload,
                                 std::uint64_t seed) const
{
    const RunResult seq = engine_.runSequential(workload.model(),
                                                workload.region(), seed);
    return Simulator(machine_).run(seq.graph).makespan;
}

OverheadBreakdown
analyzeMeasuredGraph(const TaskGraph &graph, unsigned cores,
                     double sequential_seconds, unsigned commits,
                     unsigned aborts)
{
    REPRO_ASSERT(cores > 0, "measured ladder needs at least one core");
    REPRO_ASSERT(sequential_seconds > 0.0,
                 "measured ladder needs a positive sequential time");
    // Measured work units are microseconds; so are this machine's
    // "cycles" (ghz = 1e-3 => seconds() divides by 1e6).  No autotuner
    // re-run exists for a measured trace, so the mispeculation rung
    // elides the re-execution tasks of the same graph.
    OverheadBreakdown out =
        ladder(platform::MachineModel::measured(cores),
               sequential_seconds * 1e6, graph, graph);
    out.commits = commits;
    out.aborts = aborts;
    return out;
}

StatsConfig
OverheadAnalyzer::mispecFreeConfig(const StatsConfig &config,
                                   std::size_t num_inputs) const
{
    // "The more parallel chunks, the more speculations, the more
    // potential mispeculations" (§III-E): without aborts the autotuner
    // would raise the chunk count until the cores are filled.
    StatsConfig free = config;
    free.numChunks = std::max(config.numChunks, machine_.numCores);
    free.numChunks = static_cast<unsigned>(std::min<std::size_t>(
        free.numChunks, num_inputs / 2));
    const std::size_t chunk_len =
        std::max<std::size_t>(num_inputs / free.numChunks, 2);
    free.altWindowK = static_cast<unsigned>(std::max<std::size_t>(
        std::min<std::size_t>(config.altWindowK, chunk_len - 1), 1));
    return free;
}

OverheadBreakdown
OverheadAnalyzer::analyze(const workloads::Workload &workload,
                          const StatsConfig &config,
                          std::uint64_t seed) const
{
    const auto &model = workload.model();
    const auto region = workload.region();
    const auto tlp = workload.tlpModel();

    const double t_seq = sequentialTime(workload, seed);
    const RunResult run =
        engine_.runStats(model, region, tlp, config, seed);
    // Mispeculation-free counterfactual: enough chunks, all commits.
    const RunResult free_run = engine_.runStats(
        model, region, tlp, mispecFreeConfig(config, model.numInputs()),
        seed, /*force_all_commit=*/true);

    OverheadBreakdown out =
        ladder(machine_, t_seq, run.graph, free_run.graph);
    out.commits = run.commits;
    out.aborts = run.aborts;
    return out;
}

ExtraComputationBreakdown
OverheadAnalyzer::analyzeExtraComputation(
    const workloads::Workload &workload, const StatsConfig &config,
    std::uint64_t seed) const
{
    const auto &model = workload.model();
    const double t_seq = sequentialTime(workload, seed);
    const RunResult run = engine_.runStats(model, workload.region(),
                                           workload.tlpModel(), config,
                                           seed);

    ExtraComputationBreakdown out;

    // Fig. 11: busy-time shares within the extra computation.
    const auto sched = Simulator(machine_).run(run.graph);
    const double spec =
        sched.busyByKind[static_cast<std::size_t>(TaskKind::AltProducer)];
    const double orig = sched.busyByKind[static_cast<std::size_t>(
        TaskKind::OriginalStateGen)];
    const double cmp = sched.busyByKind[static_cast<std::size_t>(
        TaskKind::StateCompare)];
    const double setup =
        sched.busyByKind[static_cast<std::size_t>(TaskKind::Setup)];
    const double copy =
        sched.busyByKind[static_cast<std::size_t>(TaskKind::StateCopy)];
    const double total = spec + orig + cmp + setup + copy;
    if (total > 0.0) {
        out.specStateTime = spec / total;
        out.origStatesTime = orig / total;
        out.comparisonsTime = cmp / total;
        out.setupTime = setup / total;
        out.copyTime = copy / total;
    }

    // Fig. 13: speedup lost to each subcategory alone.
    const double s_actual = t_seq / sched.makespan;
    auto loss_without = [&](TaskKind kind) {
        const Simulator sim(machine_, SimOptions::without({kind}));
        const double s = t_seq / sim.run(run.graph).makespan;
        return std::max(0.0, s - s_actual);
    };
    out.specStateLoss = loss_without(TaskKind::AltProducer);
    out.origStatesLoss = loss_without(TaskKind::OriginalStateGen);
    out.comparisonsLoss = loss_without(TaskKind::StateCompare);
    out.setupLoss = loss_without(TaskKind::Setup);
    out.copyLoss = loss_without(TaskKind::StateCopy);
    return out;
}

} // namespace repro::analysis

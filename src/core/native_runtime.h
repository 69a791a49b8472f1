/**
 * @file
 * Native (std::thread) STATS runtime: the batch schedule of the
 * protocol core.
 *
 * The engine (engine.h) executes the STATS model logically and hands
 * timing to the platform simulator — that is what every figure uses,
 * because the paper's machine has 28 cores (DESIGN.md §2).
 * NativeRuntime executes the same protocol with real threads.  Every protocol step —
 * alternative producer, speculative body split at its snapshot,
 * replica regeneration, the ordered commit check, commit, abort and
 * re-execution — is core::StatsProtocol's (core/stats_protocol.h);
 * this file only schedules those steps for a whole input vector,
 * whose boundaries n*c/C are known up front.
 *
 * The schedule is a dependency graph on util::TaskGraphExecutor over
 * the process-wide util::ThreadPool (shared with the serving runtime;
 * max_threads caps how many graph nodes a run has in flight).  Each
 * chunk is two nodes split at its snapshot (head, tail); boundary c's
 * R-1 replicas launch eagerly from chunk c's speculative snapshot as
 * soon as the head finished, while later chunk bodies still run; and
 * boundary c resolves in a chain node that fires when chunks c and c+1
 * plus those replicas are ready — never after *all* chunks.  When
 * chunk c was re-executed instead of committed, its eager replicas
 * grew from a snapshot that never became real state: the resolve node
 * regrows them, one after another, from the re-executed snapshot with
 * the same RNG streams.  Outputs, commits, and aborts are therefore
 * bit-identical to Engine::runStats for any (model, config, seed) —
 * the cross-validation tests in tests/core enforce it.
 *
 * Every step of run() emits its obs span (session 0), and those spans
 * are the run's measured record: core::measuredTrace
 * (core/stats_protocol.h) rebuilds the §V-B task graph of the
 * execution from them — each step a correctly-kinded trace::Task whose
 * work is its wall-clock duration in microseconds, with dependency
 * edges mirroring the protocol.  Tracing never changes results:
 * outputs, commits, and aborts are bit-identical with spans on and
 * off (enforced by tests/core).
 */

#ifndef REPRO_CORE_NATIVE_RUNTIME_H
#define REPRO_CORE_NATIVE_RUNTIME_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/state_model.h"

namespace repro::core {

/**
 * Real-thread executor of the STATS execution model.
 */
class NativeRuntime
{
  public:
    /** Outcome of one native run. */
    struct Result
    {
        std::vector<double> outputs; //!< Committed output per input.
        unsigned commits = 0;
        unsigned aborts = 0;
        double wallSeconds = 0.0;    //!< Wall-clock time of the run.
    };

    /**
     * @param max_threads Cap on concurrently active workers; 0 is
     *        resolved by util::ThreadPool::defaultThreadCount (the
     *        hardware concurrency, or 2 when it cannot be queried).
     */
    explicit NativeRuntime(unsigned max_threads = 0);

    /**
     * Runs @p model under @p config with real threads.
     *
     * @pre config.useStatsTlp (the native path runs the STATS model;
     *      inner original-TLP fan-out is not re-executed natively —
     *      it parallelizes within update() in the real system).
     */
    Result run(const IStateModel &model, const StatsConfig &config,
               std::uint64_t seed) const;

    /** The sequential program, for output comparison and speedup. */
    Result runSequential(const IStateModel &model,
                         std::uint64_t seed) const;

  private:
    unsigned maxThreads;
};

} // namespace repro::core

#endif // REPRO_CORE_NATIVE_RUNTIME_H

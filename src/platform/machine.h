/**
 * @file
 * Machine model of the evaluation platform.
 *
 * The paper evaluates on a dual-socket Dell PowerEdge R730 with two
 * 14-core Intel Xeon E5-2695 v3 (Haswell) processors at 2.3 GHz
 * (Hyper-Threading and Turbo Boost disabled).  This host has a single
 * core, so the reproduction executes STATS task graphs on a simulated
 * machine instead (substitution documented in DESIGN.md §2).  The model
 * captures what the paper's characterization is sensitive to: core count,
 * the two-socket topology (cross-socket state copies are slower), the
 * kernel-level cost of synchronization operations ("several hundreds of
 * clock cycles", §III-C), state copy/compare bandwidth, and context
 * switching when more software threads than cores exist (Table I).
 */

#ifndef REPRO_PLATFORM_MACHINE_H
#define REPRO_PLATFORM_MACHINE_H

#include <string>

namespace repro::platform {

/**
 * Cost parameters of a simulated shared-memory multicore.
 */
struct MachineModel
{
    std::string name = "haswell-2s";
    unsigned numCores = 28;        //!< Total hardware cores.
    unsigned coresPerSocket = 14;  //!< Cores per socket (2 sockets @ 28).
    double ghz = 2.3;              //!< Clock frequency (for second units).

    /** Cycles needed per abstract work unit (1 unit ~ 1 instruction). */
    double cyclesPerWork = 1.0;

    /** Kernel cost of one synchronization operation (futex wake/signal);
     *  the paper: "several hundreds of clock cycles". */
    double syncOpCycles = 900.0;

    /** Intra-socket state copy bandwidth, bytes per cycle (AVX
     *  memcpy on Haswell sustains roughly this). */
    double copyBytesPerCycle = 16.0;

    /** Multiplier on copy cost when source and destination cores sit in
     *  different sockets (QPI hop). */
    double crossSocketCopyPenalty = 2.5;

    /** State comparison bandwidth, bytes per cycle. */
    double compareBytesPerCycle = 16.0;

    /** Cost charged when a core switches between software threads. */
    double contextSwitchCycles = 1500.0;

    /** Socket hosting @p core. */
    unsigned
    socketOf(unsigned core) const
    {
        return coresPerSocket ? core / coresPerSocket : 0;
    }

    /** Seconds represented by @p cycles on this machine. */
    double
    seconds(double cycles) const
    {
        return cycles / (ghz * 1e9);
    }

    /**
     * The paper's platform restricted to @p cores cores.
     *
     * For cores <= 14 the machine is single-socket (the paper's 14-core
     * runs use one processor); for more it spreads across two sockets.
     */
    static MachineModel haswell(unsigned cores);

    /**
     * The cost model for *measured* task graphs (work units are the
     * microseconds a protocol step's span lasted, see
     * core::measuredTrace): 1 cycle = 1 us, no modeled
     * synchronization, copy, or context-switch surcharges — measured
     * durations already contain every real cost, clones included.
     * Used by the what-if ladder over native runs
     * (analysis::analyzeMeasuredGraph).
     */
    static MachineModel measured(unsigned cores);
};

} // namespace repro::platform

#endif // REPRO_PLATFORM_MACHINE_H

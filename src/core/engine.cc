#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/log.h"

namespace repro::core {

using trace::TaskGraph;
using trace::TaskId;
using trace::TaskKind;
using trace::ThreadId;

namespace {

/** Main/runtime thread id. */
constexpr ThreadId kMainThread = 0;

/**
 * Shared emission helpers: every task added to the graph mirrors an
 * operation of the modeled runtime, and op-counter ticks keep the
 * dynamic-instruction view (Figs. 14/15) consistent with it.
 */
class Emitter
{
  public:
    Emitter(const IStateModel &model, const Engine::Params &params,
            RunResult &result)
        : model_(model), params_(params), r_(result)
    {
    }

    /**
     * Runs updates [from, to) on @p state, charging @p kind.
     * @param outs When non-null, output O_i is stored at (*outs)[i].
     * @return Work (ops) performed.
     */
    double
    runSpan(State &state, std::size_t from, std::size_t to, TaskKind kind,
            util::Rng &rng, std::vector<double> *outs)
    {
        const std::uint64_t copied_before = stateCopiedBytes(state);
        ExecContext ctx(rng, &r_.ops, kind);
        for (std::size_t i = from; i < to; ++i) {
            const double out = model_.update(state, i, ctx);
            if (outs)
                (*outs)[i] = out;
        }
        rng = ctx.rng(); // The caller's stream advances with the span.
        // Copy-on-write defers clone cost into the first writes of the
        // consuming span; charge those materialization copies back to
        // the state-copy category so §V-B stays honest (zero for
        // states without a block payload, whose clones copy eagerly).
        const std::uint64_t copied_delta =
            stateCopiedBytes(state) - copied_before;
        if (copied_delta > 0)
            r_.ops.tick(TaskKind::StateCopy, copied_delta / 8);
        return ctx.localWork();
    }

    /**
     * Emits a synchronization operation on @p thread.
     * @param extra_work Additional ops the runtime executes at this
     *        synchronization point (e.g. fork/join bookkeeping of the
     *        original TLP).
     */
    TaskId
    emitSync(ThreadId thread, std::int32_t chunk, double extra_work = 0.0)
    {
        r_.ops.tick(TaskKind::Sync, static_cast<std::uint64_t>(
                                        params_.syncOpsProxy + extra_work));
        return r_.graph.addTask(TaskKind::Sync, thread, extra_work, chunk);
    }

    /**
     * Emits a state copy on @p thread whose payload was produced by task
     * @p payload_source (also added as a dependency).
     *
     * @param cloned The clone the task models, when available: its
     *        CloneStats price the task by bytes actually moved (a
     *        block-sharing clone costs refcount bumps, not a payload
     *        copy).  Null falls back to the legacy full-size charge.
     */
    TaskId
    emitCopy(ThreadId thread, std::int32_t chunk, TaskId payload_source,
             const State *cloned = nullptr)
    {
        const CloneStats stats =
            cloned ? stateCloneStats(*cloned, model_.stateSizeBytes())
                   : fullCloneStats();
        r_.ops.tick(TaskKind::StateCopy, model_.copyWork(stats));
        // Memory traffic: moved payload bytes plus one header line per
        // shared block (the refcount bump).
        const std::size_t bytes = static_cast<std::size_t>(
            stats.bytesCopied +
            util::BlockArena::kHeaderBytes * stats.blocksShared);
        const TaskId id = r_.graph.addTask(TaskKind::StateCopy, thread,
                                           0.0, chunk, bytes);
        r_.graph.addDep(payload_source, id);
        r_.graph.mutableTask(id).payloadSource = payload_source;
        return id;
    }

    /** CloneStats of a legacy eager deep copy of the full state. */
    CloneStats
    fullCloneStats() const
    {
        CloneStats stats;
        stats.blocksCopied =
            (model_.stateSizeBytes() +
             util::BlockArena::kDefaultBlockBytes - 1) /
            util::BlockArena::kDefaultBlockBytes;
        stats.bytesCopied = model_.stateSizeBytes();
        return stats;
    }

    /** Emits a speculative-vs-original state comparison on @p thread,
     *  priced by the bytes the comparison actually touched. */
    TaskId
    emitCompare(ThreadId thread, std::int32_t chunk, std::uint64_t work,
                std::uint64_t bytes)
    {
        r_.ops.tick(TaskKind::StateCompare, work);
        return r_.graph.addTask(TaskKind::StateCompare, thread, 0.0,
                                chunk, static_cast<std::size_t>(bytes));
    }

    /**
     * Emits @p work as a chain of slices on @p thread (preemption
     * granularity; see Params::taskSlices).
     * @return The last slice's id.
     */
    TaskId
    emitSliced(TaskKind kind, ThreadId thread, std::int32_t chunk,
               double work, TaskId entry_dep,
               std::vector<TaskId> *out_tasks = nullptr)
    {
        const std::size_t slices =
            std::max<std::size_t>(params_.taskSlices, 1);
        TaskId last = 0;
        for (std::size_t s = 0; s < slices; ++s) {
            last = r_.graph.addTask(kind, thread,
                                    work / static_cast<double>(slices),
                                    chunk);
            if (s == 0)
                r_.graph.addDep(entry_dep, last);
            if (out_tasks)
                out_tasks->push_back(last);
        }
        return last;
    }

    /**
     * Emits the task structure of a body span of measured work @p work,
     * optionally fanned out over the original TLP (Par. STATS).
     *
     * @param owner Thread owning the span (the chunk thread).
     * @param helpers Helper thread ids for the original TLP (may be
     *        empty: no fan-out, a single task carries the work).
     * @param rounds Fork/join rounds the span is split into.
     * @param parallel_fraction Amdahl fraction covered by the inner TLP.
     * @param kind ChunkBody or MispecReExec.
     * @param entry_dep Task every part of the span must follow.
     * @param body_tasks Collects ids of emitted body-work tasks (for
     *        post-hoc retagging of aborted chunks).
     * @return The id of the last task of the span on @p owner.
     */
    TaskId
    emitBodySpan(ThreadId owner, const std::vector<ThreadId> &helpers,
                 std::int32_t chunk, double work, std::size_t rounds,
                 double parallel_fraction, double sync_work_per_round,
                 TaskKind kind, TaskId entry_dep,
                 std::vector<TaskId> *body_tasks)
    {
        if (helpers.empty())
            return emitSliced(kind, owner, chunk, work, entry_dep,
                              body_tasks);

        rounds = std::max<std::size_t>(rounds, 1);
        const unsigned width = static_cast<unsigned>(helpers.size()) + 1;
        const double per_round = work / static_cast<double>(rounds);
        const double par_part =
            per_round * parallel_fraction / static_cast<double>(width);
        const double ser_part = per_round * (1.0 - parallel_fraction);

        TaskId prev = entry_dep;
        for (std::size_t round = 0; round < rounds; ++round) {
            const TaskId fork =
                emitSync(owner, chunk, sync_work_per_round * 0.5);
            r_.graph.addDep(prev, fork);

            std::vector<TaskId> parts;
            const TaskId own =
                r_.graph.addTask(kind, owner, par_part, chunk);
            parts.push_back(own);
            if (body_tasks)
                body_tasks->push_back(own);
            for (ThreadId h : helpers) {
                const TaskId part =
                    r_.graph.addTask(kind, h, par_part, chunk);
                r_.graph.addDep(fork, part);
                parts.push_back(part);
                if (body_tasks)
                    body_tasks->push_back(part);
            }

            const TaskId join =
                emitSync(owner, chunk, sync_work_per_round * 0.5);
            for (TaskId part : parts)
                r_.graph.addDep(part, join);

            const TaskId serial =
                r_.graph.addTask(kind, owner, ser_part, chunk);
            if (body_tasks)
                body_tasks->push_back(serial);
            prev = serial;
        }
        return prev;
    }

  private:
    const IStateModel &model_;
    const Engine::Params &params_;
    RunResult &r_;
};

/** Emits a SeqCode task of @p work ops on the main thread. */
TaskId
emitSeqCode(RunResult &r, double work)
{
    r.ops.tick(TaskKind::SeqCode, static_cast<std::uint64_t>(work));
    return r.graph.addTask(TaskKind::SeqCode, kMainThread, work);
}

} // namespace

RunResult
Engine::runSequential(const IStateModel &model, const RegionProfile &region,
                      std::uint64_t seed) const
{
    RunResult r;
    r.stateSizeBytes = model.stateSizeBytes();
    r.outputs.assign(model.numInputs(), 0.0);

    Emitter emit(model, params_, r);
    emitSeqCode(r, region.seqBeforeWork);

    StateHandle state = model.initialState();
    r.statesCreated = 1;
    util::Rng rng = util::Rng(seed).split(1);
    const double work = emit.runSpan(*state, 0, model.numInputs(),
                                     TaskKind::ChunkBody, rng, &r.outputs);
    r.graph.addTask(TaskKind::ChunkBody, kMainThread, work);
    r.bodyWork = work;

    emitSeqCode(r, region.seqAfterWork);
    r.threadsCreated = 0;
    r.commits = 0;
    r.aborts = 0;
    return r;
}

RunResult
Engine::runOriginalTlp(const IStateModel &model, const RegionProfile &region,
                       const TlpModel &tlp, unsigned threads,
                       std::uint64_t seed) const
{
    if (threads == 0)
        util::fatal("runOriginalTlp: threads must be >= 1");
    const unsigned width = std::min(threads, tlp.maxThreads);

    RunResult r;
    r.stateSizeBytes = model.stateSizeBytes();
    r.outputs.assign(model.numInputs(), 0.0);
    Emitter emit(model, params_, r);

    emitSeqCode(r, region.seqBeforeWork);

    // The logical computation is the sequential one: the original TLP
    // parallelizes within the processing of one input, while the state
    // dependence keeps the input chain sequential (paper §II-A).
    StateHandle state = model.initialState();
    r.statesCreated = 1;
    util::Rng rng = util::Rng(seed).split(1);
    const double work = emit.runSpan(*state, 0, model.numInputs(),
                                     TaskKind::ChunkBody, rng, &r.outputs);
    r.bodyWork = work;

    if (width == 1) {
        r.graph.addTask(TaskKind::ChunkBody, kMainThread, work);
    } else {
        std::vector<ThreadId> helpers;
        for (unsigned h = 1; h < width; ++h)
            helpers.push_back(static_cast<ThreadId>(h));
        const std::size_t rounds =
            std::min<std::size_t>(std::max<std::size_t>(model.numInputs(),
                                                        1),
                                  params_.tlpRoundsCap);
        const TaskId entry = emit.emitSync(kMainThread, trace::kNoChunk);
        emit.emitBodySpan(kMainThread, helpers, trace::kNoChunk, work,
                          rounds, tlp.parallelFraction,
                          tlp.syncWorkPerRound, TaskKind::ChunkBody, entry,
                          nullptr);
        r.threadsCreated = width - 1;
    }

    emitSeqCode(r, region.seqAfterWork);
    return r;
}

RunResult
Engine::runStats(const IStateModel &model, const RegionProfile &region,
                 const TlpModel &tlp, const StatsConfig &config,
                 std::uint64_t seed, bool force_all_commit) const
{
    config.validate(model.numInputs());
    if (!config.useStatsTlp) {
        return runOriginalTlp(model, region, tlp, config.innerTlpThreads,
                              seed);
    }

    const std::size_t n = model.numInputs();
    const unsigned C = config.numChunks;
    const unsigned K = config.altWindowK;
    const unsigned R = config.numOriginalStates;
    const unsigned T = std::min(config.innerTlpThreads, tlp.maxThreads);

    if (C == 1) {
        // A single chunk degenerates to the sequential program plus
        // setup; still use the STATS thread structure for consistency.
        return runSequential(model, region, seed);
    }

    RunResult r;
    r.stateSizeBytes = model.stateSizeBytes();
    r.outputs.assign(n, 0.0);
    Emitter emit(model, params_, r);
    util::Rng base(seed);

    // ----- Thread layout -------------------------------------------------
    const auto chunk_thread = [&](unsigned c) -> ThreadId { return 1 + c; };
    const auto helper_thread = [&](unsigned c, unsigned j) -> ThreadId {
        return 1 + C + c * (T - 1) + j;
    };
    const auto replica_thread = [&](unsigned c, unsigned rr) -> ThreadId {
        return 1 + C + C * (T - 1) + c * (R - 1) + rr;
    };

    // ----- Chunk boundaries ----------------------------------------------
    std::vector<std::size_t> begin(C), end(C);
    for (unsigned c = 0; c < C; ++c) {
        begin[c] = n * c / C;
        end[c] = n * (c + 1) / C;
    }

    // ----- Sequential code before the region + setup ----------------------
    emitSeqCode(r, region.seqBeforeWork);

    const unsigned planned_threads =
        C * T + (C > 1 ? (C - 1) * (R - 1) : 0);
    const unsigned planned_states = 1 + C + (C - 1) * (R + 1);
    const double setup_work =
        params_.setupBaseWork +
        params_.setupPerThreadWork * static_cast<double>(planned_threads) +
        params_.setupPerStateWork * static_cast<double>(planned_states);
    r.ops.tick(TaskKind::Setup, static_cast<std::uint64_t>(setup_work));
    const TaskId setup =
        r.graph.addTask(TaskKind::Setup, kMainThread, setup_work);

    StateHandle initial = model.initialState();
    r.statesCreated = 1;
    const TaskId initial_copy =
        emit.emitCopy(kMainThread, trace::kNoChunk, setup);

    // Wake one sync per chunk thread (thread start, Fig. 7).
    std::vector<TaskId> wake(C);
    for (unsigned c = 0; c < C; ++c) {
        wake[c] = emit.emitSync(kMainThread, static_cast<std::int32_t>(c));
    }

    // ----- Phase 1: speculative execution of every chunk ------------------
    struct ChunkExec
    {
        StateHandle specState;      //!< Alt-producer output (c > 0).
        StateHandle finalState;     //!< Final state of the body run.
        StateHandle snapshot;       //!< State at end-K (c < C-1).
        TaskId handoffSync = 0;     //!< Spec state available for check.
        TaskId bodyLast = 0;        //!< Last body task (own final state).
        TaskId snapshotTask = 0;    //!< Snapshot copy task.
        std::vector<TaskId> bodyTasks; //!< For abort retagging.
        double bodyWork = 0.0;
        bool hasHandoff = false;
    };
    std::vector<ChunkExec> chunks(C);

    for (unsigned c = 0; c < C; ++c) {
        ChunkExec &ce = chunks[c];
        const ThreadId th = chunk_thread(c);
        std::vector<ThreadId> helpers;
        for (unsigned j = 0; j + 1 < T; ++j)
            helpers.push_back(helper_thread(c, j));

        TaskId prev = wake[c];
        StateHandle working;

        if (c == 0) {
            // First chunk: starts from the program's initial state.
            working = initial->clone();
            const TaskId start_copy =
                emit.emitCopy(th, 0, initial_copy, working.get());
            r.graph.addDep(prev, start_copy);
            prev = start_copy;
        } else {
            // Alternative producer: replay K inputs before the chunk
            // from the cold state (paper §II-B, light boxes of Fig. 2b).
            StateHandle cold = model.coldState();
            util::Rng alt_rng = base.split(2000 + c);
            const double alt_work = emit.runSpan(
                *cold, begin[c] - K, begin[c], TaskKind::AltProducer,
                alt_rng, nullptr);
            const TaskId alt = emit.emitSliced(
                TaskKind::AltProducer, th,
                static_cast<std::int32_t>(c), alt_work, prev);

            // Copy of the speculative state for the commit check
            // (paper Fig. 6) and the hand-off signal.
            ce.specState = cold->clone();
            const TaskId spec_copy =
                emit.emitCopy(th, static_cast<std::int32_t>(c), alt,
                              ce.specState.get());
            ce.handoffSync =
                emit.emitSync(th, static_cast<std::int32_t>(c));
            r.graph.addDep(spec_copy, ce.handoffSync);
            ce.hasHandoff = true;

            working = std::move(cold);
            prev = ce.handoffSync;
        }

        // Body: part A up to the snapshot point, snapshot copy, part B.
        const bool needs_snapshot = c + 1 < C;
        const std::size_t snap_point =
            needs_snapshot ? std::max(begin[c], end[c] - K) : end[c];
        util::Rng body_rng = base.split(1000 + c);

        const double work_a =
            emit.runSpan(*working, begin[c], snap_point,
                         TaskKind::ChunkBody, body_rng, &r.outputs);
        const std::size_t chunk_rounds =
            tlp.fanoutRoundsPerChunk ? tlp.fanoutRoundsPerChunk
                                     : params_.fanoutRoundsPerChunk;
        const TaskId body_a = emit.emitBodySpan(
            th, helpers, static_cast<std::int32_t>(c), work_a,
            chunk_rounds, tlp.parallelFraction,
            tlp.syncWorkPerRound, TaskKind::ChunkBody, prev,
            &ce.bodyTasks);
        ce.bodyWork += work_a;
        prev = body_a;

        if (needs_snapshot) {
            ce.snapshot = working->clone();
            ce.snapshotTask =
                emit.emitCopy(th, static_cast<std::int32_t>(c), body_a,
                              ce.snapshot.get());
            prev = ce.snapshotTask;

            const double work_b =
                emit.runSpan(*working, snap_point, end[c],
                             TaskKind::ChunkBody, body_rng, &r.outputs);
            ce.bodyLast = emit.emitBodySpan(
                th, helpers, static_cast<std::int32_t>(c), work_b, 1,
                tlp.parallelFraction, tlp.syncWorkPerRound,
                TaskKind::ChunkBody, prev, &ce.bodyTasks);
            ce.bodyWork += work_b;
        } else {
            ce.bodyLast = prev;
        }
        ce.finalState = std::move(working);
    }

    // ----- Phase 2: in-order commit protocol ------------------------------
    // committed[c] describes the *committed* execution of chunk c (the
    // speculative one, or the re-execution after an abort).
    struct Committed
    {
        const State *finalState = nullptr;
        StateHandle ownedFinal;      //!< Set when re-executed.
        TaskId finalTask = 0;
        TaskId snapshotTask = 0;
        StateHandle snapshot;
        std::vector<StateHandle> replicaStates;
        std::vector<TaskId> replicaTasks;
    };
    std::vector<Committed> committed(C);
    committed[0].finalState = chunks[0].finalState.get();
    committed[0].finalTask = chunks[0].bodyLast;
    committed[0].snapshotTask = chunks[0].snapshotTask;
    committed[0].snapshot =
        chunks[0].snapshot ? chunks[0].snapshot->clone() : nullptr;

    TaskId prev_verdict = 0;
    bool has_prev_verdict = false;

    for (unsigned c = 0; c + 1 < C; ++c) {
        Committed &cur = committed[c];
        const ThreadId th = chunk_thread(c);

        // Multiple original states: the chunk's own final state plus
        // R-1 replica re-runs of the boundary inputs from the snapshot
        // (paper §III-B, Fig. 5).
        const std::size_t snap_point = std::max(begin[c], end[c] - K);
        for (unsigned rep = 0; rep + 1 < R; ++rep) {
            // The wake and start-copy live on the replica thread so the
            // replicas overlap the tail of the chunk body, as in Fig. 5.
            const ThreadId rth = replica_thread(c, rep);
            const TaskId wake_rep =
                emit.emitSync(rth, static_cast<std::int32_t>(c));
            r.graph.addDep(cur.snapshotTask, wake_rep);
            StateHandle replica = cur.snapshot->clone();
            const TaskId start_copy =
                emit.emitCopy(rth, static_cast<std::int32_t>(c),
                              cur.snapshotTask, replica.get());
            r.graph.addDep(wake_rep, start_copy);
            util::Rng rep_rng = base.split(3000 + c * 128 + rep);
            const double rep_work = emit.runSpan(
                *replica, snap_point, end[c], TaskKind::OriginalStateGen,
                rep_rng, nullptr);
            const TaskId rep_task = emit.emitSliced(
                TaskKind::OriginalStateGen, rth,
                static_cast<std::int32_t>(c), rep_work, start_copy);
            cur.replicaStates.push_back(std::move(replica));
            cur.replicaTasks.push_back(rep_task);
        }

        // Commit check of chunk c+1 (paper §II-B): compare its
        // speculative state against each original state until a match.
        ChunkExec &next = chunks[c + 1];
        int match_index = -1;
        // Per-compare (work, bytes) prices, recorded *before* the
        // corresponding matches() call: matches() warms the summary
        // caches it reads, so pricing afterwards would always see warm
        // sides and under-charge the first cold compare.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> cmp_costs;
        if (force_all_commit) {
            match_index = 0;
            cmp_costs.emplace_back(model.compareWork(),
                                   model.stateSizeBytes());
        } else {
            const auto record = [&](const State &orig) {
                cmp_costs.emplace_back(
                    model.compareWork(*next.specState, orig),
                    model.compareBytes(*next.specState, orig));
            };
            record(*cur.finalState);
            if (model.matches(*next.specState, *cur.finalState)) {
                match_index = 0;
            } else {
                for (unsigned rep = 0; rep < cur.replicaStates.size();
                     ++rep) {
                    record(*cur.replicaStates[rep]);
                    if (model.matches(*next.specState,
                                      *cur.replicaStates[rep])) {
                        match_index = static_cast<int>(rep) + 1;
                        break;
                    }
                }
            }
        }
        const unsigned compares_done =
            static_cast<unsigned>(cmp_costs.size());

        TaskId last_cmp = 0;
        for (unsigned cmp = 0; cmp < compares_done; ++cmp) {
            const TaskId cmp_task =
                emit.emitCompare(th, static_cast<std::int32_t>(c),
                                 cmp_costs[cmp].first,
                                 cmp_costs[cmp].second);
            if (cmp == 0) {
                r.graph.addDep(cur.finalTask, cmp_task);
                if (next.hasHandoff)
                    r.graph.addDep(next.handoffSync, cmp_task);
                for (TaskId rt : cur.replicaTasks)
                    r.graph.addDep(rt, cmp_task);
            }
            last_cmp = cmp_task;
        }

        // Verdict signal (in-order commit, Fig. 7).
        // Commit decisions resolve in program order (paper §II-B): the
        // verdicts chain, while the comparisons above only wait for
        // their data.
        const TaskId verdict =
            emit.emitSync(th, static_cast<std::int32_t>(c));
        r.graph.addDep(last_cmp, verdict);
        if (has_prev_verdict)
            r.graph.addDep(prev_verdict, verdict);
        prev_verdict = verdict;
        has_prev_verdict = true;

        Committed &nxt = committed[c + 1];
        if (match_index >= 0) {
            // Commit: the speculative execution of chunk c+1 stands.
            ++r.commits;
            nxt.finalState = next.finalState.get();
            nxt.finalTask = next.bodyLast;
            nxt.snapshotTask = next.snapshotTask;
            nxt.snapshot =
                next.snapshot ? next.snapshot->clone() : nullptr;
        } else {
            // Abort: re-execute chunk c+1 from the committed final
            // state of chunk c (paper §II-B case (i)).  The wasted
            // speculative work is re-attributed to mispeculation.
            ++r.aborts;
            for (TaskId id : next.bodyTasks) {
                r.graph.mutableTask(id).kind = TaskKind::MispecReExec;
            }
            r.ops.transfer(TaskKind::ChunkBody, TaskKind::MispecReExec,
                           static_cast<std::uint64_t>(next.bodyWork));

            const ThreadId nth = chunk_thread(c + 1);
            std::vector<ThreadId> helpers;
            for (unsigned j = 0; j + 1 < T; ++j)
                helpers.push_back(helper_thread(c + 1, j));

            StateHandle redo = cur.finalState->clone();
            const TaskId restart_copy =
                emit.emitCopy(nth, static_cast<std::int32_t>(c + 1),
                              cur.finalTask, redo.get());
            r.graph.addDep(verdict, restart_copy);
            // Thread program order already chains restart after the
            // speculative body of chunk c+1 on the same thread.
            const bool needs_snapshot = c + 2 < C;
            const std::size_t redo_snap =
                needs_snapshot
                    ? std::max(begin[c + 1], end[c + 1] - K)
                    : end[c + 1];
            util::Rng redo_rng = base.split(5000 + c + 1);

            const double redo_a = emit.runSpan(
                *redo, begin[c + 1], redo_snap, TaskKind::MispecReExec,
                redo_rng, &r.outputs);
            std::vector<TaskId> redo_tasks;
            const std::size_t redo_rounds =
                tlp.fanoutRoundsPerChunk ? tlp.fanoutRoundsPerChunk
                                         : params_.fanoutRoundsPerChunk;
            TaskId redo_last = emit.emitBodySpan(
                nth, helpers, static_cast<std::int32_t>(c + 1), redo_a,
                redo_rounds, tlp.parallelFraction,
                tlp.syncWorkPerRound, TaskKind::MispecReExec,
                restart_copy, &redo_tasks);

            if (needs_snapshot) {
                nxt.snapshot = redo->clone();
                nxt.snapshotTask =
                    emit.emitCopy(nth, static_cast<std::int32_t>(c + 1),
                                  redo_last, nxt.snapshot.get());
                const double redo_b = emit.runSpan(
                    *redo, redo_snap, end[c + 1], TaskKind::MispecReExec,
                    redo_rng, &r.outputs);
                redo_last = emit.emitBodySpan(
                    nth, helpers, static_cast<std::int32_t>(c + 1),
                    redo_b, 1, tlp.parallelFraction,
                    tlp.syncWorkPerRound, TaskKind::MispecReExec,
                    nxt.snapshotTask, &redo_tasks);
            }
            nxt.ownedFinal = std::move(redo);
            nxt.finalState = nxt.ownedFinal.get();
            nxt.finalTask = redo_last;
        }
    }

    // ----- Join, teardown, sequential code after the region ---------------
    const TaskId join = emit.emitSync(kMainThread, trace::kNoChunk);
    for (unsigned c = 0; c < C; ++c)
        r.graph.addDep(committed[c].finalTask, join);
    if (has_prev_verdict)
        r.graph.addDep(prev_verdict, join);

    const double teardown_work = setup_work * params_.teardownFraction;
    r.ops.tick(TaskKind::Setup, static_cast<std::uint64_t>(teardown_work));
    r.graph.addTask(TaskKind::Setup, kMainThread, teardown_work);

    emitSeqCode(r, region.seqAfterWork);

    r.threadsCreated =
        static_cast<unsigned>(r.graph.numThreads()) - 1;
    // Table I semantics: small states are replicated per worker
    // thread (each inner-TLP worker keeps a private copy), and each
    // boundary replica owns one more; a large state (bodytrack's
    // 500 KB) is shared within its chunk, so only the per-chunk
    // working states remain.
    if (model.stateSizeBytes() < params_.perThreadStateCopyLimit)
        r.statesCreated = C * T + (C - 1) * (R - 1);
    else
        r.statesCreated = C;
    for (unsigned c = 0; c < C; ++c)
        r.bodyWork += chunks[c].bodyWork;

    REPRO_ASSERT(r.graph.isAcyclic(), "STATS engine emitted a cyclic graph");
    return r;
}

} // namespace core

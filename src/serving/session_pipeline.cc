#include "serving/session_pipeline.h"

#include <utility>

#include "util/log.h"

namespace repro::serving {

namespace {

void
checkConfig(const SessionPipeline::Config &config)
{
    REPRO_ASSERT(config.altWindowK >= 1, "session needs altWindowK >= 1");
    REPRO_ASSERT(config.numOriginalStates >= 1,
                 "session needs numOriginalStates >= 1");
}

} // namespace

SessionPipeline::SessionPipeline(const core::IStateModel &model,
                                 Config config, std::uint64_t seed)
    : cfg_(config), protocol_(model, seed)
{
    checkConfig(cfg_);
}

SessionPipeline::ChunkResult
SessionPipeline::processChunk(std::size_t count)
{
    REPRO_ASSERT(count >= 1, "closed chunk must contain inputs");
    REPRO_ASSERT(chunkIndex_ == 0 || protocol_.hasCommitted(),
                 "pipeline used after releaseState()");
    core::ChunkRun chunk(chunkIndex_, nextInput_, nextInput_ + count,
                         cfg_.altWindowK);
    protocol_.speculateHead(chunk);
    protocol_.speculateTail(chunk);
    if (chunk.index == 0) {
        protocol_.commitFirst(chunk);
    } else {
        core::Replicas replicas(cfg_.numOriginalStates - 1);
        protocol_.regrowReplicas(replicas);
        protocol_.resolve(chunk, replicas);
    }

    nextInput_ = chunk.end;
    ++chunkIndex_;
    ChunkResult result;
    result.chunkIndex = chunk.index;
    result.firstInput = chunk.begin;
    result.aborted = chunk.aborted;
    result.outputs = std::move(chunk.outputs);
    return result;
}

void
SessionPipeline::reconfigure(Config config)
{
    checkConfig(config);
    cfg_ = config;
}

void
SessionPipeline::releaseState()
{
    protocol_.releaseState();
}

} // namespace repro::serving

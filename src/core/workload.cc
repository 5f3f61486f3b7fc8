#include "core/workload.h"

#include <map>
#include <mutex>

#include "codec/transcode.h"
#include "common/status.h"
#include "obs/hotspots.h"
#include "obs/spans.h"
#include "obs/uarch.h"
#include "trace/probe.h"
#include "video/vbench.h"

namespace vtrans::core {

namespace {

/** Counter-track label identifying the run in the phase time-series. */
std::string
phaseLabel(const RunConfig& config)
{
    return config.video + " crf" + std::to_string(config.params.crf) + " r"
           + std::to_string(config.params.refs);
}

/**
 * One instrumented session on the calling thread: resets the simulated
 * heap, attaches the core model of `config.core` and runs `work` under
 * it, then detaches and returns the finished model's statistics.
 *
 * When hotspot collection is on, the event stream is tapped through a
 * tee so the profiler observes exactly what the model accounts; the
 * model stays first in the chain and sees an unchanged stream either
 * way. µarch attribution implies profiling: the report needs the
 * profiler's per-site instruction counts as CPI/MPKI denominators.
 * After finish() (the drain charges cycles) the per-site attribution is
 * folded into the global report, phase samples become counter events on
 * `config.tracer`, and the model's schedule is recorded.
 */
template <typename Work>
uarch::CoreStats
instrumentedSession(const RunConfig& config, Work&& work)
{
    // Deterministic data addresses for this run, whatever ran before.
    trace::arena().reset();
    uarch::CoreModel model(config.core);
    obs::HotspotProfiler profiler;
    trace::TeeSink tee({&model, &profiler});
    const bool profiled =
        obs::hotspotsEnabled() || model.attributionEnabled();
    trace::setSink(profiled ? static_cast<trace::ProbeSink*>(&tee)
                            : &model);
    work();
    trace::setSink(nullptr); // Consumes every pending event.
    if (profiled) {
        obs::hotspotReport().merge(profiler);
    }

    const uarch::CoreStats stats = model.finish();
    obs::recordCoreSchedule(model.schedule());
    if (model.attributionEnabled()) {
        obs::mergeAttribution(&obs::hotspotReport(), model);
    }
    if (!model.phaseSamples().empty()) {
        obs::emitPhaseCounters(config.tracer, model, phaseLabel(config));
    }
    return stats;
}

} // namespace

const std::vector<uint8_t>&
mezzanine(const std::string& video, double seconds)
{
    // Shared across farm worker threads: the whole lookup-or-build is
    // mutex-guarded (map node references stay valid after later inserts,
    // so callers may keep the returned reference lock-free).
    static std::mutex mu;
    static std::map<std::pair<std::string, int>, std::vector<uint8_t>>
        cache;
    std::lock_guard<std::mutex> lock(mu);
    const int centi = static_cast<int>(seconds * 100.0 + 0.5);
    const auto key = std::make_pair(video, centi);
    auto it = cache.find(key);
    if (it != cache.end()) {
        return it->second;
    }

    video::VideoSpec spec = video::findVideo(video);
    if (seconds > 0.0) {
        spec.seconds = seconds;
    }
    VT_INFORM("building mezzanine for ", video, " (", spec.seconds, "s, ",
              spec.width, "x", spec.height, ")");
    auto stream = codec::makeSourceStream(spec);
    return cache.emplace(key, std::move(stream)).first->second;
}

RunResult
runInstrumented(const RunConfig& config)
{
    // A mezzanine built for this run runs the run's code, too.
    const codec::CodegenScope codegen(config.params);
    const auto& source = config.input != nullptr
                             ? *config.input
                             : mezzanine(config.video, config.seconds);
    codec::TranscodeResult transcoded;
    RunResult result;
    result.core = instrumentedSession(config, [&] {
        transcoded = codec::transcode(source, config.params);
    });
    result.encode = transcoded.stats;
    result.transcode_seconds = result.core.seconds();
    result.psnr = transcoded.psnr();
    result.bitrate_kbps = transcoded.bitrateKbps();
    if (config.keep_output) {
        result.output = std::move(transcoded.output);
    }
    return result;
}

codec::EncodeStats
runNative(const RunConfig& config)
{
    const codec::CodegenScope codegen(config.params);
    const auto& source = config.input != nullptr
                             ? *config.input
                             : mezzanine(config.video, config.seconds);
    trace::arena().reset();
    codec::TranscodeResult transcoded =
        codec::transcode(source, config.params);
    return transcoded.stats;
}

RunResult
runInstrumentedChunk(
    const std::vector<const std::vector<uint8_t>*>& slices,
    const RunConfig& config)
{
    VT_ASSERT(!slices.empty(), "chunk run with no slices");
    std::vector<codec::TranscodeResult> parts;
    RunResult result;
    result.core = instrumentedSession(config, [&] {
        // Each slice is an independent closed-GOP transcode (its own
        // encoder state) — the segment-atom contract that makes the
        // stitched stream independent of how segments are grouped into
        // chunks.
        parts.reserve(slices.size());
        for (const auto* slice : slices) {
            parts.push_back(codec::transcode(*slice, config.params));
        }
        // The in-chunk remux is part of the chunk's work and is itself
        // instrumented (the bitstream reader/writer trace their traffic).
        std::vector<const std::vector<uint8_t>*> outputs;
        outputs.reserve(parts.size());
        for (const auto& part : parts) {
            outputs.push_back(&part.output);
        }
        result.output = chunk::stitch(outputs);
    });
    result.transcode_seconds = result.core.seconds();

    // Aggregate the per-slice encode statistics (frame-weighted means
    // for the rates, plain sums for the counters).
    int total_frames = 0;
    double psnr_weighted = 0.0;
    int display_offset = 0;
    codec::EncodeStats& agg = result.encode;
    for (const auto& part : parts) {
        const codec::EncodeStats& e = part.stats;
        agg.total_bits += e.total_bits;
        agg.i_frames += e.i_frames;
        agg.p_frames += e.p_frames;
        agg.b_frames += e.b_frames;
        agg.mb_skip += e.mb_skip;
        agg.mb_inter16 += e.mb_inter16;
        agg.mb_inter8x8 += e.mb_inter8x8;
        agg.mb_intra16 += e.mb_intra16;
        agg.mb_intra4 += e.mb_intra4;
        agg.me_candidates += e.me_candidates;
        agg.vbv_violations += e.vbv_violations;
        for (codec::FrameStat f : e.frames) {
            f.display_index += display_offset;
            agg.frames.push_back(f);
        }
        psnr_weighted += e.psnr * part.frame_count;
        total_frames += part.frame_count;
        display_offset += part.frame_count;
    }
    const int fps = parts.front().fps;
    if (total_frames > 0) {
        agg.psnr = psnr_weighted / total_frames;
        agg.bitrate_kbps = static_cast<double>(agg.total_bits) / 1000.0
                           / (static_cast<double>(total_frames) / fps);
    }
    result.psnr = agg.psnr;
    result.bitrate_kbps = agg.bitrate_kbps;
    return result;
}

std::shared_ptr<const chunk::SplitPlan>
cachedSplit(const std::string& video, double seconds,
            const codec::EncoderParams& target,
            const chunk::ChunkOptions& opts)
{
    // Keyed by everything the boundary plan depends on: the clip and the
    // planning parameters (effective keyint, scenecut, B placement). The
    // slice encodes use the fixed mezzanine grade, so nothing else in
    // `target` can change the split.
    const int centi = static_cast<int>(seconds * 100.0 + 0.5);
    const int eff_keyint =
        opts.chunk_frames > 0 ? opts.chunk_frames : target.keyint;
    std::string key = video + "/" + std::to_string(centi) + "/k"
                      + std::to_string(eff_keyint) + "/s"
                      + std::to_string(target.scenecut) + "/b"
                      + std::to_string(target.bframes) + "/a"
                      + std::to_string(target.b_adapt);

    static std::mutex mu;
    static std::map<std::string, std::shared_ptr<const chunk::SplitPlan>>
        cache;
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it != cache.end()) {
        return it->second;
    }
    const auto& source = mezzanine(video, seconds);
    auto plan = std::make_shared<chunk::SplitPlan>(
        chunk::split(source, target, opts));
    cache.emplace(key, plan);
    return plan;
}

} // namespace vtrans::core

#include "core/parallel.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "codec/decoder.h"
#include "codec/params.h"
#include "codec/transcode.h"
#include "common/status.h"
#include "farm/farm.h"
#include "farm/server.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "video/quality.h"
#include "video/vbench.h"

namespace vtrans::core {

namespace {

/**
 * Serialized progress logging: worker threads report grid points as they
 * claim them, one VT_INFORM at a time (stderr writes from concurrent
 * workers would otherwise interleave mid-line).
 */
void
progress(bool verbose, const std::string& message)
{
    if (!verbose) {
        return;
    }
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    VT_INFORM(message);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - start)
        .count();
}

} // namespace

int
resolveJobs(int jobs)
{
    if (jobs >= 1) {
        return jobs;
    }
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return hw >= 1 ? hw : 1;
}

SweepStats
parallelSweep(size_t count, int jobs,
              const std::function<void(size_t)>& run_point,
              obs::SpanTracer* tracer, const codec::Codegen& codegen)
{
    // All probe code sites must be registered — serially, in a fixed
    // order — before any worker can race a registration and perturb the
    // virtual code layout (see farm/farm.h). Scoped spans are no-ops
    // without a tracer.
    {
        obs::SpanTracer::Scoped warmup(tracer, "sweep", "warmup");
        farm::Farm::warmupProcess(codegen);
    }

    SweepStats stats;
    stats.jobs = resolveJobs(jobs);
    stats.points = count;
    if (count == 0) {
        return stats;
    }

    // Per-point wall times land in distinct slots: no cross-worker
    // sharing, summed only after the pool joins the batch.
    std::vector<double> point_seconds(count, 0.0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        tasks.push_back([&run_point, &point_seconds, tracer, i] {
            obs::SpanTracer::Scoped span(tracer, "sweep", "point");
            span.arg("index", std::to_string(i));
            const auto start = std::chrono::steady_clock::now();
            run_point(i);
            point_seconds[i] = secondsSince(start);
        });
    }

    const auto batch_start = std::chrono::steady_clock::now();
    {
        obs::SpanTracer::Scoped fanout(tracer, "sweep", "fan-out");
        fanout.arg("points", std::to_string(count));
        fanout.arg("jobs", std::to_string(stats.jobs));
        farm::WorkerPool pool(stats.jobs);
        pool.run(std::move(tasks));
    }
    stats.wall_seconds = secondsSince(batch_start);
    {
        obs::SpanTracer::Scoped collect(tracer, "sweep", "collect");
        for (double s : point_seconds) {
            stats.busy_seconds += s;
        }
    }

    auto& reg = obs::metrics();
    reg.counter("sweep_points_total", "Grid points run by parallel sweeps")
        .inc(count);
    reg.counter("sweep_batches_total", "Parallel sweep invocations").inc();
    auto& point_hist = reg.histogram(
        "sweep_point_wall_seconds", "Wall-clock duration of sweep points");
    for (double s : point_seconds) {
        point_hist.observe(s);
    }
    reg.gauge("sweep_last_speedup",
              "busy/wall ratio of the most recent parallel sweep")
        .set(stats.wall_seconds > 0.0
                 ? stats.busy_seconds / stats.wall_seconds
                 : 0.0);
    return stats;
}

std::vector<SweepPoint>
parallelCrfRefsSweep(const std::vector<int>& crf_values,
                     const std::vector<int>& refs_values,
                     const StudyOptions& options, SweepStats* stats)
{
    // Grid order is fixed up front; workers only fill in `run`.
    std::vector<SweepPoint> points;
    points.reserve(crf_values.size() * refs_values.size());
    for (int crf : crf_values) {
        for (int refs : refs_values) {
            SweepPoint point;
            point.crf = crf;
            point.refs = refs;
            points.push_back(point);
        }
    }

    const SweepStats s = parallelSweep(
        points.size(), options.jobs, [&](size_t i) {
            SweepPoint& point = points[i];
            progress(options.verbose,
                     "sweep crf=" + std::to_string(point.crf)
                         + " refs=" + std::to_string(point.refs));
            point.run = runInstrumented(
                sweepPointConfig(options, point.crf, point.refs));
        },
        options.tracer, options.codegen);
    if (stats != nullptr) {
        *stats = s;
    }
    return points;
}

std::vector<PresetResult>
parallelPresetStudy(const StudyOptions& options, SweepStats* stats)
{
    std::vector<PresetResult> results;
    for (const auto& preset : codec::presetNames()) {
        PresetResult result;
        result.preset = preset;
        results.push_back(std::move(result));
    }

    const SweepStats s = parallelSweep(
        results.size(), options.jobs, [&](size_t i) {
            PresetResult& result = results[i];
            progress(options.verbose, "preset " + result.preset);
            result.run = runInstrumented(
                presetPointConfig(options, result.preset));
        },
        options.tracer, options.codegen);
    if (stats != nullptr) {
        *stats = s;
    }
    return results;
}

ChunkedResult
chunkedTranscode(const ChunkedOptions& options, SweepStats* stats)
{
    ChunkedResult out;
    if (!options.chunking.enabled()) {
        // Chunking off: the ordinary whole-video path, byte-identical to
        // a plain instrumented run (no split, no remux).
        farm::Farm::warmupProcess(options.params.codegen);
        RunConfig cfg;
        cfg.video = options.video;
        cfg.seconds = options.seconds;
        cfg.params = options.params;
        cfg.core = options.core;
        cfg.keep_output = true;
        RunResult run = runInstrumented(cfg);
        out.chunks = 1;
        out.psnr = run.psnr;
        out.bitrate_kbps = run.bitrate_kbps;
        out.total_sim_seconds = run.transcode_seconds;
        out.stitched = run.output;
        out.stream_fingerprint = chunk::streamFingerprint(out.stitched);
        out.chunk_runs.push_back(std::move(run));
        if (stats != nullptr) {
            *stats = SweepStats{};
            stats->jobs = resolveJobs(options.jobs);
            stats->points = 1;
        }
        return out;
    }

    // Split once, globally (boundaries come from the whole-clip
    // lookahead), then fan the chunk encodes out like any other sweep:
    // results land in pre-sized slots, so ordering never depends on
    // completion order. warmupProcess runs inside parallelSweep before
    // the fan-out; cachedSplit's segment encodes happen after it here.
    farm::Farm::warmupProcess(options.params.codegen);
    const auto plan = cachedSplit(options.video, options.seconds,
                                  options.params, options.chunking);
    const auto groups = chunk::groupSegments(plan->segments.size(),
                                             options.chunking.max_chunks);
    out.segments = plan->segments.size();
    out.chunks = groups.size();
    out.chunk_runs.resize(groups.size());

    const SweepStats s = parallelSweep(
        groups.size(), options.jobs, [&](size_t i) {
            std::vector<const std::vector<uint8_t>*> slices;
            slices.reserve(groups[i].second);
            for (int k = 0; k < groups[i].second; ++k) {
                slices.push_back(
                    &plan->segments[groups[i].first + k].source);
            }
            RunConfig cfg;
            cfg.video = options.video;
            cfg.seconds = options.seconds;
            cfg.params = options.params;
            cfg.core = options.core;
            out.chunk_runs[i] = runInstrumentedChunk(slices, cfg);
        },
        nullptr, options.params.codegen);
    if (stats != nullptr) {
        *stats = s;
    }

    // Ordered collect: stitch the per-chunk bitstreams left to right.
    std::vector<const std::vector<uint8_t>*> outputs;
    outputs.reserve(out.chunk_runs.size());
    for (const RunResult& run : out.chunk_runs) {
        outputs.push_back(&run.output);
        out.total_sim_seconds += run.transcode_seconds;
    }
    out.stitched = chunk::stitch(outputs);
    out.stream_fingerprint = chunk::streamFingerprint(out.stitched);
    out.stitch_seconds = chunk::stitchSeconds(out.stitched.size());
    out.total_sim_seconds += out.stitch_seconds;

    // Measured quality of the final stream, against the same reference
    // the unchunked path uses (the decoded mezzanine).
    const auto& source = mezzanine(options.video, options.seconds);
    out.psnr = video::sequencePsnr(codec::decode(out.stitched).frames,
                                   codec::decode(source).frames);
    out.bitrate_kbps =
        static_cast<double>(out.stitched.size()) * 8.0 / 1000.0
        / (static_cast<double>(plan->total_frames) / plan->fps);

    auto& reg = obs::metrics();
    reg.counter("chunk_jobs_total",
                "Chunk encode jobs of split transcodes")
        .inc(out.chunks);
    reg.counter("chunk_graphs_total",
                "Chunked transcode graphs (stitch jobs) submitted")
        .inc();
    reg.histogram("chunk_chunks_per_graph",
                  "Chunk jobs per transcode graph")
        .observe(static_cast<double>(out.chunks));
    reg.histogram("chunk_stitch_latency_sim_seconds",
                  "Service time of stitch jobs (simulated seconds)")
        .observe(out.stitch_seconds);

    if (options.compare_unchunked) {
        // The boundary cost: closed-GOP chunk starts vs the open-GOP
        // whole-video encode (native run; the encode outcome is a pure
        // function of input + params, so no core model is needed).
        const codec::TranscodeResult whole =
            codec::transcode(source, options.params);
        out.delta_psnr_db = out.psnr - whole.psnr();
        out.delta_bitrate_kbps = out.bitrate_kbps - whole.bitrateKbps();
        reg.histogram(
               "chunk_boundary_delta_psnr_db",
               "Stitched minus unchunked PSNR (chunk-boundary quality "
               "cost)")
            .observe(out.delta_psnr_db);
        reg.histogram(
               "chunk_boundary_delta_bitrate_kbps",
               "Stitched minus unchunked bitrate (chunk-boundary size "
               "cost)")
            .observe(out.delta_bitrate_kbps);
    }
    return out;
}

std::vector<VideoResult>
parallelVideoStudy(const StudyOptions& options, SweepStats* stats)
{
    std::vector<VideoResult> results;
    for (const auto& spec : video::vbenchCorpus()) {
        VideoResult result;
        result.video = spec.name;
        result.resolution_class = spec.resolution_class;
        result.entropy = spec.entropy;
        results.push_back(std::move(result));
    }

    const SweepStats s = parallelSweep(
        results.size(), options.jobs, [&](size_t i) {
            VideoResult& result = results[i];
            progress(options.verbose, "video " + result.video);
            result.run = runInstrumented(
                videoPointConfig(options, result.video));
        },
        options.tracer, options.codegen);
    if (stats != nullptr) {
        *stats = s;
    }
    return results;
}

} // namespace vtrans::core

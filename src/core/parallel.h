#ifndef VTRANS_CORE_PARALLEL_H_
#define VTRANS_CORE_PARALLEL_H_

/**
 * @file
 * Parallel execution of the sweep-style studies on the farm's worker
 * pool. Every grid point of `crfRefsSweep` / `presetStudy` / `videoStudy`
 * is an independent instrumented run (thread-local probe sinks and
 * simulated heaps, see trace/probe.h), so the studies shard across
 * threads the same way the cloud-transcoding literature shards
 * parameter-space exploration across machines.
 *
 * ## Determinism
 *
 * Results are collected by grid index into a pre-sized vector, so output
 * ordering never depends on completion order. Probe code-site
 * registration — the one piece of cross-run shared state, since it pins
 * the virtual code layout — happens once per process inside
 * `farm::Farm::warmupProcess()`, serially, before any fan-out. After
 * that, each point's `RunResult` (and therefore its `farm::fingerprint`)
 * is a pure function of its `RunConfig`: the parallel sweep is
 * bit-identical to the serial path at any worker count, and
 * `jobs == 1` runs the batch inline on the calling thread as the serial
 * reference.
 */

#include <cstddef>
#include <functional>
#include <vector>

#include "core/studies.h"

namespace vtrans::core {

/** Wall-clock accounting of one parallel sweep. */
struct SweepStats
{
    int jobs = 1;               ///< Worker threads used.
    size_t points = 0;          ///< Grid points executed.
    double wall_seconds = 0.0;  ///< Wall-clock time of the whole batch.
    double busy_seconds = 0.0;  ///< Sum of per-point wall times (the
                                ///< serial-equivalent cost).

    /** Measured wall-clock speedup over the serial-equivalent cost. */
    double speedup() const
    {
        return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 0.0;
    }
};

/** Resolves a jobs request: values < 1 mean hardware concurrency. */
int resolveJobs(int jobs);

/**
 * Executes `count` independent, index-addressed grid points on a shared
 * `farm::WorkerPool` with `jobs` workers: pre-warms the probe code sites
 * of `codegen` (the code the points run) via
 * `farm::Farm::warmupProcess()`, fans the points out (workers claim them
 * through the pool's atomic cursor), and returns once all have run.
 * `run_point(i)` must write its result into slot `i` of a caller-owned,
 * pre-sized container and touch no other shared state. Wall-time stage
 * spans land in `tracer` when one is given. Returns the wall-clock
 * accounting of the batch.
 */
SweepStats parallelSweep(size_t count, int jobs,
                         const std::function<void(size_t)>& run_point,
                         obs::SpanTracer* tracer = nullptr,
                         const codec::Codegen& codegen = {});

/**
 * Figures 3/4/5 on the worker pool: `crfRefsSweep` with
 * `options.jobs` workers. Point order — and every per-point result —
 * is bit-identical to the serial path.
 */
std::vector<SweepPoint>
parallelCrfRefsSweep(const std::vector<int>& crf_values,
                     const std::vector<int>& refs_values,
                     const StudyOptions& options,
                     SweepStats* stats = nullptr);

/** Figure 6 on the worker pool: `presetStudy` with `options.jobs`. */
std::vector<PresetResult> parallelPresetStudy(const StudyOptions& options,
                                              SweepStats* stats = nullptr);

/** Figure 7 on the worker pool: `videoStudy` with `options.jobs`. */
std::vector<VideoResult> parallelVideoStudy(const StudyOptions& options,
                                            SweepStats* stats = nullptr);

/** Options of a GOP-chunked transcode (see chunk/chunk.h). */
struct ChunkedOptions
{
    std::string video = "bbb";   ///< vbench short name (or "bbb").
    double seconds = 0.0;        ///< Clip length; 0 = full 5 s clip.
    codec::EncoderParams params; ///< Target transcode parameters.
    uarch::CoreParams core;      ///< Simulated machine per chunk run.
    chunk::ChunkOptions chunking; ///< Boundary spacing / chunk count.
    int jobs = 1;                ///< Worker threads; < 1 = hardware.
    bool compare_unchunked = false; ///< Also run the whole-video encode
                                    ///< and report the boundary deltas.
};

/** Outcome of a chunked transcode. */
struct ChunkedResult
{
    size_t segments = 0;         ///< Closed-GOP units in the split plan.
    size_t chunks = 0;           ///< Encode jobs the segments grouped into.
    std::vector<RunResult> chunk_runs; ///< Per-chunk instrumented runs.
    std::vector<uint8_t> stitched;     ///< The final remuxed stream.
    uint64_t stream_fingerprint = 0;   ///< FNV-1a over `stitched`.

    double psnr = 0.0;           ///< Stitched stream vs decoded mezzanine.
    double bitrate_kbps = 0.0;   ///< Of the stitched stream.
    double stitch_seconds = 0.0; ///< Simulated remux service time.
    double total_sim_seconds = 0.0; ///< Sum of chunk runs + stitch.

    // Boundary cost (only when `compare_unchunked`): stitched minus
    // whole-video encode of the same source and parameters.
    double delta_psnr_db = 0.0;
    double delta_bitrate_kbps = 0.0;
};

/**
 * Splits `options.video` at lookahead GOP/scenecut boundaries, encodes
 * the chunks as independent instrumented runs on the worker pool
 * (`parallelSweep` shape: warmup, fan-out, ordered collect), and
 * stitches the per-chunk bitstreams into one stream. The stitched bytes
 * — and `stream_fingerprint` — are identical for any `jobs` and any
 * chunk count (see chunk/chunk.h). With chunking disabled the whole
 * video runs as a single ordinary instrumented transcode and the output
 * is byte-identical to that path.
 */
ChunkedResult chunkedTranscode(const ChunkedOptions& options,
                               SweepStats* stats = nullptr);

} // namespace vtrans::core

#endif // VTRANS_CORE_PARALLEL_H_

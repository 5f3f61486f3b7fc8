#ifndef VTRANS_CORE_PARALLEL_H_
#define VTRANS_CORE_PARALLEL_H_

/**
 * @file
 * Parallel execution of the sweep-style studies on the farm's worker
 * pool. Every grid point of the Figure 3-7 studies (core/studies.h)
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
 * reference. The plain serial studies live with the tests, as oracles
 * (tests/support/serial_studies.h).
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
 * Figures 3/4/5 on the worker pool: sweeps crf x refs at the medium
 * preset with `options.jobs` workers. Point order — and every
 * per-point result — is bit-identical to the serial path.
 */
std::vector<SweepPoint>
parallelCrfRefsSweep(const std::vector<int>& crf_values,
                     const std::vector<int>& refs_values,
                     const StudyOptions& options,
                     SweepStats* stats = nullptr);

/** Figure 6 on the worker pool: all ten presets at crf 23, refs 3. */
std::vector<PresetResult> parallelPresetStudy(const StudyOptions& options,
                                              SweepStats* stats = nullptr);

/** Figure 7 on the worker pool: all vbench videos at medium/23/3, in
 *  Table I order. */
std::vector<VideoResult> parallelVideoStudy(const StudyOptions& options,
                                            SweepStats* stats = nullptr);

} // namespace vtrans::core

#endif // VTRANS_CORE_PARALLEL_H_

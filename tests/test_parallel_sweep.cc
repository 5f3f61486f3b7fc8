/**
 * @file
 * Tests of the parallel sweep runner (core/parallel.h): the generic
 * fan-out engine runs every point exactly once and accounts its wall
 * time; the study variants at workers > 1 produce per-point results —
 * fingerprints included — bit-identical to workers = 1 and to the serial
 * studies path, in the same order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/studies.h"
#include "farm/farm.h"
#include "farm/runlog.h"
#include "obs/spans.h"
#include "tests/support/serial_studies.h"
#include "trace/probe.h"

namespace vtrans::core {
namespace {

/** Cheap 480p-class grid so the determinism gate stays fast. */
StudyOptions
fastStudy(int jobs)
{
    StudyOptions options;
    options.video = "cat";
    options.seconds = 0.1;
    options.jobs = jobs;
    options.verbose = false;
    return options;
}

TEST(ParallelSweep, RunsEveryPointExactlyOnce)
{
    constexpr size_t kPoints = 33;
    std::vector<std::atomic<int>> visits(kPoints);
    const SweepStats stats =
        parallelSweep(kPoints, 4, [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < kPoints; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "point " << i;
    }
    EXPECT_EQ(stats.points, kPoints);
    EXPECT_EQ(stats.jobs, 4);
    EXPECT_GE(stats.wall_seconds, 0.0);
    EXPECT_GE(stats.busy_seconds, 0.0);
}

TEST(ParallelSweep, EmptyGridIsANoOp)
{
    const SweepStats stats =
        parallelSweep(0, 4, [](size_t) { FAIL() << "ran a point"; });
    EXPECT_EQ(stats.points, 0u);
    EXPECT_DOUBLE_EQ(stats.speedup(), 0.0);
}

TEST(ParallelSweep, ResolveJobsHonorsExplicitAndHardwareCounts)
{
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
    EXPECT_GE(resolveJobs(0), 1);  // Hardware concurrency.
    EXPECT_GE(resolveJobs(-3), 1);
}

TEST(ParallelSweep, CrfRefsSweepMatchesSerialAtAnyWorkerCount)
{
    const std::vector<int> crf{20, 40};
    const std::vector<int> refs{1, 3};

    const auto serial_pool = parallelCrfRefsSweep(crf, refs, fastStudy(1));
    // The plain studies path (no pool) after warmup is the same bits too.
    const auto serial = crfRefsSweep(crf, refs, fastStudy(1));
    SweepStats stats;
    const auto parallel =
        parallelCrfRefsSweep(crf, refs, fastStudy(4), &stats);

    ASSERT_EQ(parallel.size(), crf.size() * refs.size());
    ASSERT_EQ(serial_pool.size(), parallel.size());
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(stats.jobs, 4);
    EXPECT_EQ(stats.points, parallel.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].crf, serial_pool[i].crf);
        EXPECT_EQ(parallel[i].refs, serial_pool[i].refs);
        EXPECT_EQ(parallel[i].crf, serial[i].crf);
        EXPECT_EQ(parallel[i].refs, serial[i].refs);
        const uint64_t fp = farm::fingerprint(parallel[i].run);
        EXPECT_EQ(fp, farm::fingerprint(serial_pool[i].run))
            << "point " << i << " diverges from the workers=1 pool run";
        EXPECT_EQ(fp, farm::fingerprint(serial[i].run))
            << "point " << i << " diverges from the serial studies path";
    }
}

TEST(ParallelSweep, BatchedPipelineMatchesPerEventAtOneAndFourJobs)
{
    // Every worker batches its own thread's probe events: the sweep's
    // fingerprints must not move a single bit between one and four jobs.
    const std::vector<int> crf{20, 40};
    const std::vector<int> refs{1, 3};

    auto fingerprintsAt = [&](int jobs) {
        const auto points = parallelCrfRefsSweep(crf, refs,
                                                 fastStudy(jobs));
        std::vector<uint64_t> prints;
        prints.reserve(points.size());
        for (const auto& p : points) {
            prints.push_back(farm::fingerprint(p.run));
        }
        return prints;
    };

    const auto serial = fingerprintsAt(1);
    ASSERT_EQ(serial.size(), crf.size() * refs.size());
    EXPECT_EQ(fingerprintsAt(4), serial);
}

TEST(ParallelSweep, PresetStudyMatchesSerialAtAnyWorkerCount)
{
    StudyOptions options = fastStudy(1);
    options.seconds = 0.06; // The slow presets dominate; keep clips tiny.

    const auto serial = parallelPresetStudy(options);
    options.jobs = 3;
    const auto parallel = parallelPresetStudy(options);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].preset, serial[i].preset);
        EXPECT_EQ(farm::fingerprint(parallel[i].run),
                  farm::fingerprint(serial[i].run))
            << "preset " << parallel[i].preset;
    }
}

/** The counter events a run left on its tracer, without the emitting
 *  thread's track id (the only field that depends on where it ran). */
std::vector<std::string>
phaseCounters(const obs::SpanTracer& tracer)
{
    std::vector<std::string> out;
    for (const obs::Span& span : tracer.spans()) {
        std::string row = span.name + " @" + std::to_string(span.ts_us);
        for (const auto& [key, value] : span.values) {
            row += " " + key + "=" + std::to_string(value);
        }
        out.push_back(std::move(row));
    }
    return out;
}

TEST(ParallelSweep, ConcurrentRunConfigsMatchSerialRuns)
{
    // A/B variants of one workload run at once, each on its own thread:
    // the scalar and vector kernel models, the Graphite loop schedules,
    // and attribution with a phase window into its own tracer. A run's
    // configuration is its RunConfig alone, so each must reproduce a
    // serial run of the same config bit for bit.
    const StudyOptions study = fastStudy(1);
    std::vector<RunConfig> configs(4, sweepPointConfig(study, 23, 3));
    configs[1].params.codegen.kernel_model = codec::KernelModel::Vector;
    configs[2].params.codegen.interchange_deblock = true;
    configs[2].params.codegen.fuse_lookahead = true;
    configs[3].core.attribute_sites = true;
    configs[3].core.phase_window = 100000;

    // Register every variant's code sites before any run, as a batch
    // runner does before its fan-out.
    for (const RunConfig& config : configs) {
        farm::Farm::warmupProcess(config.params.codegen);
    }
    mezzanine(study.video, study.seconds);

    obs::SpanTracer serial_tracer;
    obs::SpanTracer concurrent_tracer;
    std::vector<RunResult> serial;
    for (RunConfig config : configs) {
        config.tracer = &serial_tracer;
        serial.push_back(runInstrumented(config));
    }

    std::vector<RunResult> concurrent(configs.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < configs.size(); ++i) {
        threads.emplace_back([&, i] {
            RunConfig config = configs[i];
            config.tracer = &concurrent_tracer;
            concurrent[i] = runInstrumented(config);
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        EXPECT_EQ(farm::fingerprint(concurrent[i]),
                  farm::fingerprint(serial[i]));
        EXPECT_EQ(concurrent[i].core.instructions,
                  serial[i].core.instructions);
        EXPECT_EQ(concurrent[i].core.cycles, serial[i].core.cycles);
        EXPECT_EQ(concurrent[i].core.l1i_misses, serial[i].core.l1i_misses);
    }
    // Each variant really ran its own code.
    EXPECT_LT(serial[1].core.instructions, serial[0].core.instructions);
    EXPECT_NE(farm::fingerprint(serial[2]), farm::fingerprint(serial[0]));
    EXPECT_EQ(farm::fingerprint(serial[3]), farm::fingerprint(serial[0]));
    // Only the phase-window run emitted counters, identical either way.
    const auto phases = phaseCounters(serial_tracer);
    EXPECT_FALSE(phases.empty());
    EXPECT_EQ(phaseCounters(concurrent_tracer), phases);
}

} // namespace
} // namespace vtrans::core

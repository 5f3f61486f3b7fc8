#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The two benchmark workloads (see perfbench/README.md for why each
 * exists and which layer metric should move which end-to-end metric):
 *
 *  - `sweep`: the paper's crf x refs grid, serial, one point at a time;
 *  - `chunked`: uploads as split -> chunk encodes -> stitch.
 *
 * Inputs are a pure function of the seed. Every output is checked
 * against the committed golden table.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "golden.h"
#include "ledger.h"
#include "report.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; ///< Length of the measured phase.
    bool trace = false;    ///< Per-layer run instead of end-to-end.
};

struct RunOutcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    Metrics metrics;                ///< End-to-end, or per-layer if traced.
    std::vector<std::string> notes; ///< Each failure, for stderr.
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** The end-to-end metric names every untraced run reports. */
const std::vector<std::string>& endToEndMetricNames();

/** The per-layer metric names every traced run reports. */
const std::vector<std::string>& perLayerMetricNames();

/** Runs one workload; spans go to `ledger` when it is enabled. An
 *  untraced run forks its extra set-ups first, so call it before this
 *  process has set anything up or started a thread. */
RunOutcome runWorkload(const RunOptions& options, const Golden& golden,
                       Ledger& ledger);

/** Computes the golden value of every output any seed can produce. */
Golden computeGolden();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_

#ifndef VTRANS_COMMON_STATS_H_
#define VTRANS_COMMON_STATS_H_

/**
 * @file
 * Sample statistics shared by the farm run log, the observability
 * metrics and the benchmarks.
 */

#include <vector>

namespace vtrans {

/**
 * The p-th percentile (0..100) of a sample by linear interpolation
 * between order statistics; 0 for an empty sample, p clamped to [0, 100].
 * The single definition of percentile semantics shared by the farm run
 * log and the observability metrics histograms.
 */
double percentile(std::vector<double> values, double p);

} // namespace vtrans

#endif // VTRANS_COMMON_STATS_H_

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/**
 * @file
 * What a run reports: named metrics with units, the sample-size rule for
 * percentiles, and the one-line JSON result the benchmark prints last.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in the order they were set; setting a name again replaces
 *  its value. */
class Metrics
{
  public:
    void set(const std::string& name, double value, const std::string& unit);
    const Metric* find(const std::string& name) const;
    const std::vector<Metric>& all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/**
 * True if the p-th percentile (0..100) of `samples` values has at least
 * ten samples beyond it; a percentile with fewer is not reported.
 */
bool percentileReportable(double p, size_t samples);

/** The p-th percentile if reportable under the ten-sample rule, else 0. */
double reportablePercentile(const std::vector<double>& values, double p);

/** {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} */
std::string resultLine(int64_t attempted, int64_t failed,
                       const Metrics& metrics);

/** Formats a double with every digit it carries (round-trip exact). */
std::string number(double value);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H_

#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/stats.h"

namespace perfbench {

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    for (Metric& m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

const Metric*
Metrics::find(const std::string& name) const
{
    for (const Metric& m : metrics_) {
        if (m.name == name) {
            return &m;
        }
    }
    return nullptr;
}

double
median(std::vector<double> values)
{
    return values.empty() ? 0.0 : vtrans::percentile(std::move(values), 50.0);
}

bool
percentileReportable(double p, size_t samples)
{
    // Samples strictly beyond the p-th percentile of n values.
    const double beyond = static_cast<double>(samples) * (1.0 - p / 100.0);
    return beyond + 1e-9 >= 10.0;
}

double
reportablePercentile(const std::vector<double>& values, double p)
{
    return percentileReportable(p, values.size())
               ? vtrans::percentile(values, p)
               : 0.0;
}

std::string
number(double value)
{
    if (!std::isfinite(value)) {
        return "0";
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

std::string
resultLine(int64_t attempted, int64_t failed, const Metrics& metrics)
{
    std::string out = "{\"correct\": ";
    out += failed == 0 && attempted > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics.all()) {
        out += first ? "" : ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + number(m.value)
               + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
}

} // namespace perfbench

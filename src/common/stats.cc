#include "common/stats.h"

#include <algorithm>

namespace vtrans {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * (values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - lo;
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

} // namespace vtrans

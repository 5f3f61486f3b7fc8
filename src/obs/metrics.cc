#include "obs/metrics.h"

#include <sstream>

#include "common/status.h"
#include "common/stats.h"

namespace vtrans::obs {

void
Histogram::observe(double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    sum_ += value;
    if (samples_.size() < kMaxSamples) {
        samples_.push_back(value);
        return;
    }
    // Algorithm R: replace a random slot with probability cap/count, so
    // every observation so far is retained with equal probability.
    const uint64_t slot = rng_.below(count_);
    if (slot < kMaxSamples) {
        samples_[slot] = value;
    }
}

uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
}

size_t
Histogram::retained() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.size();
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
}

double
Histogram::percentile(double p) const
{
    std::vector<double> samples;
    {
        std::lock_guard<std::mutex> lock(mu_);
        samples = samples_;
    }
    return vtrans::percentile(std::move(samples), p);
}

MetricsRegistry::Instrument&
MetricsRegistry::instrument(const std::string& name, Instrument::Kind kind,
                            const std::string& help)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instruments_.find(name);
    if (it != instruments_.end()) {
        VT_ASSERT(it->second.kind == kind,
                  "metric re-registered as a different kind: ", name);
        return it->second;
    }
    Instrument inst;
    inst.kind = kind;
    inst.help = help;
    switch (kind) {
    case Instrument::Kind::Counter:
        inst.counter = std::make_unique<Counter>();
        break;
    case Instrument::Kind::FloatCounter:
        inst.float_counter = std::make_unique<FloatCounter>();
        break;
    case Instrument::Kind::Gauge:
        inst.gauge = std::make_unique<Gauge>();
        break;
    case Instrument::Kind::Histogram:
        inst.histogram = std::make_unique<Histogram>();
        break;
    }
    return instruments_.emplace(name, std::move(inst)).first->second;
}

Counter&
MetricsRegistry::counter(const std::string& name, const std::string& help)
{
    return *instrument(name, Instrument::Kind::Counter, help).counter;
}

FloatCounter&
MetricsRegistry::floatCounter(const std::string& name,
                              const std::string& help)
{
    return *instrument(name, Instrument::Kind::FloatCounter, help)
                .float_counter;
}

Gauge&
MetricsRegistry::gauge(const std::string& name, const std::string& help)
{
    return *instrument(name, Instrument::Kind::Gauge, help).gauge;
}

Histogram&
MetricsRegistry::histogram(const std::string& name, const std::string& help)
{
    return *instrument(name, Instrument::Kind::Histogram, help).histogram;
}

const char*
MetricsRegistry::typeName(Instrument::Kind kind)
{
    switch (kind) {
    case Instrument::Kind::Counter:
    case Instrument::Kind::FloatCounter:
        return "counter";
    case Instrument::Kind::Gauge:
        return "gauge";
    case Instrument::Kind::Histogram:
        return "summary";
    }
    return "untyped";
}

std::string
MetricsRegistry::exposition() const
{
    // Copy instrument pointers out so sample reads do not nest the
    // registry lock inside histogram locks.
    struct Row
    {
        std::string name;
        const Instrument* inst;
    };
    std::vector<Row> rows;
    {
        std::lock_guard<std::mutex> lock(mu_);
        rows.reserve(instruments_.size());
        for (const auto& [name, inst] : instruments_) {
            rows.push_back(Row{name, &inst});
        }
    }
    std::ostringstream os;
    std::string header; // Base name of the last HELP/TYPE header.
    for (const Row& row : rows) {
        // Labelled names share their base name's header.
        const std::string base = row.name.substr(0, row.name.find('{'));
        if (base != header) {
            header = base;
            os << "# HELP " << base << " " << row.inst->help << "\n";
            os << "# TYPE " << base << " " << typeName(row.inst->kind)
               << "\n";
        }
        switch (row.inst->kind) {
        case Instrument::Kind::Counter:
            os << row.name << " " << row.inst->counter->value() << "\n";
            break;
        case Instrument::Kind::FloatCounter:
            os << row.name << " " << row.inst->float_counter->value()
               << "\n";
            break;
        case Instrument::Kind::Gauge:
            os << row.name << " " << row.inst->gauge->value() << "\n";
            break;
        case Instrument::Kind::Histogram: {
            const Histogram& h = *row.inst->histogram;
            for (double q : {50.0, 90.0, 99.0}) {
                os << row.name << "{quantile=\"" << q / 100.0 << "\"} "
                   << h.percentile(q) << "\n";
            }
            os << row.name << "_sum " << h.sum() << "\n";
            os << row.name << "_count " << h.count() << "\n";
            break;
        }
        }
    }
    return os.str();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    instruments_.clear();
}

MetricsRegistry&
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace vtrans::obs

#ifndef VTRANS_OBS_METRICS_H_
#define VTRANS_OBS_METRICS_H_

/**
 * @file
 * A process-wide metrics registry with Prometheus-style text exposition:
 * counters (monotonic), gauges (set-to-latest), and histograms (sample
 * sets summarised by the shared vtrans::percentile, the same semantics
 * the farm run log uses for its latency percentiles).
 *
 * Instruments are created once by name and live for the process; the
 * hot operations (inc/set/observe) are cheap and thread-safe, so the
 * farm's workers, the dispatcher, and the parallel sweep all record
 * into one registry without coordination.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vtrans::obs {

/** A monotonically increasing counter (lock-free increments). */
class Counter
{
  public:
    void inc(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** A monotonically increasing real-valued counter, e.g. seconds spent
 *  (lock-free adds). */
class FloatCounter
{
  public:
    void add(double delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** A gauge holding the latest set value (lock-free). */
class Gauge
{
  public:
    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A histogram of double observations, summarised on exposition as
 * Prometheus summary quantiles (p50/p90/p99 via vtrans::percentile)
 * plus `_sum` and `_count`.
 *
 * Memory is bounded: the first kMaxSamples observations are retained
 * exactly (exact percentiles, consistent with farm::RunLog); past the
 * cap, a deterministic uniform reservoir (Vitter's algorithm R driven
 * by a fixed-seed vtrans::Rng) keeps every observation equally likely
 * to be retained, so percentiles become unbiased estimates while
 * count() and sum() stay exact. A long-running farm service can
 * therefore observe() forever without growing.
 */
class Histogram
{
  public:
    /** Retention cap: exact percentiles up to here, reservoir beyond. */
    static constexpr size_t kMaxSamples = 4096;

    void observe(double value);

    /** Number of observations so far (exact, never capped). */
    uint64_t count() const;

    /** Sum of all observations (exact, never capped). */
    double sum() const;

    /** The p-th percentile (0..100) of retained observations; 0 if
     *  none. Exact while count() <= kMaxSamples, estimated after. */
    double percentile(double p) const;

    /** Observations currently retained: min(count(), kMaxSamples). */
    size_t retained() const;

  private:
    mutable std::mutex mu_;
    std::vector<double> samples_;
    double sum_ = 0.0;
    uint64_t count_ = 0;
    Rng rng_{0x8157065a3ull}; ///< Fixed seed: deterministic reservoir.
};

/**
 * Named instrument registry with Prometheus text exposition.
 *
 * Lookup-or-create is mutex-guarded; returned references are stable for
 * the registry's lifetime. Re-requesting a name returns the existing
 * instrument (the help string of the first registration wins); a name
 * may only ever be one instrument kind.
 *
 * A name may end in a Prometheus label set, e.g.
 * `runs_total{schedule="inline"}`: each labelled name is its own
 * instrument, and instruments sharing the base name share one HELP/TYPE
 * header in the exposition.
 */
class MetricsRegistry
{
  public:
    /** Looks up or creates a counter. Name must be metric-legal
     *  ([a-zA-Z_][a-zA-Z0-9_]*), conventionally `*_total`. */
    Counter& counter(const std::string& name, const std::string& help);

    /** Looks up or creates a real-valued counter. */
    FloatCounter& floatCounter(const std::string& name,
                               const std::string& help);

    /** Looks up or creates a gauge. */
    Gauge& gauge(const std::string& name, const std::string& help);

    /** Looks up or creates a histogram. */
    Histogram& histogram(const std::string& name, const std::string& help);

    /** Prometheus text exposition (# HELP / # TYPE + samples), metrics
     *  in name order. Histograms render as summaries with quantile
     *  labels plus _sum and _count. */
    std::string exposition() const;

    /** Removes every instrument (test isolation). */
    void reset();

  private:
    struct Instrument
    {
        enum class Kind : uint8_t {
            Counter,
            FloatCounter,
            Gauge,
            Histogram
        } kind;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<FloatCounter> float_counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument& instrument(const std::string& name, Instrument::Kind kind,
                           const std::string& help);

    /** The exposition TYPE of an instrument kind. */
    static const char* typeName(Instrument::Kind kind);

    mutable std::mutex mu_;
    std::map<std::string, Instrument> instruments_;
};

/** The process-wide registry the farm, worker pool, and sweep record
 *  into. */
MetricsRegistry& metrics();

} // namespace vtrans::obs

#endif // VTRANS_OBS_METRICS_H_

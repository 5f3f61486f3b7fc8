#ifndef VTRANS_OBS_SPANS_H_
#define VTRANS_OBS_SPANS_H_

/**
 * @file
 * Span tracing: begin/end intervals over the farm job lifecycle and the
 * parallel sweep's stages, exported as Chrome trace-event JSON (viewable
 * in Perfetto / chrome://tracing).
 *
 * Two time domains coexist in one trace, mirroring the farm's split
 * between its deterministic discrete-event plan and its wall-clock
 * execution: farm job spans carry *simulated* time (the dispatch plan's
 * seconds, scaled to microseconds), while sweep stage spans carry *wall*
 * time from a process-relative steady clock. Tracks (pid/tid) keep the
 * domains apart, so overlap within a track is always meaningful.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace vtrans::obs {

/** One recorded interval / marker in a trace. */
struct Span
{
    /** Chrome trace-event phase of the record. */
    enum class Kind : uint8_t {
        Complete,   ///< "X": an interval with ts + dur.
        AsyncBegin, ///< "b": start of an async interval, paired by id.
        AsyncEnd,   ///< "e": end of an async interval, paired by id.
        Instant,    ///< "i": a point marker.
        Counter,    ///< "C": a counter sample; `values` plot as series.
    };

    Kind kind = Kind::Complete;
    std::string category; ///< e.g. "farm", "sweep".
    std::string name;     ///< e.g. "attempt", "queue", "fan-out".
    uint64_t id = 0;      ///< Async pairing id (e.g. job id).
    int64_t pid = 1;      ///< Trace process (track group).
    int64_t tid = 1;      ///< Trace thread (track within the group).
    double ts_us = 0.0;   ///< Start timestamp, microseconds.
    double dur_us = 0.0;  ///< Duration, microseconds (Complete only).
    /** String key/value annotations, rendered into the event's "args". */
    std::vector<std::pair<std::string, std::string>> args;
    /** Numeric annotations, rendered into "args" as numbers. For a
     *  Counter event each entry is one stacked series on the counter
     *  track (the Chrome trace-event "C" phase plots every numeric arg);
     *  non-finite values are clamped to 0 to keep the JSON valid. */
    std::vector<std::pair<std::string, double>> values;
};

/**
 * Collects spans into per-thread buffers and exports Chrome trace JSON.
 *
 * Thread-safe: each record appends to the calling thread's buffer under
 * a registry mutex (record rates here are per-job/per-stage, not
 * per-event, so one uncontended lock per record is cheap and keeps the
 * structure simple and TSan-clean). Per-thread ordering is preserved;
 * export concatenates buffers and the viewer orders by timestamp.
 */
class SpanTracer
{
  public:
    /** Records an "X" interval with explicit timestamps. */
    void recordComplete(Span span);

    /** Records a "b"/"e" async pair endpoint or an "i" marker. */
    void recordEvent(Span span);

    /** Records a "C" counter sample: `values` become the plotted series
     *  on the (pid, tid, name) counter track at ts_us. */
    void recordCounter(Span span);

    /** Names a (pid, tid) track in the exported trace. */
    void setTrackName(int64_t pid, int64_t tid, const std::string& name);

    /** All recorded spans, concatenated per-thread buffers (copy). */
    std::vector<Span> spans() const;

    /** Number of recorded spans across all threads. */
    size_t size() const;

    /** Discards all recorded spans and track names. */
    void clear();

    /** The trace as a Chrome trace-event JSON document. */
    std::string toChromeTrace() const;

    /** Writes toChromeTrace() to `path`; false (not fatal) on failure. */
    bool writeChromeTrace(const std::string& path) const;

    /**
     * RAII wall-clock span: captures wallNowUs() at construction and
     * records a Complete span on the current thread at destruction.
     */
    class Scoped
    {
      public:
        Scoped(SpanTracer* tracer, std::string category, std::string name);
        ~Scoped();
        Scoped(const Scoped&) = delete;
        Scoped& operator=(const Scoped&) = delete;

        /** Adds a string annotation to the span being timed. */
        void arg(std::string key, std::string value);

      private:
        SpanTracer* tracer_; ///< May be null: span becomes a no-op.
        Span span_;
    };

  private:
    std::vector<Span>& bufferLocked();

    mutable std::mutex mu_;
    std::map<std::thread::id, std::vector<Span>> buffers_;
    std::map<std::pair<int64_t, int64_t>, std::string> track_names_;
};

/** Microseconds of wall time since the first call in this process
 *  (steady clock, so spans are monotonic and diff-friendly). */
double wallNowUs();

/** A stable, small integer id for the calling thread (1, 2, ... in
 *  first-use order), used as the wall-time track id. */
int64_t threadTid();

} // namespace vtrans::obs

#endif // VTRANS_OBS_SPANS_H_

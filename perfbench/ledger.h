#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

/**
 * @file
 * The benchmark's own span ledger. Spans are recorded from the
 * benchmark's files around calls into the vtrans modules' public
 * functions (nothing inside the library is instrumented), kept in
 * memory, and written out when the run ends as a Chrome trace plus a
 * per-span self-time summary.
 *
 * Spans nest strictly on the one thread that drives the benchmark, so a
 * span's self time is its duration minus its direct children's, and the
 * self times of all spans plus the `unattributed` remainder add up to
 * the wall time of the recording exactly.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    std::string name;   ///< "module.function", e.g. "farm.drain".
    uint64_t job = 0;   ///< Spans of one job or sweep point share this.
    int parent = -1;    ///< Index of the enclosing span; -1 = top level.
    double start = 0.0; ///< Seconds since the ledger started.
    double end = 0.0;
};

/** Self time per span name, plus the remainder no span covers. */
struct LedgerSummary
{
    double wall = 0.0;
    double unattributed = 0.0;
    std::map<std::string, double> self; ///< Summed over spans of a name.
    std::map<std::string, int64_t> count;

    /** Sum of every self time plus `unattributed` (equals `wall` up to
     *  rounding when spans nest properly). */
    double accounted() const;
};

/** Per-span self times of a recording that lasted `wall` seconds. */
LedgerSummary summarize(const std::vector<SpanRecord>& spans, double wall);

class Ledger
{
  public:
    /** A disabled ledger records nothing; its scopes cost one branch. */
    explicit Ledger(bool enabled);

    bool enabled() const { return enabled_; }

    /** Seconds since the ledger was created. */
    double now() const;

    /** Opens a span under the innermost open span; -1 when disabled. */
    int begin(const std::string& name, uint64_t job = 0);
    void end(int span);

    /** Sum of the durations of all spans called `name`. */
    double total(const std::string& name) const;

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /** Writes the spans as Chrome trace-event JSON, with `metadata` (a
     *  JSON object) stored under "otherData"; false on I/O error. */
    [[nodiscard]] bool writeChromeTrace(const std::string& path,
                                        const std::string& metadata) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Ledger& ledger, const std::string& name, uint64_t job = 0)
            : ledger_(ledger), span_(ledger.begin(name, job))
        {
        }
        ~Scope() { ledger_.end(span_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Ledger& ledger_;
        int span_;
    };

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H_

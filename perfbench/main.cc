/**
 * @file
 * perfbench: the vtrans end-to-end benchmark binary.
 *
 *   perfbench --workload sweep --seed 1 --seconds 20 --trace 0 \
 *       --golden perfbench/golden.txt --out-dir .bench_build/results
 *
 * Prints progress and provenance on stderr and, as the last line of
 * stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
 * per-layer decomposition and writes a Chrome trace plus a self-time
 * summary. Every file written carries the provenance stamp.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "common/status.h"
#include "flags.h"
#include "golden.h"
#include "ledger.h"
#include "provenance.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string
summaryJson(const LedgerSummary& s, const Metrics& metrics,
            const Provenance& p)
{
    std::string out = "{\"provenance\": " + p.toJson();
    out += ", \"wall_s\": " + number(s.wall);
    out += ", \"unattributed_s\": " + number(s.unattributed);
    out += ", \"accounted_s\": " + number(s.accounted());
    const Metric* overhead = metrics.find("trace.overhead_s");
    out += ", \"tracing_overhead_s\": "
           + number(overhead ? overhead->value : 0.0);
    out += ", \"self_s\": {";
    bool first = true;
    for (const auto& [name, seconds] : s.self) {
        out += (first ? "\"" : ", \"") + name + "\": " + number(seconds);
        first = false;
    }
    out += "}, \"spans\": {";
    first = true;
    for (const auto& [name, n] : s.count) {
        out += (first ? "\"" : ", \"") + name + "\": " + std::to_string(n);
        first = false;
    }
    return out + "}}\n";
}

bool
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    out << text;
    return static_cast<bool>(out.flush());
}

} // namespace

int
main(int argc, char** argv)
{
    vtrans::setVerbose(false);
    std::string workloads;
    for (const auto& w : workloadNames()) {
        workloads += (workloads.empty() ? "" : ", ") + w;
    }
    Flags flags("perfbench",
                "Runs one vtrans benchmark workload and prints its metrics "
                "as JSON.");
    flags.declare("workload", "", "one of: " + workloads);
    flags.declare("seed", "1", "workload seed (inputs are a pure function "
                               "of it)");
    flags.declare("seconds", "20", "length of the measured phase, 1..60");
    flags.declare("trace", "0",
                  "0 = end-to-end metrics; 1 = per-layer spans and metrics");
    flags.declare("golden", "perfbench/golden.txt",
                  "golden fingerprint table to check outputs against");
    flags.declare("out-dir", "",
                  "directory for the stamped result (and trace) files; "
                  "empty = write none");
    flags.declare("write-golden", "",
                  "regenerate the golden table at this path and exit "
                  "(runs no workload)");
    if (!flags.parse(argc, argv)) {
        if (flags.error().empty()) {
            std::fputs(flags.help().c_str(), stdout);
            return 0;
        }
        std::fprintf(stderr, "perfbench: %s\n\n%s", flags.error().c_str(),
                     flags.help().c_str());
        return 2;
    }

    if (flags.given("write-golden")) {
        const Golden golden = computeGolden();
        if (!golden.write(flags.str("write-golden"))) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         flags.str("write-golden").c_str());
            return 1;
        }
        std::fprintf(stderr, "perfbench: wrote %zu golden values\n",
                     golden.size());
        return 0;
    }

    RunOptions options;
    options.workload = flags.str("workload");
    int64_t seed = 0;
    int64_t seconds = 0;
    int64_t trace = 0;
    bool known = false;
    for (const auto& w : workloadNames()) {
        known = known || w == options.workload;
    }
    if (!known || !flags.integer("seed", &seed) || seed < 0
        || !flags.integer("seconds", &seconds) || seconds < 1
        || seconds > 60 || !flags.integer("trace", &trace)
        || (trace != 0 && trace != 1)) {
        std::fprintf(stderr,
                     "perfbench: need --workload (%s), --seed >= 0, "
                     "--seconds 1..60 and --trace 0|1\n",
                     workloads.c_str());
        return 2;
    }
    options.seed = static_cast<uint64_t>(seed);
    options.seconds = static_cast<double>(seconds);
    options.trace = trace == 1;

    const std::string refusal = thisBuildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure host time: %s. "
                     "Build with -DCMAKE_BUILD_TYPE=Release and no "
                     "sanitizer.\n",
                     refusal.c_str());
        return 3;
    }
    Golden golden;
    if (!golden.load(flags.str("golden"))) {
        std::fprintf(stderr, "perfbench: cannot read golden table %s\n",
                     flags.str("golden").c_str());
        return 1;
    }

    Provenance provenance = Provenance::current();
    provenance.workload = options.workload;
    provenance.seed = options.seed;
    provenance.traced = options.trace;
    std::fprintf(stderr, "perfbench: %s\n", provenance.toJson().c_str());

    Ledger ledger(options.trace);
    const RunOutcome outcome = runWorkload(options, golden, ledger);
    for (const auto& note : outcome.notes) {
        std::fprintf(stderr, "perfbench: FAILED %s\n", note.c_str());
    }
    const std::string result =
        resultLine(outcome.attempted, outcome.failed, outcome.metrics);

    const std::string dir = flags.str("out-dir");
    if (!dir.empty()) {
        const std::string stem = dir + "/" + options.workload + "-seed"
                                 + std::to_string(options.seed)
                                 + (options.trace ? "-traced" : "");
        bool ok = writeFile(stem + ".json",
                            "{\"provenance\": " + provenance.toJson()
                                + ", \"result\": " + result + "}\n");
        if (options.trace) {
            const LedgerSummary summary =
                summarize(ledger.spans(), ledger.now());
            ok = ok
                 && ledger.writeChromeTrace(stem + ".trace.json",
                                            provenance.toJson())
                 && writeFile(stem + ".layers.json",
                              summaryJson(summary, outcome.metrics,
                                          provenance));
        }
        if (!ok) {
            std::fprintf(stderr, "perfbench: cannot write results under %s\n",
                         dir.c_str());
            return 1;
        }
    }
    std::printf("%s\n", result.c_str());
    return 0;
}

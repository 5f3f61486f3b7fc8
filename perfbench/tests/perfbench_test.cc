// Tests of the benchmark's own logic: span self times and the
// unattributed bucket, the percentile sample rule, the strict CLI, the
// build guard, the golden table, and that the metric and workload names
// perfbench reports are exactly the ones BENCHMARK.json declares.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "flags.h"
#include "golden.h"
#include "ledger.h"
#include "provenance.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

/** The contract's naming rule: 1..64 of [A-Za-z0-9_.-], starting with a
 *  letter or digit. */
bool
validName(const std::string& name)
{
    static const std::regex rule("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    return std::regex_match(name, rule);
}

SpanRecord
span(const std::string& name, int parent, double start, double end)
{
    SpanRecord s;
    s.name = name;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

TEST(Ledger, SelfTimeSubtractsDirectChildrenOnly)
{
    // drain [1,9] contains submit [2,4] which contains split [2.5,3.5];
    // decode [10,11] is a second top-level span.
    const std::vector<SpanRecord> spans = {
        span("farm.drain", -1, 1.0, 9.0),
        span("farm.submit", 0, 2.0, 4.0),
        span("chunk.split", 1, 2.5, 3.5),
        span("codec.decode", -1, 10.0, 11.0),
    };
    const LedgerSummary s = summarize(spans, 12.0);
    EXPECT_DOUBLE_EQ(s.self.at("farm.drain"), 6.0);
    EXPECT_DOUBLE_EQ(s.self.at("farm.submit"), 1.0);
    EXPECT_DOUBLE_EQ(s.self.at("chunk.split"), 1.0);
    EXPECT_DOUBLE_EQ(s.self.at("codec.decode"), 1.0);
    EXPECT_DOUBLE_EQ(s.unattributed, 3.0); // [0,1] + [9,10] + [11,12].
    EXPECT_DOUBLE_EQ(s.accounted(), s.wall);
}

TEST(Ledger, SelfTimesOfOneNameAreSummed)
{
    const std::vector<SpanRecord> spans = {
        span("sweep.point", -1, 0.0, 2.0),
        span("core.runInstrumented", 0, 0.5, 1.5),
        span("sweep.point", -1, 2.0, 5.0),
        span("core.runInstrumented", 2, 2.0, 4.0),
    };
    const LedgerSummary s = summarize(spans, 5.0);
    EXPECT_DOUBLE_EQ(s.self.at("sweep.point"), 2.0);
    EXPECT_DOUBLE_EQ(s.self.at("core.runInstrumented"), 3.0);
    EXPECT_EQ(s.count.at("sweep.point"), 2);
    EXPECT_DOUBLE_EQ(s.unattributed, 0.0);
}

TEST(Ledger, ChildOutsideItsParentCountsOnlyTheOverlap)
{
    const std::vector<SpanRecord> spans = {
        span("outer", -1, 1.0, 3.0),
        span("inner", 0, 2.0, 4.0),
    };
    const LedgerSummary s = summarize(spans, 4.0);
    EXPECT_DOUBLE_EQ(s.self.at("outer"), 1.0);
    EXPECT_DOUBLE_EQ(s.unattributed, 2.0);
}

TEST(Ledger, RecordedScopesNestAndAddUpToWallTime)
{
    Ledger ledger(true);
    {
        Ledger::Scope outer(ledger, "farm.drain", 7);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        Ledger::Scope inner(ledger, "farm.submit", 7);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(ledger.spans().size(), 2u);
    EXPECT_EQ(ledger.spans()[1].parent, 0);
    EXPECT_EQ(ledger.spans()[1].job, 7u);
    const LedgerSummary s = summarize(ledger.spans(), ledger.now());
    EXPECT_GT(s.unattributed, 0.0);
    EXPECT_NEAR(s.accounted(), s.wall, 1e-12);
    EXPECT_GT(ledger.total("farm.drain"), ledger.total("farm.submit"));
}

TEST(Ledger, DisabledLedgerRecordsNothing)
{
    Ledger ledger(false);
    {
        Ledger::Scope s(ledger, "farm.drain");
    }
    EXPECT_TRUE(ledger.spans().empty());
    EXPECT_EQ(ledger.total("farm.drain"), 0.0);
}

TEST(Report, PercentileNeedsTenSamplesBeyondIt)
{
    EXPECT_FALSE(percentileReportable(50.0, 19));
    EXPECT_TRUE(percentileReportable(50.0, 20));
    EXPECT_FALSE(percentileReportable(99.0, 999));
    EXPECT_TRUE(percentileReportable(99.0, 1000));
    EXPECT_TRUE(percentileReportable(90.0, 100));

    std::vector<double> small(999, 1.0);
    EXPECT_EQ(reportablePercentile(small, 99.0), 0.0);
    std::vector<double> big;
    for (int i = 1; i <= 1000; ++i) {
        big.push_back(i);
    }
    EXPECT_NEAR(reportablePercentile(big, 99.0), 990.01, 1e-9);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Report, ResultLineHasExactlyTheContractKeys)
{
    Metrics m;
    m.set("jobs_per_s", 12.5, "1/s");
    m.set("setup_s", 0.1, "s");
    m.set("jobs_per_s", 13.0, "1/s");
    EXPECT_EQ(resultLine(4, 0, m),
              "{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
              "\"metrics\": {\"jobs_per_s\": {\"value\": 13, \"unit\": "
              "\"1/s\"}, \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}");
    EXPECT_NE(resultLine(4, 1, m).find("\"correct\": false"),
              std::string::npos);
    EXPECT_EQ(number(0.1 + 0.2), "0.30000000000000004");
}

TEST(Manifest, NamingRule)
{
    EXPECT_TRUE(validName("farm.cache.hit_ratio"));
    EXPECT_TRUE(validName("zipf_warm"));
    EXPECT_FALSE(validName(""));
    EXPECT_FALSE(validName(".hidden"));
    EXPECT_FALSE(validName("jobs/s"));
    EXPECT_FALSE(validName(std::string(65, 'a')));
}

std::set<std::string>
namesIn(const std::string& json, const std::string& section)
{
    // The section's array runs from its key to the matching ']'.
    const size_t key = json.find("\"" + section + "\"");
    EXPECT_NE(key, std::string::npos) << section;
    const size_t open = json.find('[', key);
    const size_t close = json.find(']', open);
    const std::string body = json.substr(open, close - open);
    std::set<std::string> names;
    const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), name_re), end;
         it != end; ++it) {
        names.insert((*it)[1]);
    }
    return names;
}

TEST(Manifest, NamesMatchBenchmarkJson)
{
    std::ifstream in(PERFBENCH_MANIFEST);
    ASSERT_TRUE(in) << PERFBENCH_MANIFEST;
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();

    const auto& w = workloadNames();
    const auto& e = endToEndMetricNames();
    const auto& l = perLayerMetricNames();
    EXPECT_EQ(namesIn(json, "workloads"),
              std::set<std::string>(w.begin(), w.end()));
    EXPECT_EQ(namesIn(json, "end_to_end"),
              std::set<std::string>(e.begin(), e.end()));
    EXPECT_EQ(namesIn(json, "per_layer"),
              std::set<std::string>(l.begin(), l.end()));

    std::set<std::string> all;
    for (const auto* list : {&w, &e, &l}) {
        for (const auto& name : *list) {
            EXPECT_TRUE(validName(name)) << name;
            EXPECT_TRUE(all.insert(name).second) << "duplicate " << name;
        }
    }
}

TEST(Flags, RejectsUnknownRepeatedAndIncompleteFlags)
{
    Flags flags("perfbench", "test");
    flags.declare("seed", "1", "workload seed");
    flags.declare("workload", "", "workload");

    const char* typo[] = {"perfbench", "--sed", "3"};
    EXPECT_FALSE(flags.parse(3, typo));
    EXPECT_NE(flags.error().find("unknown flag --sed"), std::string::npos);

    const char* twice[] = {"perfbench", "--seed", "3", "--seed=4"};
    EXPECT_FALSE(flags.parse(4, twice));
    EXPECT_NE(flags.error().find("twice"), std::string::npos);

    const char* dangling[] = {"perfbench", "--seed"};
    EXPECT_FALSE(flags.parse(2, dangling));
    EXPECT_NE(flags.error().find("needs a value"), std::string::npos);

    const char* positional[] = {"perfbench", "sweep"};
    EXPECT_FALSE(flags.parse(2, positional));

    const char* help[] = {"perfbench", "--help"};
    EXPECT_FALSE(flags.parse(2, help));
    EXPECT_TRUE(flags.error().empty());
    EXPECT_NE(flags.help().find("--seed VALUE"), std::string::npos);
    EXPECT_NE(flags.help().find("(default: 1)"), std::string::npos);
}

TEST(Flags, ParsesBothValueFormsAndChecksIntegers)
{
    Flags flags("perfbench", "test");
    flags.declare("seed", "1", "workload seed");
    flags.declare("workload", "", "workload");
    const char* argv[] = {"perfbench", "--workload=sweep", "--seed", "12x"};
    ASSERT_TRUE(flags.parse(4, argv));
    EXPECT_EQ(flags.str("workload"), "sweep");
    int64_t seed = 0;
    EXPECT_FALSE(flags.integer("seed", &seed));

    const char* ok[] = {"perfbench", "--seed", "42"};
    ASSERT_TRUE(flags.parse(3, ok));
    ASSERT_TRUE(flags.integer("seed", &seed));
    EXPECT_EQ(seed, 42);
    EXPECT_TRUE(flags.given("seed"));
    EXPECT_FALSE(flags.given("workload"));
}

TEST(BuildGuard, OnlyReleaseWithoutSanitizersMayMeasure)
{
    EXPECT_EQ(buildRefusal("Release", "", true), "");
    EXPECT_NE(buildRefusal("RelWithDebInfo", "", true), "");
    EXPECT_NE(buildRefusal("Debug", "", false), "");
    EXPECT_NE(buildRefusal("Release", "address,undefined", true), "");
    EXPECT_NE(buildRefusal("Release", "", false), "");
}

TEST(Golden, RoundTripsAndTreatsMissingKeysAsMismatches)
{
    Golden g;
    g.set("sweep/funny/crf18/refs1", 0x0123456789abcdefull);
    g.set("zipf_warm/log/v3", 42);
    const std::string path = ::testing::TempDir() + "perfbench_golden.txt";
    ASSERT_TRUE(g.write(path));
    Golden back;
    ASSERT_TRUE(back.load(path));
    EXPECT_EQ(back.size(), 2u);
    EXPECT_TRUE(back.matches("sweep/funny/crf18/refs1",
                             0x0123456789abcdefull));
    EXPECT_FALSE(back.matches("sweep/funny/crf18/refs1", 1));
    EXPECT_FALSE(back.matches("sweep/funny/crf19/refs1", 0));

    std::ofstream(path) << "key not-hex\n";
    Golden bad;
    EXPECT_FALSE(bad.load(path));
    EXPECT_NE(digest("a"), digest("b"));
}

} // namespace
} // namespace perfbench

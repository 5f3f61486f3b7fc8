/**
 * @file
 * Unit tests for the common utilities: deterministic RNG, tables, CSV,
 * heatmaps, and the CLI parser.
 */

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/heatmap.h"
#include "common/rng.h"
#include "common/table.h"

namespace vtrans {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(10);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(12);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Table, AlignedTextOutput)
{
    Table t({"name", "value"});
    t.beginRow();
    t.cell(std::string("x"));
    t.cell(static_cast<int64_t>(42));
    t.beginRow();
    t.cell(std::string("longer"));
    t.cell(3.14159, 2);
    const std::string text = t.toText();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("3.14"), std::string::npos);
}

TEST(Table, CsvEscaping)
{
    Table t({"a", "b"});
    t.beginRow();
    t.cell(std::string("has,comma"));
    t.cell(std::string("has\"quote"));
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
}

TEST(Heatmap, MinMaxAndRender)
{
    Heatmap hm("test", {"r0", "r1"}, {"c0", "c1", "c2"});
    double v = 0.0;
    for (size_t r = 0; r < 2; ++r) {
        for (size_t c = 0; c < 3; ++c) {
            hm.set(r, c, v);
            v += 1.0;
        }
    }
    EXPECT_EQ(hm.minValue(), 0.0);
    EXPECT_EQ(hm.maxValue(), 5.0);
    const std::string rendered = hm.render();
    EXPECT_NE(rendered.find("test"), std::string::npos);
    EXPECT_NE(rendered.find('@'), std::string::npos); // max bucket shade
    const std::string csv = hm.toCsv();
    EXPECT_NE(csv.find("5.000000"), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositionals)
{
    const char* argv[] = {"prog",      "--alpha=3", "--beta", "7",
                          "positional", "--flag"};
    Cli cli(6, argv,
            {{"alpha", FlagKind::Int},
             {"beta", FlagKind::Int},
             {"flag", FlagKind::Switch},
             {"missing", FlagKind::Int}},
            /*positionals=*/true);
    EXPECT_EQ(cli.num("alpha", 0), 3);
    EXPECT_EQ(cli.num("beta", 0), 7);
    EXPECT_TRUE(cli.has("flag"));
    EXPECT_FALSE(cli.has("missing"));
    EXPECT_EQ(cli.num("missing", 42), 42);
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, RealAndStringValues)
{
    const char* argv[] = {"prog", "--ratio=2.5", "--name", "vbench"};
    Cli cli(4, argv,
            {{"ratio", FlagKind::Real},
             {"name", FlagKind::Text},
             {"other", FlagKind::Text}});
    EXPECT_DOUBLE_EQ(cli.real("ratio", 0.0), 2.5);
    EXPECT_EQ(cli.str("name", ""), "vbench");
    EXPECT_EQ(cli.str("other", "dflt"), "dflt");
}

/** The flags the strictness cases below declare. */
FlagList
strictFlags()
{
    return {{"jobs", FlagKind::Int},
            {"seconds", FlagKind::Real},
            {"video", FlagKind::Text},
            {"quiet", FlagKind::Switch}};
}

TEST(Cli, UnknownFlagExitsNamingIt)
{
    // A stale flag must fail before any work, not be silently ignored.
    const char* stale[] = {"prog", "--per-event", "--quiet"};
    EXPECT_EXIT(Cli(3, stale, strictFlags()),
                ::testing::ExitedWithCode(1), "unknown flag --per-event");
    const char* bogus[] = {"prog", "--bogus-flag=3"};
    EXPECT_EXIT(Cli(2, bogus, strictFlags()),
                ::testing::ExitedWithCode(1), "unknown flag --bogus-flag");
}

TEST(Cli, NonNumericValueExitsNamingTheFlag)
{
    const char* bad_int[] = {"prog", "--jobs", "four"};
    EXPECT_EXIT(Cli(3, bad_int, strictFlags()),
                ::testing::ExitedWithCode(1), "flag --jobs needs <integer>");
    const char* trailing[] = {"prog", "--jobs=4x"};
    EXPECT_EXIT(Cli(2, trailing, strictFlags()),
                ::testing::ExitedWithCode(1), "flag --jobs");
    const char* bad_real[] = {"prog", "--seconds", "0.1s"};
    EXPECT_EXIT(Cli(3, bad_real, strictFlags()),
                ::testing::ExitedWithCode(1), "flag --seconds needs <number>");
    const char* empty[] = {"prog", "--seconds="};
    EXPECT_EXIT(Cli(2, empty, strictFlags()),
                ::testing::ExitedWithCode(1), "flag --seconds");
}

TEST(Cli, MalformedValuesAndStrayArgumentsExit)
{
    const char* missing[] = {"prog", "--video"};
    EXPECT_EXIT(Cli(2, missing, strictFlags()),
                ::testing::ExitedWithCode(1), "flag --video needs a value");
    const char* flag_as_value[] = {"prog", "--video", "--quiet"};
    EXPECT_EXIT(Cli(3, flag_as_value, strictFlags()),
                ::testing::ExitedWithCode(1), "flag --video needs a value");
    const char* switch_value[] = {"prog", "--quiet=yes"};
    EXPECT_EXIT(Cli(2, switch_value, strictFlags()),
                ::testing::ExitedWithCode(1), "flag --quiet takes no value");
    // A switch never swallows the next token, so a stray value after it
    // is an unexpected positional argument.
    const char* stray[] = {"prog", "--quiet", "3"};
    EXPECT_EXIT(Cli(3, stray, strictFlags()),
                ::testing::ExitedWithCode(1), "unexpected argument '3'");
}

TEST(Cli, HelpIsAcceptedEverywhere)
{
    const char* help[] = {"prog", "--jobs", "2", "--help", "--bogus"};
    EXPECT_EXIT(Cli(5, help, strictFlags()), ::testing::ExitedWithCode(0),
                "");
    const char* help_only[] = {"prog", "--help"};
    EXPECT_EXIT(Cli(2, help_only, {}), ::testing::ExitedWithCode(0), "");
}

TEST(Cli, NegativeAndExponentValuesParse)
{
    const char* argv[] = {"prog", "--jobs", "-1", "--seconds", "1e-1"};
    const Cli cli(5, argv, strictFlags());
    EXPECT_EQ(cli.num("jobs", 0), -1);
    EXPECT_DOUBLE_EQ(cli.real("seconds", 0.0), 0.1);
    EXPECT_FALSE(cli.has("quiet"));
    EXPECT_EQ(cli.str("video", "cat"), "cat");
}

TEST(Cli, ReadingAnUndeclaredFlagIsAProgrammingError)
{
    const char* argv[] = {"prog"};
    const Cli cli(1, argv, strictFlags());
    EXPECT_DEATH(cli.num("seconds", 0), "did not declare");
    EXPECT_DEATH(cli.has("per-event"), "did not declare");
}

} // namespace
} // namespace vtrans

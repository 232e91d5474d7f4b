/**
 * @file
 * bench::Options flag parsing (bench/common.h): malformed values must
 * exit with code 2 and a message naming the flag or variable, never
 * truncate, wrap, read as 0 or be dropped.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "common.h"

namespace widir {
namespace {

/** Parse @p args (after argv[0]) the way a bench main does. */
bench::Options
parse(std::vector<std::string> args, bench::Sizes sizes = {})
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::Options("bench", static_cast<int>(argv.size()),
                          argv.data(), std::move(sizes));
}

TEST(BenchOptions, WellFormedValuesParse)
{
    unsetenv("WIDIR_TRACE_WINDOW");
    bench::Options o =
        parse({"--fault-retries", "4294967295", "--fault-seed",
               "18446744073709551615", "--trace-window", "5:10"});
    EXPECT_EQ(o.spec().fault.retryBudget, 4294967295u);
    EXPECT_EQ(o.spec().fault.seed, 18446744073709551615ull);
    EXPECT_TRUE(o.spec().trace.enabled);
    EXPECT_EQ(o.spec().trace.start, 5u);
    EXPECT_EQ(o.spec().trace.end, 10u);
}

/** One malformed value; @p flag null means WIDIR_TRACE_WINDOW. */
struct BadValue
{
    const char *name; ///< test-name suffix
    const char *flag;
    const char *value;
};

void
PrintTo(const BadValue &b, std::ostream *os)
{
    *os << (b.flag ? b.flag : "WIDIR_TRACE_WINDOW") << ' ' << b.value;
}

class BenchOptionsBadValue : public ::testing::TestWithParam<BadValue>
{
};

TEST_P(BenchOptionsBadValue, ExitsTwoNamingTheFlag)
{
    const BadValue &b = GetParam();
    const std::string named = b.flag ? b.flag : "WIDIR_TRACE_WINDOW";
    EXPECT_EXIT(
        {
            unsetenv("WIDIR_TRACE_WINDOW");
            if (b.flag) {
                parse({b.flag, b.value});
            } else {
                setenv("WIDIR_TRACE_WINDOW", b.value, 1);
                parse({});
            }
            std::exit(0);
        },
        ::testing::ExitedWithCode(2), "invalid " + named + " value");
}

/** Malformed WIDIR_BENCH_SCALE / WIDIR_BENCH_CORES fail like flags. */
TEST(BenchOptions, MalformedSizeEnvironmentExitsTwo)
{
    EXPECT_EXIT(
        {
            setenv("WIDIR_BENCH_SCALE", "1abc", 1);
            parse({});
            std::exit(0);
        },
        ::testing::ExitedWithCode(2),
        "invalid WIDIR_BENCH_SCALE value '1abc'");
    EXPECT_EXIT(
        {
            setenv("WIDIR_BENCH_CORES", "16x", 1);
            parse({});
            std::exit(0);
        },
        ::testing::ExitedWithCode(2),
        "invalid WIDIR_BENCH_CORES value '16x'");
}

TEST(BenchOptions, WellFormedSizeEnvironmentParses)
{
    setenv("WIDIR_BENCH_CORES", "16", 1);
    EXPECT_EQ(parse({}).cores(), 16u);
    unsetenv("WIDIR_BENCH_CORES");
    EXPECT_EQ(parse({}).cores(), 64u);
}

/** --tiles and WIDIR_BENCH_CORES are one knob; the flag wins. */
TEST(BenchOptions, SingleSizeBenchHonoursTiles)
{
    unsetenv("WIDIR_BENCH_CORES");
    EXPECT_EQ(parse({"--tiles", "16"}).cores(), 16u);
    EXPECT_EQ(parse({"--tiles=32"}).cores(), 32u);
    setenv("WIDIR_BENCH_CORES", "8", 1);
    EXPECT_EQ(parse({"--tiles", "16"}).cores(), 16u);
    unsetenv("WIDIR_BENCH_CORES");
    // One size: a second value would be silently dropped, so it exits.
    EXPECT_EXIT(parse({"--tiles", "16", "--tiles", "32"}),
                ::testing::ExitedWithCode(2),
                "--tiles given more than once");
}

TEST(BenchOptions, TileSweepRepeatsAndReplacesItsList)
{
    unsetenv("WIDIR_BENCH_CORES");
    const bench::Sizes sweep{.tiles = {4, 16, 32, 64}};
    EXPECT_EQ(parse({}, sweep).tiles(),
              (std::vector<std::uint32_t>{4, 16, 32, 64}));
    EXPECT_EQ(parse({"--tiles", "64", "--tiles", "256"}, sweep).tiles(),
              (std::vector<std::uint32_t>{64, 256}));
    setenv("WIDIR_BENCH_CORES", "16", 1);
    EXPECT_EQ(parse({}, sweep).tiles(), (std::vector<std::uint32_t>{16}));
    unsetenv("WIDIR_BENCH_CORES");
}

/** A misspelled app exits 2 naming it, never runs a subset. */
TEST(BenchOptions, UnknownAppInEnvironmentExitsTwo)
{
    setenv("WIDIR_BENCH_APPS", " fft ,, barnes,", 1);
    bench::Options o = parse({});
    ASSERT_EQ(o.apps().size(), 2u);
    EXPECT_STREQ(o.apps()[1]->name, "barnes");
    EXPECT_EXIT(
        {
            setenv("WIDIR_BENCH_APPS", "fft,radiostiy", 1);
            parse({});
            std::exit(0);
        },
        ::testing::ExitedWithCode(2),
        "invalid WIDIR_BENCH_APPS value 'fft,radiostiy' "
        "\\(unknown app 'radiostiy'\\)");
    unsetenv("WIDIR_BENCH_APPS");
}

/** Values valid one by one but not together fail before any run. */
TEST(BenchOptions, BadCombinationExitsTwo)
{
    unsetenv("WIDIR_BENCH_CORES");
    EXPECT_EXIT(parse({"--tiles", "64", "--mesh-concentration", "3"}),
                ::testing::ExitedWithCode(2),
                "invalid options: meshConcentration must divide cores");
    EXPECT_EXIT(parse({"--burst", "0.5:0.9:0"}),
                ::testing::ExitedWithCode(2),
                "invalid options: burstExitProb");
}

INSTANTIATE_TEST_SUITE_P(
    Flags, BenchOptionsBadValue,
    ::testing::Values(
        BadValue{"RetriesTrailingGarbage", "--fault-retries", "3abc"},
        BadValue{"RetriesPast32Bits", "--fault-retries", "4294967297"},
        BadValue{"RetriesZero", "--fault-retries", "0"},
        BadValue{"SeedNotANumber", "--fault-seed", "abc"},
        BadValue{"SeedNegative", "--fault-seed", "-1"},
        BadValue{"SeedPast64Bits", "--fault-seed",
                 "18446744073709551616"},
        BadValue{"WindowHiNotANumber", "--trace-window", "0:abc"},
        BadValue{"WindowHiTrailingGarbage", "--trace-window", "5:10x"},
        BadValue{"WindowNoColon", "--trace-window", "5"},
        BadValue{"WindowHiBelowLo", "--trace-window", "10:5"},
        BadValue{"EnvWindowTrailingGarbage", nullptr, "5:10x"}),
    [](const ::testing::TestParamInfo<BadValue> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace widir

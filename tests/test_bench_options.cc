/**
 * @file
 * bench::Options flag parsing (bench/common.h): malformed numeric
 * values must exit with code 2 and a message naming the flag, never
 * truncate, wrap or read as 0.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "common.h"

namespace widir {
namespace {

/** Parse @p args (after argv[0]) the way a bench main does. */
bench::Options
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::Options("bench", static_cast<int>(argv.size()),
                          argv.data());
}

TEST(BenchOptions, WellFormedValuesParse)
{
    unsetenv("WIDIR_TRACE_WINDOW");
    bench::Options o =
        parse({"--fault-retries", "4294967295", "--fault-seed",
               "18446744073709551615", "--trace-window", "5:10"});
    EXPECT_EQ(o.fault().retryBudget, 4294967295u);
    EXPECT_EQ(o.fault().seed, 18446744073709551615ull);
    EXPECT_TRUE(o.traceOn());
    EXPECT_EQ(o.traceStart(), 5u);
    EXPECT_EQ(o.traceEnd(), 10u);
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
            sys::benchScale(4);
            std::exit(0);
        },
        ::testing::ExitedWithCode(2),
        "invalid WIDIR_BENCH_SCALE value '1abc'");
    EXPECT_EXIT(
        {
            setenv("WIDIR_BENCH_CORES", "16x", 1);
            bench::benchCores(64);
            std::exit(0);
        },
        ::testing::ExitedWithCode(2),
        "invalid WIDIR_BENCH_CORES value '16x'");
}

TEST(BenchOptions, WellFormedSizeEnvironmentParses)
{
    setenv("WIDIR_BENCH_CORES", "16", 1);
    EXPECT_EQ(bench::benchCores(64), 16u);
    unsetenv("WIDIR_BENCH_CORES");
    EXPECT_EQ(bench::benchCores(64), 64u);
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

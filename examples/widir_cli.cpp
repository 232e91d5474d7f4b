/**
 * @file
 * widir_cli: command-line driver for single experiments.
 *
 *   $ ./build/examples/widir_cli --app radiosity --protocol widir \
 *         --cores 64 --scale 2 --seed 7 [--max-wired-sharers 3]
 *
 * Prints one self-describing block of every metric the evaluation
 * uses: cycles, instruction counts, MPKI split, memory-stall share,
 * memory-op latencies, hop distribution, wireless activity, collision
 * probability and the energy breakdown. `--list` enumerates the
 * applications.
 */

#include <cstdio>
#include <string>

#include "system/cli.h"
#include "system/experiment.h"

using namespace widir;

int
main(int argc, char **argv)
{
    namespace cli = sys::cli;
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("radiosity");
    spec.protocol = coherence::Protocol::WiDir;
    bool list = false;
    // Same ranges as the bench flags (bench/common.h): --tiles and
    // WIDIR_BENCH_SCALE for the sizes, the topology flags' 4096 for
    // the sharer limit (spec.validate() narrows it).
    cli::parse(
        "widir_cli", "Runs one experiment and prints every metric.",
        {
            {"--app", "NAME", nullptr, "application (default radiosity)",
             [&spec](const char *v) {
                 spec.app = workload::findApp(v);
                 return spec.app ? "" : "unknown app; try --list";
             }},
            {"--protocol", "widir|baseline", nullptr,
             "coherence protocol (default widir)",
             cli::protocol(spec.protocol)},
            {"--cores", "N", nullptr, "tile (core) count (default 64)",
             cli::count(spec.cores, 1, 1'000'000)},
            {"--scale", "N", nullptr, "work multiplier (default 1)",
             cli::count(spec.scale, 1, 1'000'000)},
            {"--seed", "N", nullptr, "simulation seed (default 1)",
             cli::count(spec.seed, 0, UINT64_MAX)},
            {"--max-wired-sharers", "N", nullptr,
             "wired sharers before a line goes wireless (Table VI)",
             cli::count(spec.maxWiredSharers, 0, 4096)},
            {"--list", nullptr, nullptr, "list the applications and exit",
             [&list](const char *) {
                 list = true;
                 return "";
             }},
        },
        argc, argv);

    if (list) {
        for (const auto &a : workload::allApps()) {
            std::printf("%-14s %-9s paper-mpki=%5.2f  %s\n", a.name,
                        a.suite, a.paperMpki, a.pattern);
        }
        return 0;
    }
    if (std::string err = spec.validate(); !err.empty())
        cli::fail("widir_cli", "invalid options: %s", err.c_str());

    auto r = sys::runExperiment(spec);

    std::printf("app                 %s (%s)\n", spec.app->name,
                spec.app->suite);
    std::printf("protocol            %s\n",
                spec.protocol == coherence::Protocol::WiDir
                    ? "WiDir"
                    : "Baseline MESI Dir_3_B");
    std::printf("cores / scale       %u / %u   seed %llu\n", spec.cores,
                spec.scale,
                static_cast<unsigned long long>(spec.seed));
    std::printf("cycles              %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions        %llu (%.2f IPC aggregate)\n",
                static_cast<unsigned long long>(r.instructions),
                r.cycles ? static_cast<double>(r.instructions) /
                               static_cast<double>(r.cycles)
                         : 0.0);
    std::printf("loads / stores      %llu / %llu\n",
                static_cast<unsigned long long>(r.loads),
                static_cast<unsigned long long>(r.stores));
    std::printf("MPKI (rd+wr)        %.2f (%.2f + %.2f)\n", r.mpki(),
                r.readMpki(), r.writeMpki());
    std::printf("memory stall        %.1f%% of core cycles\n",
                100.0 * r.memStallFraction());
    std::printf("mem-op latency sum  loads %llu, stores %llu\n",
                static_cast<unsigned long long>(r.loadLatencySum),
                static_cast<unsigned long long>(r.storeLatencySum));
    std::printf("wired messages      %llu, hops/leg",
                static_cast<unsigned long long>(r.wiredMessages));
    static const char *hop_names[5] = {"0-2", "3-5", "6-8", "9-11",
                                       "12-16"};
    std::uint64_t msgs = 0;
    for (auto c : r.hopBinCounts)
        msgs += c;
    for (std::size_t b = 0; b < r.hopBinCounts.size() && b < 5; ++b) {
        std::printf(" %s:%.0f%%", hop_names[b],
                    msgs ? 100.0 *
                               static_cast<double>(r.hopBinCounts[b]) /
                               static_cast<double>(msgs)
                         : 0.0);
    }
    std::printf("\n");
    if (spec.protocol == coherence::Protocol::WiDir) {
        std::printf("wireless            %llu updates, S->W %llu, "
                    "W->S %llu, coll.prob %.2f%%\n",
                    static_cast<unsigned long long>(r.wirelessWrites),
                    static_cast<unsigned long long>(r.toWireless),
                    static_cast<unsigned long long>(r.toShared),
                    100.0 * r.collisionProbability);
        std::uint64_t upd = 0;
        for (auto c : r.sharersUpdatedBins)
            upd += c;
        static const char *bin_names[5] = {"<=5", "6-10", "11-25",
                                           "26-49", "50+"};
        std::printf("sharers per update ");
        for (std::size_t b = 0;
             b < r.sharersUpdatedBins.size() && b < 5; ++b) {
            std::printf(" %s:%.0f%%", bin_names[b],
                        upd ? 100.0 *
                                  static_cast<double>(
                                      r.sharersUpdatedBins[b]) /
                                  static_cast<double>(upd)
                            : 0.0);
        }
        std::printf("\n");
    }
    double et = r.energy.total();
    std::printf("energy breakdown    core %.0f%%, L1 %.0f%%, "
                "L2+dir %.0f%%, NoC %.0f%%, WNoC %.0f%%\n",
                100 * r.energy.core / et, 100 * r.energy.l1 / et,
                100 * r.energy.l2dir / et, 100 * r.energy.noc / et,
                100 * r.energy.wnoc / et);
    return 0;
}

/**
 * @file
 * Regenerates Fig. 5: histogram of the number of sharers updated by
 * each wireless write in WiDir (bins: <=5, 6-10, 11-25, 26-49, 50+).
 * The paper reports ~36% of updates reach <=5 sharers and ~37% reach
 * 50+ (locks/barriers shared by everyone).
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;


    Options opt("fig5_sharer_histogram", argc, argv);
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    std::vector<std::size_t> idx;
    for (const AppInfo *app : apps)
        idx.push_back(sweep.add(*app, Protocol::WiDir, cores, scale));
    sweep.run();

    banner("Fig. 5: sharers updated per wireless write (WiDir)",
           "Figure 5");
    std::printf("%-14s %8s %8s %8s %8s %8s | %9s\n", "app", "<=5",
                "6-10", "11-25", "26-49", "50+", "updates");

    std::vector<std::uint64_t> total(5, 0);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &r = sweep[idx[i]];
        std::uint64_t updates = 0;
        for (auto c : r.sharersUpdatedBins)
            updates += c;
        std::printf("%-14s", apps[i]->name);
        for (std::size_t b = 0; b < 5 && b < r.sharersUpdatedBins.size();
             ++b) {
            double frac = updates
                ? 100.0 * static_cast<double>(r.sharersUpdatedBins[b]) /
                      static_cast<double>(updates)
                : 0.0;
            total[b] += r.sharersUpdatedBins[b];
            std::printf(" %7.1f%%", frac);
        }
        std::printf(" | %9llu\n",
                    static_cast<unsigned long long>(updates));
    }
    std::uint64_t grand = 0;
    for (auto c : total)
        grand += c;
    std::printf("---\naverage        ");
    for (std::size_t b = 0; b < 5; ++b) {
        std::printf(" %7.1f%%",
                    grand ? 100.0 * static_cast<double>(total[b]) /
                                static_cast<double>(grand)
                          : 0.0);
    }
    std::printf("\n(paper averages: <=5 ~36%%, 50+ ~37%%)\n");
    sweep.writeJson("fig5_sharer_histogram");
    return 0;
}

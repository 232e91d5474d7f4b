/**
 * @file
 * Regenerates Table V: distribution of the number of wired-mesh
 * network hops per message leg in the 64-core Baseline. The paper
 * reports 0-2: 17%, 3-5: 22%, 6-8: 31%, 9-11: 21%, 12-16: 9% -- i.e.
 * more than half of all messages travel at least 6 hops.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;


    Options opt("table5_hops", argc, argv);
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    std::vector<std::size_t> idx;
    for (const AppInfo *app : apps)
        idx.push_back(sweep.add(*app, Protocol::BaselineMESI, cores,
                                scale));
    sweep.run();

    banner("Table V: wired hops per message leg (Baseline, 64 cores)",
           "Table V");
    std::printf("%-14s %8s %8s %8s %8s %8s | %10s\n", "app", "0-2",
                "3-5", "6-8", "9-11", "12-16", "messages");

    std::vector<std::uint64_t> total(5, 0);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &r = sweep[idx[i]];
        std::uint64_t msgs = 0;
        for (auto c : r.hopBinCounts)
            msgs += c;
        std::printf("%-14s", apps[i]->name);
        for (std::size_t b = 0; b < 5 && b < r.hopBinCounts.size();
             ++b) {
            total[b] += r.hopBinCounts[b];
            std::printf(" %7.1f%%",
                        msgs ? 100.0 *
                                   static_cast<double>(r.hopBinCounts[b]) /
                                   static_cast<double>(msgs)
                             : 0.0);
        }
        std::printf(" | %10llu\n",
                    static_cast<unsigned long long>(msgs));
    }
    std::uint64_t grand = 0;
    for (auto c : total)
        grand += c;
    std::printf("---\n%-14s", "all apps");
    for (std::size_t b = 0; b < 5; ++b) {
        std::printf(" %7.1f%%",
                    grand ? 100.0 * static_cast<double>(total[b]) /
                                static_cast<double>(grand)
                          : 0.0);
    }
    std::printf("\n(paper:            17%%     22%%     31%%     21%%"
                "      9%%)\n");
    sweep.writeJson("table5_hops");
    return 0;
}

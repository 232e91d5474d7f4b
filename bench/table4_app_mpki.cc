/**
 * @file
 * Regenerates Table IV: the evaluated applications characterized by
 * their L1 misses-per-kilo-instruction under the Baseline protocol.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;


    Options opt("table4_app_mpki", argc, argv);
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    std::vector<std::size_t> idx;
    for (const AppInfo *app : apps)
        idx.push_back(sweep.add(*app, Protocol::BaselineMESI, cores,
                                scale));
    sweep.run();

    banner("Table IV: application L1 MPKI under Baseline",
           "Table IV");
    std::printf("%-14s %-9s %10s %10s %8s\n", "app", "suite",
                "mpki(sim)", "mpki(ppr)", "cycles");

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &r = sweep[idx[i]];
        std::printf("%-14s %-9s %10.2f %10.2f %8llu\n", apps[i]->name,
                    apps[i]->suite, r.mpki(), apps[i]->paperMpki,
                    static_cast<unsigned long long>(r.cycles));
    }
    sweep.writeJson("table4_app_mpki");
    return 0;
}

/**
 * @file
 * Ablation: the UpdateCount self-invalidation threshold (Section
 * III-B2 -- the design choice DESIGN.md calls out).
 *
 * The threshold decides how long a passive sharer stays in a wireless
 * group while updates stream past it. Too low and active groups churn
 * (self-invalidate + rejoin); too high and stale sharers force every
 * write to keep broadcasting to caches that will never read it, and
 * W->S downgrades become rare. The paper fixes it at a 2-bit counter;
 * this bench sweeps it and reports execution time, wireless updates,
 * self-invalidations and downgrades on a mixed subset of apps.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;

    const std::uint32_t thresholds[] = {2, 3, 4, 8, 16};

    const char *subset[] = {"radiosity", "barnes", "canneal",
                            "ocean-nc", "raytrace"};
    std::vector<const AppInfo *> apps;
    for (const char *name : subset) {
        if (const AppInfo *app = workload::findApp(name))
            apps.push_back(app);
    }

    Options opt("ablation_update_count", argc, argv, {.scale = 2});
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    Sweep sweep(opt);
    std::vector<std::vector<std::size_t>> idx; // [app][threshold]
    for (const AppInfo *app : apps) {
        std::vector<std::size_t> row;
        for (std::uint32_t thr : thresholds)
            row.push_back(sweep.add(*app, Protocol::WiDir, cores,
                                    scale, 3, thr));
        idx.push_back(std::move(row));
    }
    sweep.run();

    banner("Ablation: UpdateCount self-invalidation threshold",
           "Section III-B2 design choice");

    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::printf("\n%s\n", apps[a]->name);
        std::printf("%-10s %10s %10s %10s %10s\n", "threshold",
                    "cycles", "self-inv", "wir.upd", "W->S");
        for (std::size_t t = 0; t < std::size(thresholds); ++t) {
            const auto &r = sweep[idx[a][t]];
            std::printf("%-10u %10llu %10llu %10llu %10llu\n",
                        thresholds[t],
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(
                            r.selfInvalidations),
                        static_cast<unsigned long long>(
                            r.wirelessWrites),
                        static_cast<unsigned long long>(r.toShared));
        }
    }
    std::printf("\n(expected: self-invalidations fall monotonically "
                "with the threshold;\n execution time is flattest "
                "around the paper's 2-bit counter)\n");
    sweep.writeJson("ablation_update_count");
    return 0;
}

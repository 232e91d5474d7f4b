/**
 * @file
 * Regenerates Table VI + Fig. 10 (right): sensitivity of WiDir to the
 * MaxWiredSharers threshold (2, 3, 4, 5) at 64 cores. For each value
 * it reports (i) the average execution-time speedup of WiDir over
 * Baseline and (ii) the wireless-collision probability. The paper
 * reports Sp. 1.22/1.43/1.38/1.31x and collision probabilities
 * 6.93/3.14/2.24/1.70% for MaxWiredSharers = 2/3/4/5: switching
 * earlier puts more lines in wireless mode and collides more;
 * switching later wastes opportunities.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;

    const std::uint32_t thresholds[] = {2, 3, 4, 5};

    Options opt("table6_sensitivity", argc, argv);
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    // Baseline reference per app (independent of the threshold), then
    // one WiDir run per (threshold x app).
    std::vector<std::size_t> bi;
    std::vector<std::vector<std::size_t>> wi;
    for (const AppInfo *app : apps)
        bi.push_back(sweep.add(*app, Protocol::BaselineMESI, cores,
                               scale));
    for (std::uint32_t mws : thresholds) {
        std::vector<std::size_t> row;
        for (const AppInfo *app : apps)
            row.push_back(sweep.add(*app, Protocol::WiDir, cores,
                                    scale, mws));
        wi.push_back(std::move(row));
    }
    sweep.run();

    banner("Table VI: MaxWiredSharers sensitivity (64 cores)",
           "Table VI");

    std::printf("%-16s %12s %12s\n", "MaxWiredSharers", "speedup",
                "coll.prob");
    for (std::size_t t = 0; t < std::size(thresholds); ++t) {
        std::vector<double> speedups;
        double coll_num = 0.0;
        int coll_n = 0;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const auto &r = sweep[wi[t][i]];
            speedups.push_back(
                static_cast<double>(sweep[bi[i]].cycles) /
                static_cast<double>(r.cycles));
            coll_num += r.collisionProbability;
            ++coll_n;
        }
        std::printf("%-16u %11.2fx %11.2f%%\n", thresholds[t],
                    geomean(speedups),
                    100.0 * coll_num / (coll_n ? coll_n : 1));
    }
    std::printf("---\n(paper: 1.22x/6.93%%, 1.43x/3.14%%, "
                "1.38x/2.24%%, 1.31x/1.70%% for 2/3/4/5)\n");
    sweep.writeJson("table6_sensitivity");
    return 0;
}

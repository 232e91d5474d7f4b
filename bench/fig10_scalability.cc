/**
 * @file
 * Regenerates Fig. 10 (left): average execution speedup of WiDir and
 * Baseline as the core count grows (4, 16, 32, 64), relative to the
 * 4-core Baseline. The paper shows the two curves tracking up to 16
 * cores and diverging at 32-64 cores: WiDir is the more scalable
 * protocol.
 *
 * Speedups are computed per app relative to that app's 4-core
 * Baseline run, then averaged (geometric mean). The 4-core Baseline
 * run doubles as the reference, so the whole figure is one sweep of
 * apps x protocols x core counts.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;

    // --tiles replaces the paper's core-count sweep, e.g.
    //   fig10_scalability --tiles 64 --tiles 256 --tiles 1024
    // scales the figure out to the manycore sizes the flat/SoA hot
    // state was built for (docs/PERF.md); the first count is the
    // speedup reference.
    Options opt("fig10_scalability", argc, argv,
                {.tiles = {4, 16, 32, 64}});
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    const std::vector<std::uint32_t> &core_counts = opt.tiles();
    Sweep sweep(opt);
    // bi[c][a] / wi[c][a]: indices per core count x app; the 4-core
    // Baseline row is also the per-app reference.
    std::vector<std::vector<std::size_t>> bi, wi;
    for (std::uint32_t cores : core_counts) {
        std::vector<std::size_t> brow, wrow;
        for (const AppInfo *app : apps) {
            brow.push_back(sweep.add(*app, Protocol::BaselineMESI,
                                     cores, scale));
            wrow.push_back(sweep.add(*app, Protocol::WiDir, cores,
                                     scale));
        }
        bi.push_back(std::move(brow));
        wi.push_back(std::move(wrow));
    }
    sweep.run();

    banner("Fig. 10: speedup over the 4-core Baseline", "Figure 10");

    std::printf("%-8s %14s %14s\n", "cores", "baseline", "widir");
    for (std::size_t c = 0; c < core_counts.size(); ++c) {
        std::vector<double> base_speedups, widir_speedups;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            double ref = static_cast<double>(sweep[bi[0][i]].cycles);
            base_speedups.push_back(
                ref / static_cast<double>(sweep[bi[c][i]].cycles));
            widir_speedups.push_back(
                ref / static_cast<double>(sweep[wi[c][i]].cycles));
        }
        std::printf("%-8u %14.2f %14.2f\n", core_counts[c],
                    geomean(base_speedups), geomean(widir_speedups));
    }
    std::printf("---\n(paper: curves overlap through 16 cores, then "
                "WiDir pulls ahead at 32-64)\n");
    sweep.writeJson("fig10_scalability");
    // Host footprint for the whole sweep; tools/perf_check.sh --rss
    // compares this across tile counts (separate processes) to gate
    // super-linear growth.
    std::printf("host_peak_rss_kb %llu\n",
                static_cast<unsigned long long>(hostPeakRssKb()));
    return 0;
}

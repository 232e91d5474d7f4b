/**
 * @file
 * Regenerates Fig. 8: execution time of WiDir normalized to Baseline
 * for 64-, 32- and 16-core runs, with each bar split into memory-stall
 * cycles and the rest. The paper reports average execution-time
 * reductions of ~22% (64 cores), ~11% (32) and ~4% (16), and an
 * average Baseline memory-stall share near 65% at 64 cores.
 * --tiles (or WIDIR_BENCH_CORES) replaces the three core counts.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;

    Options opt("fig8_exec_time", argc, argv, {.tiles = {64, 32, 16}});
    std::uint32_t scale = opt.scale();
    const std::vector<std::uint32_t> &core_counts = opt.tiles();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    // bi[c][a] / wi[c][a]: indices per core count x app.
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

    banner("Fig. 8: normalized execution time (memory stall + rest)",
           "Figure 8 (a,b,c)");

    for (std::size_t c = 0; c < core_counts.size(); ++c) {
        std::printf("\n--- %u cores ---\n", core_counts[c]);
        std::printf("%-14s %10s %7s | %10s %7s | %8s\n", "app",
                    "base.cyc", "stall%", "widir.cyc", "stall%",
                    "norm");
        std::vector<double> ratios;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const auto &base = sweep[bi[c][i]];
            const auto &widir = sweep[wi[c][i]];
            double norm = base.cycles
                ? static_cast<double>(widir.cycles) /
                      static_cast<double>(base.cycles)
                : 1.0;
            ratios.push_back(norm);
            std::printf("%-14s %10llu %6.1f%% | %10llu %6.1f%% |"
                        " %8.3f\n",
                        apps[i]->name,
                        static_cast<unsigned long long>(base.cycles),
                        100.0 * base.memStallFraction(),
                        static_cast<unsigned long long>(widir.cycles),
                        100.0 * widir.memStallFraction(), norm);
        }
        std::printf("average normalized time at %u cores: %.3f\n",
                    core_counts[c], mean(ratios));
    }
    std::printf("---\n(paper averages: 0.78 at 64, 0.89 at 32, "
                "0.96 at 16 cores)\n");
    sweep.writeJson("fig8_exec_time");
    return 0;
}

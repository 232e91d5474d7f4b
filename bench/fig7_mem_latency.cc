/**
 * @file
 * Regenerates Fig. 7: overall latency of memory operations (cycles
 * from ROB entry to ROB retirement, summed over all loads and all
 * stores) in WiDir and Baseline, normalized to Baseline. The paper
 * reports an average total-latency reduction of ~35%.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;


    Options opt("fig7_mem_latency", argc, argv);
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    std::vector<std::size_t> bi, wi;
    for (const AppInfo *app : apps) {
        bi.push_back(sweep.add(*app, Protocol::BaselineMESI, cores,
                               scale));
        wi.push_back(sweep.add(*app, Protocol::WiDir, cores, scale));
    }
    sweep.run();

    banner("Fig. 7: normalized total memory-op latency (loads+stores)",
           "Figure 7");
    std::printf("%-14s %12s %12s %12s %12s | %8s\n", "app", "base.ld",
                "base.st", "widir.ld", "widir.st", "norm");

    std::vector<double> ratios;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &base = sweep[bi[i]];
        const auto &widir = sweep[wi[i]];
        double base_total = static_cast<double>(base.loadLatencySum +
                                                base.storeLatencySum);
        double widir_total = static_cast<double>(widir.loadLatencySum +
                                                 widir.storeLatencySum);
        double norm = base_total > 0.0 ? widir_total / base_total : 1.0;
        ratios.push_back(norm);
        std::printf("%-14s %12llu %12llu %12llu %12llu | %8.3f\n",
                    apps[i]->name,
                    static_cast<unsigned long long>(base.loadLatencySum),
                    static_cast<unsigned long long>(base.storeLatencySum),
                    static_cast<unsigned long long>(widir.loadLatencySum),
                    static_cast<unsigned long long>(widir.storeLatencySum),
                    norm);
    }
    std::printf("---\naverage normalized memory latency: %.3f "
                "(paper: ~0.65, i.e. 35%% lower)\n",
                mean(ratios));
    sweep.writeJson("fig7_mem_latency");
    return 0;
}

/**
 * @file
 * Regenerates Fig. 6: L1 misses-per-kilo-instruction of WiDir and
 * Baseline, normalized to Baseline, split into read and write misses.
 * The paper reports an average MPKI reduction of ~15%.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;


    Options opt("fig6_mpki", argc, argv);
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    std::vector<std::size_t> bi, wi;
    for (const AppInfo *app : apps) {
        bi.push_back(sweep.add(*app, Protocol::BaselineMESI, cores, scale));
        wi.push_back(sweep.add(*app, Protocol::WiDir, cores, scale));
    }
    sweep.run();

    banner("Fig. 6: normalized MPKI (read + write), WiDir vs Baseline",
           "Figure 6");
    std::printf("%-14s %8s %8s | %8s %8s | %10s\n", "app", "base.rd",
                "base.wr", "widir.rd", "widir.wr", "norm.total");

    std::vector<double> ratios;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &base = sweep[bi[i]];
        const auto &widir = sweep[wi[i]];
        double norm = base.mpki() > 0.0 ? widir.mpki() / base.mpki()
                                        : 1.0;
        ratios.push_back(norm);
        std::printf("%-14s %8.2f %8.2f | %8.2f %8.2f | %10.3f\n",
                    apps[i]->name, base.readMpki(), base.writeMpki(),
                    widir.readMpki(), widir.writeMpki(), norm);
    }
    std::printf("---\naverage normalized MPKI: %.3f  "
                "(paper: ~0.85, i.e. 15%% lower than Baseline)\n",
                mean(ratios));
    sweep.writeJson("fig6_mpki");
    return 0;
}

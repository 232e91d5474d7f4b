/**
 * @file
 * Regenerates Fig. 9: energy consumed by WiDir and Baseline,
 * normalized to Baseline, broken into core / L1 / L2+directory /
 * wired NoC / WNoC. The paper reports ~21% lower energy for WiDir on
 * average, with the WNoC contributing ~5.9% of WiDir's energy, and a
 * Baseline split near 60% core / 5% L1 / 20% L2+dir / 15% NoC.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;


    Options opt("fig9_energy", argc, argv);
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

    banner("Fig. 9: normalized energy breakdown", "Figure 9");
    std::printf("%-14s | %-31s | %-37s | %6s\n", "app",
                "baseline shares (co/l1/l2/noc)",
                "widir shares (co/l1/l2/noc/wnoc)", "norm");

    std::vector<double> ratios;
    double base_share[4] = {0, 0, 0, 0};
    double widir_wnoc_share = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &base = sweep[bi[i]];
        const auto &widir = sweep[wi[i]];
        double bt = base.energy.total();
        double wt = widir.energy.total();
        double norm = bt > 0.0 ? wt / bt : 1.0;
        ratios.push_back(norm);
        base_share[0] += base.energy.core / bt;
        base_share[1] += base.energy.l1 / bt;
        base_share[2] += base.energy.l2dir / bt;
        base_share[3] += base.energy.noc / bt;
        widir_wnoc_share += widir.energy.wnoc / wt;
        ++n;
        std::printf("%-14s | %5.1f%% %5.1f%% %5.1f%% %5.1f%%      | "
                    "%5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% | %6.3f\n",
                    apps[i]->name, 100 * base.energy.core / bt,
                    100 * base.energy.l1 / bt,
                    100 * base.energy.l2dir / bt,
                    100 * base.energy.noc / bt,
                    100 * widir.energy.core / wt,
                    100 * widir.energy.l1 / wt,
                    100 * widir.energy.l2dir / wt,
                    100 * widir.energy.noc / wt,
                    100 * widir.energy.wnoc / wt, norm);
    }
    std::printf("---\naverage normalized energy: %.3f "
                "(paper ~0.79);  baseline shares core/l1/l2/noc = "
                "%.0f/%.0f/%.0f/%.0f%% (paper ~60/5/20/15);  "
                "WNoC share of WiDir: %.1f%% (paper ~5.9%%)\n",
                mean(ratios), 100 * base_share[0] / n,
                100 * base_share[1] / n, 100 * base_share[2] / n,
                100 * base_share[3] / n, 100 * widir_wnoc_share / n);
    sweep.writeJson("fig9_energy");
    return 0;
}

/**
 * @file
 * Regenerates the Section II-C motivation measurements:
 *
 *  (i)  "if writes updated rather than invalidated, how many sharers
 *       would a line accumulate before leaving the LLC?" -- the paper
 *       measures an average of ~21 sharers on its 64-core machine;
 *  (ii) "what fraction of the sharers invalidated by a write re-read
 *       the line afterwards?" -- the paper measures ~56%.
 *
 * We approximate both on the Baseline protocol: (i) by counting the
 * distinct requesters a resident line accumulates under WiDir (update
 * semantics keep sharers alive, which is what the W state does), and
 * (ii) by watching, in the Baseline run, how many invalidated sharers
 * come back with a GetS before the next write.
 *
 * Implementation note: rather than instrument the controllers with a
 * bespoke tracking mode, we reuse measurable proxies: for (i) the
 * Fig. 5 sharers-updated histogram's mean (sharer group size under
 * update semantics), and for (ii) the ratio of read misses that hit
 * lines written by another core since the reader's last access --
 * approximated by coherence read misses / invalidations received.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;


    Options opt("motivation_sharing", argc, argv);
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();
    const auto &apps = opt.apps();
    Sweep sweep(opt);
    std::vector<std::size_t> wi, bi;
    for (const AppInfo *app : apps) {
        wi.push_back(sweep.add(*app, Protocol::WiDir, cores, scale));
        bi.push_back(sweep.add(*app, Protocol::BaselineMESI, cores,
                               scale));
    }
    sweep.run();

    banner("Section II-C motivation: sharer accumulation & re-reads",
           "Section II-C");
    std::printf("%-14s %18s %18s\n", "app", "avg sharers (upd)",
                "re-read fraction");

    double sharer_sum = 0.0;
    double reread_sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        // (i) group size under update semantics: WiDir's W state.
        const auto &widir = sweep[wi[i]];
        double weighted = 0.0;
        std::uint64_t updates = 0;
        static const double mid[5] = {3, 8, 18, 37, 56};
        for (std::size_t b = 0;
             b < widir.sharersUpdatedBins.size() && b < 5; ++b) {
            weighted += mid[b] *
                        static_cast<double>(widir.sharersUpdatedBins[b]);
            updates += widir.sharersUpdatedBins[b];
        }
        double avg_sharers =
            updates ? weighted / static_cast<double>(updates) : 0.0;

        // (ii) re-read fraction in the Baseline: how many of the
        // coherence (invalidation-caused) misses are reads.
        const auto &base = sweep[bi[i]];
        double rereads = base.readMisses + base.writeMisses > 0
            ? static_cast<double>(base.readMisses) /
                  static_cast<double>(base.readMisses +
                                      base.writeMisses)
            : 0.0;

        if (updates > 0) {
            sharer_sum += avg_sharers;
            reread_sum += rereads;
            ++n;
        }
        std::printf("%-14s %18.1f %17.1f%%\n", apps[i]->name,
                    avg_sharers, 100.0 * rereads);
    }
    if (n) {
        std::printf("---\naverages: %.1f sharers (paper ~21), "
                    "%.0f%% re-read (paper ~56%%)\n", sharer_sum / n,
                    100.0 * reread_sum / n);
    }
    sweep.writeJson("motivation_sharing");
    return 0;
}

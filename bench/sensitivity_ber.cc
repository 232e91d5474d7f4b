/**
 * @file
 * BER sensitivity of WiDir under wireless fault injection
 * (docs/FAULTS.md). The paper assumes a raw wireless BER of 1e-15 --
 * effectively error-free at on-chip frame sizes (Section V-A cites the
 * transceiver literature) -- so faults are not part of its evaluation;
 * this bench asks the follow-on question: how gracefully does the
 * protocol degrade when the channel is worse than designed for?
 *
 * For each app we sweep the frame bit-error rate (default decades
 * 1e-6..1e-3, or the --ber list) on top of any other fault flags, plus
 * a clean BER=0 reference row, and report execution time normalized to
 * that reference together with the resilience counters: frame CRC
 * errors, retries, budget-exhausted drops, and wired fallbacks.
 */

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace widir;
    using namespace widir::bench;

    Options opt("sensitivity_ber", argc, argv, {.scale = 2});
    std::uint32_t cores = opt.cores();
    std::uint32_t scale = opt.scale();

    std::vector<double> bers = opt.berList();
    if (bers.empty())
        bers = {1e-6, 1e-5, 1e-4, 1e-3};
    bers.insert(bers.begin(), 0.0); // clean reference row

    const auto &apps = opt.apps();
    Sweep sweep(opt);
    // rows[b][a]: result index per BER x app.
    std::vector<std::vector<std::size_t>> rows;
    for (double ber : bers) {
        std::vector<std::size_t> row;
        for (const AppInfo *app : apps) {
            ExperimentSpec spec = opt.spec();
            spec.app = app;
            spec.protocol = Protocol::WiDir;
            spec.fault.ber = ber;
            row.push_back(sweep.addSpec(std::move(spec)));
        }
        rows.push_back(std::move(row));
    }
    sweep.run();

    banner("BER sensitivity: WiDir under wireless fault injection",
           "the Section V-A error-free-channel assumption");

    std::printf("%u cores, scale %u, retry budget %u\n\n", cores, scale,
                opt.spec().fault.retryBudget);
    std::printf("%10s %9s %12s %10s %8s %10s %10s\n", "BER",
                "norm.time", "crcErrors", "retries", "drops",
                "fallbacks", "toneRetry");
    for (std::size_t b = 0; b < bers.size(); ++b) {
        std::vector<double> ratios;
        std::uint64_t crc = 0, retries = 0, drops = 0, fallbacks = 0,
                      tone = 0;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const auto &clean = sweep[rows[0][a]];
            const auto &r = sweep[rows[b][a]];
            ratios.push_back(clean.cycles
                                 ? static_cast<double>(r.cycles) /
                                       static_cast<double>(clean.cycles)
                                 : 1.0);
            crc += r.frameCrcErrors;
            retries += r.faultRetries;
            drops += r.frameFaultDrops;
            fallbacks += r.wirelessFallbacks;
            tone += r.toneRetries;
        }
        std::printf("%10.1e %9.3f %12llu %10llu %8llu %10llu %10llu\n",
                    bers[b], geomean(ratios),
                    static_cast<unsigned long long>(crc),
                    static_cast<unsigned long long>(retries),
                    static_cast<unsigned long long>(drops),
                    static_cast<unsigned long long>(fallbacks),
                    static_cast<unsigned long long>(tone));
    }
    std::printf("---\n(norm.time is the geomean over %zu apps, "
                "normalized per app to the BER=0 row)\n",
                apps.size());
    sweep.writeJson("sensitivity_ber");
    return 0;
}

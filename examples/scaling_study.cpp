/**
 * @file
 * Scenario: protocol scalability study (a miniature of Fig. 10).
 *
 * Runs one of the paper's application analogs across machine sizes
 * and prints absolute cycles and the WiDir:Baseline ratio per size.
 * Usage:
 *
 *   $ ./build/examples/scaling_study [app-name]   (default: radiosity)
 *
 * Expected behaviour per the paper: at small core counts the wired
 * mesh is cheap and few lines have enough sharers to go wireless, so
 * the two protocols track; as the machine grows, WiDir pulls ahead.
 */

#include <cstdio>
#include <cstring>

#include "system/cli.h"
#include "system/experiment.h"

using namespace widir;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "radiosity";
    const workload::AppInfo *app = workload::findApp(name);
    if (!app) {
        std::fprintf(stderr, "unknown app '%s'; known apps:\n", name);
        for (const auto &a : workload::allApps())
            std::fprintf(stderr, "  %s\n", a.name);
        return 1;
    }

    // The app name is positional; the only table row is the
    // environment's work multiplier.
    std::uint32_t scale = 2;
    sys::cli::parse("scaling_study", "Fig. 10 in miniature for one app.",
                    {{nullptr, "N", "WIDIR_BENCH_SCALE",
                      "work multiplier (default 2)",
                      sys::cli::count(scale, 1, 1'000'000)}},
                    1, argv);

    std::printf("Scaling study: %s (%s)\n  pattern: %s\n\n", app->name,
                app->suite, app->pattern);
    std::printf("%-8s %14s %14s %10s\n", "cores", "baseline.cyc",
                "widir.cyc", "ratio");

    for (std::uint32_t cores : {4u, 8u, 16u, 32u, 64u}) {
        sys::ExperimentSpec spec;
        spec.app = app;
        spec.cores = cores;
        spec.scale = scale;

        spec.protocol = coherence::Protocol::BaselineMESI;
        auto base = sys::runExperiment(spec);
        spec.protocol = coherence::Protocol::WiDir;
        auto widir = sys::runExperiment(spec);

        std::printf("%-8u %14llu %14llu %10.3f\n", cores,
                    static_cast<unsigned long long>(base.cycles),
                    static_cast<unsigned long long>(widir.cycles),
                    static_cast<double>(widir.cycles) /
                        static_cast<double>(base.cycles));
    }
    return 0;
}

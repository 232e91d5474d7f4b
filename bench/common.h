/**
 * @file
 * Shared helpers for the experiment benches (bench/fig*_* and
 * bench/table*_*). Each bench binary regenerates one table or figure
 * of the paper: it collects the relevant (app x protocol x cores)
 * configurations, runs them concurrently through sys::SweepRunner
 * (results are bit-identical to serial runs), prints the same rows or
 * series the paper reports, and dumps every ExperimentResult to
 * bench/out/<name>.json (widir-sweep-v1 schema, see
 * src/system/report.h) so the perf trajectory is machine-readable.
 *
 * Every bench accepts the same flags and environment knobs, one
 * table in bench::Options parsed by sys::cli (src/system/cli.h);
 * `<bench> --help` prints both.
 */

#ifndef WIDIR_BENCH_COMMON_H
#define WIDIR_BENCH_COMMON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "system/cli.h"
#include "system/experiment.h"
#include "system/report.h"
#include "system/sweep.h"
#include "workload/registry.h"

namespace widir::bench {

using coherence::Protocol;
using sys::ExperimentResult;
using sys::ExperimentSpec;
using workload::AppInfo;

/**
 * A bench's sizes when neither a flag nor the environment picks them.
 * With more than one tile count the bench sweeps tile counts: --tiles
 * may repeat and its values replace the list. Otherwise the bench runs
 * one size and --tiles takes exactly one value.
 */
struct Sizes
{
    std::uint32_t scale = 4;
    std::vector<std::uint32_t> tiles = {64};
};

/**
 * The command line and environment of one bench binary: the sweep
 * controls (jobs, sizes, apps, output paths) plus spec(), the overlay
 * every queued configuration starts from (tracing, fault injection,
 * topology). Every flag and knob is one row of a sys::cli table (the
 * same table prints --help); any bad input exits 2 while parsing.
 */
class Options
{
  public:
    Options(const char *bench_name, int argc, char **argv,
            Sizes sizes = {})
        : name_(bench_name)
    {
        namespace cli = sys::cli;
        fault::FaultSpec &fault = spec_.fault;
        const bool tile_sweep = sizes.tiles.size() > 1;
        spec_.scale = sizes.scale;
        cli::parse(
            name_.c_str(), "Regenerates one experiment of the WiDir paper.",
            {
                {"--jobs", "N", "WIDIR_BENCH_JOBS",
                 "worker threads for the sweep (default: all hardware "
                 "threads)",
                 cli::count(jobs_, 1, 4096)},
                {"--trace", nullptr, "WIDIR_TRACE",
                 "capture + export a protocol trace per configuration",
                 [this](const char *) {
                     spec_.trace.enabled = true;
                     return std::string();
                 }},
                {"--trace-window", "LO:HI", "WIDIR_TRACE_WINDOW",
                 "restrict tracing to a cycle window (implies --trace)",
                 [this](const char *v) { return setWindow(v); }},
                {"--ber", "B", nullptr,
                 "wireless frame bit-error rate (repeatable)",
                 cli::probability(bers_), true},
                {"--preamble-loss", "P", nullptr,
                 "per-frame preamble-loss probability",
                 cli::probability(fault.preambleLossProb)},
                {"--tone-loss", "P", nullptr,
                 "per-observation tone-pulse-loss probability",
                 cli::probability(fault.toneLossProb)},
                {"--burst", "B:ENTER[:EXIT]", nullptr,
                 "Gilbert-Elliott burst noise: BER in the burst state "
                 "plus enter/exit probabilities",
                 [this](const char *v) { return setBurst(v); }},
                {"--fault-retries", "N", nullptr,
                 "per-transmission retry budget before wired fallback",
                 cli::count(fault.retryBudget, 1, UINT32_MAX)},
                {"--fault-seed", "N", nullptr,
                 "extra seed folded into the fault RNG stream",
                 cli::count(fault.seed, 0, UINT64_MAX)},
                {"--tiles", "N", "WIDIR_BENCH_CORES",
                 tile_sweep ? "tile (core) count; repeatable, replaces "
                              "the bench's list"
                            : "tile (core) count",
                 cli::count(tiles_, 1, 1'000'000), tile_sweep},
                {"--mesh-concentration", "C", nullptr,
                 "tiles per mesh router (concentrated mesh; must "
                 "divide the tile count)",
                 cli::count(spec_.meshConcentration, 1, 4096)},
                {"--wireless-channels", "N", nullptr,
                 "frequency-multiplexed wireless data sub-channels",
                 cli::count(spec_.wirelessChannels, 1, 4096)},
                {"--home-map", "interleave|hash", nullptr,
                 "directory-bank sharding policy",
                 cli::oneOf(spec_.homeMap,
                            {{"interleave", mem::HomeMap::Interleave},
                             {"hash", mem::HomeMap::Hash}})},
                {"--record", "DIR", nullptr,
                 "record a widir-mtrace-v1 trace per configuration "
                 "into DIR (docs/FRONTEND.md)",
                 cli::text(recordDir_)},
                {"--trace-in", "FILE", nullptr,
                 "register FILE (mtrace or text format) as workload "
                 "'trace:<stem>'; it runs when WIDIR_BENCH_APPS is unset",
                 [this](const char *v) { return setTraceIn(v); }},
                {nullptr, "N", "WIDIR_BENCH_SCALE",
                 "work multiplier (default per bench)",
                 cli::count(spec_.scale, 1, 1'000'000)},
                {nullptr, "A,B,...", "WIDIR_BENCH_APPS",
                 "comma-separated subset of app names (default: all)",
                 [this](const char *v) { return setApps(v); }},
                {nullptr, "DIR", "WIDIR_BENCH_OUT",
                 "JSON and Chrome trace output directory (default "
                 "bench/out)",
                 [this](const char *v) {
                     if (*v)
                         outDir_ = v;
                     return std::string();
                 }},
            },
            argc, argv);

        if (tiles_.empty())
            tiles_ = sizes.tiles;
        if (!bers_.empty())
            fault.ber = bers_.back();
        if (apps_.empty() && traceApp_ != nullptr)
            apps_.push_back(traceApp_);
        if (apps_.empty()) {
            for (const auto &app : workload::allApps())
                apps_.push_back(&app);
        }
        spec_.cores = tiles_.front();
        // Reject a bad combination (a mesh concentration that does not
        // divide a tile count, ...) here, before any run starts.
        for (std::uint32_t tiles : tiles_) {
            ExperimentSpec probe = spec_;
            probe.app = apps_.front();
            probe.cores = tiles;
            if (std::string err = probe.validate(); !err.empty())
                cli::fail(name_.c_str(), "invalid options: %s",
                          err.c_str());
        }
    }

    const std::string &name() const { return name_; }
    /** Worker threads; 0 lets SweepRunner pick sys::defaultJobs(). */
    unsigned jobs() const { return jobs_; }

    /** The overlay every queued spec starts from (Sweep::add). */
    const ExperimentSpec &spec() const { return spec_; }

    /** Work multiplier and, for a single-size bench, its tile count. */
    std::uint32_t scale() const { return spec_.scale; }
    std::uint32_t cores() const { return spec_.cores; }

    /** Tile counts of a tile-sweeping bench (Sizes). */
    const std::vector<std::uint32_t> &tiles() const { return tiles_; }

    /** Every --ber value, in order (sensitivity_ber sweeps these). */
    const std::vector<double> &berList() const { return bers_; }

    /** Apps to run: the WIDIR_BENCH_APPS subset, else all. */
    const std::vector<const AppInfo *> &apps() const { return apps_; }

    /** Trace output directory; empty when --record was not given. */
    const std::string &recordDir() const { return recordDir_; }
    /** JSON and Chrome trace directory (WIDIR_BENCH_OUT). */
    const std::string &outDir() const { return outDir_; }

  private:
    std::string
    setWindow(const char *v)
    {
        const char *colon = std::strchr(v, ':');
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        if (colon == nullptr ||
            !sys::cli::parseUint(std::string(v, colon).c_str(), 0,
                                 UINT64_MAX, lo) ||
            !sys::cli::parseUint(colon + 1, lo, UINT64_MAX, hi))
            return "want LO:HI cycles, LO <= HI";
        spec_.trace.enabled = true;
        spec_.trace.start = lo;
        spec_.trace.end = hi;
        return "";
    }

    std::string
    setBurst(const char *v)
    {
        // B:ENTER[:EXIT]; EXIT keeps its FaultSpec default if omitted.
        fault::FaultSpec &f = spec_.fault;
        std::string s(v);
        std::size_t c1 = s.find(':');
        std::size_t c2 = s.find(':', c1 + 1);
        auto prob = [](const std::string &text, double &out) {
            return sys::cli::parseProbability(text.c_str(), out);
        };
        if (c1 == std::string::npos ||
            !prob(s.substr(0, c1), f.burstBer) ||
            !prob(s.substr(c1 + 1, c2 - c1 - 1), f.burstEnterProb) ||
            (c2 != std::string::npos &&
             !prob(s.substr(c2 + 1), f.burstExitProb)))
            return "want B:ENTER[:EXIT] probabilities";
        return "";
    }

    /**
     * --trace-in makes the external trace a first-class workload,
     * "trace:<stem>", so any bench runs it through its standard sweep.
     */
    std::string
    setTraceIn(const char *v)
    {
        if (!*v)
            return "want a file";
        std::string stem = v;
        if (std::size_t slash = stem.find_last_of('/');
            slash != std::string::npos)
            stem.erase(0, slash + 1);
        if (std::size_t dot = stem.find_last_of('.');
            dot != std::string::npos && dot > 0)
            stem.erase(dot);
        traceApp_ = workload::registerTraceApp("trace:" + stem, v);
        return "";
    }

    /** Comma list; blanks around names and empty items are ignored. */
    std::string
    setApps(const char *v)
    {
        std::istringstream list(v);
        std::string name;
        while (std::getline(list, name, ',')) {
            std::size_t b = name.find_first_not_of(" \t");
            if (b == std::string::npos)
                continue;
            name = name.substr(b, name.find_last_not_of(" \t") - b + 1);
            const AppInfo *app = workload::findApp(name);
            if (app == nullptr)
                return "unknown app '" + name + "'";
            apps_.push_back(app);
        }
        return "";
    }

    std::string name_;
    unsigned jobs_ = 0;
    ExperimentSpec spec_;
    std::vector<std::uint32_t> tiles_;
    std::vector<double> bers_;
    std::vector<const AppInfo *> apps_;
    const AppInfo *traceApp_ = nullptr;
    std::string recordDir_;
    std::string outDir_ = "bench/out";
};

/**
 * The bench pattern: phase 1 add()s every configuration (remembering
 * the returned index), run() executes them all on the thread pool,
 * then the printing code reads results back by index -- identical to
 * the old serial run-as-you-print flow, just batched.
 *
 * Every spec starts from the Options overlay, so a single --ber flag
 * faults the whole sweep.
 */
class Sweep
{
  public:
    explicit Sweep(const Options &opt) : opt_(opt), runner_(opt.jobs()) {}

    /** Queue one configuration; returns its result index. */
    std::size_t
    add(const AppInfo &app, Protocol proto, std::uint32_t cores,
        std::uint32_t scale, std::uint32_t max_wired_sharers = 3,
        std::uint32_t update_count_threshold = 0)
    {
        ExperimentSpec spec = opt_.spec();
        spec.app = &app;
        spec.protocol = proto;
        spec.cores = cores;
        spec.scale = scale;
        spec.maxWiredSharers = max_wired_sharers;
        spec.updateCountThreshold = update_count_threshold;
        return addSpec(std::move(spec));
    }

    /**
     * Queue @p spec as given (start it from Options::spec() to keep
     * the sweep-wide flags), adding its --record and --trace output
     * paths.
     */
    std::size_t
    addSpec(ExperimentSpec spec)
    {
        char tag[64];
        std::snprintf(tag, sizeof(tag), "%zu_%s_%s_%uc", specs_.size(),
                      spec.app ? spec.app->name : "?",
                      spec.protocol == Protocol::WiDir ? "widir"
                                                       : "baseline",
                      spec.cores);
        // A trace app has nothing to record.
        if (!opt_.recordDir().empty() && spec.recordPath.empty() &&
            spec.replayPath.empty() && spec.app != nullptr &&
            spec.app->traceSource == nullptr)
            spec.recordPath = opt_.recordDir() + "/" + tag + ".mtrace";
        if (spec.trace.enabled)
            spec.trace.file = opt_.outDir() + "/" + opt_.name() + "." +
                              tag + ".trace.json";
        specs_.push_back(std::move(spec));
        return specs_.size() - 1;
    }

    /** Run every queued spec (in parallel, results in add() order). */
    void
    run()
    {
        results_ = runner_.run(specs_);
        if (opt_.spec().trace.enabled)
            std::printf("[%zu Chrome traces -> %s/%s.*.trace.json]\n",
                        specs_.size(), opt_.outDir().c_str(),
                        opt_.name().c_str());
    }

    const ExperimentResult &
    operator[](std::size_t i) const
    {
        return results_.at(i);
    }

    const std::vector<ExperimentResult> &results() const
    {
        return results_;
    }

    std::size_t size() const { return specs_.size(); }
    unsigned jobs() const { return runner_.jobs(); }

    /**
     * Dump every result to <WIDIR_BENCH_OUT|bench/out>/<name>.json
     * and report where it went.
     */
    void
    writeJson(const char *bench_name) const
    {
        std::string path = opt_.outDir() + "/" + bench_name + ".json";
        if (sys::writeResultsJson(path, bench_name, results_))
            std::printf("[%zu results -> %s]\n", results_.size(),
                        path.c_str());
    }

  private:
    Options opt_;
    sys::SweepRunner runner_;
    std::vector<ExperimentSpec> specs_;
    std::vector<ExperimentResult> results_;
};

/** Header banner naming the experiment being regenerated. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n  (reproduces %s of the WiDir paper, HPCA 2021)\n",
                what, paper_ref);
    std::printf("==============================================="
                "=====================\n");
}

/** Geometric mean helper for normalized ratios. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/**
 * Peak resident set of this process in KiB (Linux VmHWM), 0 when
 * unknown. The scale-out benches print it as `host_peak_rss_kb N` so
 * tools/perf_check.sh --rss can gate footprint growth without needing
 * GNU time on the host (docs/PERF.md). A host-side figure like the
 * host_* JSON fields: never part of the widir-sweep-v1 stats.
 */
inline std::uint64_t
hostPeakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    std::uint64_t kb = 0;
    char line[128];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %llu",
                        reinterpret_cast<unsigned long long *>(&kb)) ==
            1)
            break;
    }
    std::fclose(f);
    return kb;
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

} // namespace widir::bench

#endif // WIDIR_BENCH_COMMON_H

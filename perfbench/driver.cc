/**
 * @file
 * perfbench: the repository's end-to-end + per-layer benchmark driver.
 *
 * One process runs one workload's experiments serially, pass after
 * pass, until the measuring window closes. Each experiment calls the
 * simulator's public layer functions directly, in the order
 * sys::runExperiment does, and times every call from outside:
 *
 *   SystemConfig -> Manycore ctor -> tracer sinks -> makeProgram ->
 *   Manycore::run -> checkCoherence -> [checkTraceLegality ->
 *   ChromeTraceWriter::write] -> totals + computeEnergy ->
 *   resultToJson -> Manycore dtor
 *
 * The deterministic per-layer counts are read from the public getters
 * after the run. `--selftest` proves this direct-drive path produces
 * the same widir-sweep-v1 record as sys::runExperiment (host_* lines
 * aside) for every workload leg.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --scratch DIR [--spans FILE]
 *   perfbench --selftest --scratch DIR [--seed N]...
 *
 * The last stdout line is the result object read by perfbench/run.py.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "system/checker.h"
#include "system/experiment.h"
#include "system/manycore.h"
#include "system/report.h"
#include "system/trace_sinks.h"
#include "workload/registry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace widir;
using Clock = std::chrono::steady_clock;
using coherence::Protocol;

// ---------------------------------------------------------------- workloads

struct Leg
{
    const char *app;
    Protocol protocol;
};

/**
 * A workload: a fixed list of experiments on one machine size. The
 * reasons for each choice are recorded in perfbench/README.md.
 */
struct Workload
{
    const char *name;
    std::uint32_t cores;
    std::uint32_t scale;
    bool protocolTrace; ///< ring + strict legality + Chrome export
    std::vector<Leg> legs;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> kAll = {
        {"share-64", 64, 8, false,
         {{"radiosity", Protocol::BaselineMESI},
          {"radiosity", Protocol::WiDir},
          {"kvstore", Protocol::BaselineMESI},
          {"kvstore", Protocol::WiDir}}},
        {"private-64", 64, 16, false,
         {{"blackscholes", Protocol::BaselineMESI},
          {"blackscholes", Protocol::WiDir},
          {"freqmine", Protocol::BaselineMESI},
          {"freqmine", Protocol::WiDir}}},
        {"scale-1024", 1024, 1, false,
         {{"radiosity", Protocol::WiDir}, {"kvstore", Protocol::WiDir}}},
        {"trace-64", 64, 1, true, {{"radiosity", Protocol::WiDir}}},
    };
    return kAll;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

/**
 * The leg as an ExperimentSpec: the direct-drive path reads its knobs
 * from here and the self-test hands the same spec to runExperiment.
 */
sys::ExperimentSpec
legSpec(const Workload &w, const Leg &leg, std::uint64_t seed,
        const std::string &trace_file)
{
    sys::ExperimentSpec spec;
    spec.app = workload::findApp(leg.app);
    spec.protocol = leg.protocol;
    spec.cores = w.cores;
    spec.scale = w.scale;
    spec.seed = seed;
    spec.simThreads = 0;
    spec.trace.enabled = w.protocolTrace;
    if (w.protocolTrace)
        spec.trace.file = trace_file;
    return spec;
}

// ---------------------------------------------------------------- spans

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    const char *name;
    double start; ///< seconds since the log was created
    double end;
    int parent;   ///< index into the log, -1 for a root
    long experiment; ///< global experiment id, -1 for a pass span
};

/**
 * Times calls from outside the layer. Each call's duration is always
 * returned (setup_s needs it); only when recording is on does the call
 * also leave a span, nested under the innermost open one.
 */
class SpanLog
{
  public:
    SpanLog() : t0_(Clock::now()) {}

    bool recording = false;

    template <class F>
    double
    time(const char *name, long experiment, F &&fn)
    {
        int id = -1;
        if (recording) {
            id = static_cast<int>(spans_.size());
            spans_.push_back({name, 0.0, 0.0,
                              open_.empty() ? -1 : open_.back(),
                              experiment});
            open_.push_back(id);
        }
        Clock::time_point a = Clock::now();
        fn();
        Clock::time_point b = Clock::now();
        if (recording) {
            open_.pop_back();
            spans_[id].start = secondsBetween(t0_, a);
            spans_[id].end = secondsBetween(t0_, b);
        }
        return secondsBetween(a, b);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (duration minus direct children) summed by name. */
    std::map<std::string, double>
    selfTimes(std::size_t first) const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = first; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (std::size_t i = first; i < spans_.size(); ++i)
            if (spans_[i].parent >= static_cast<int>(first))
                self[spans_[i].parent] -=
                    spans_[i].end - spans_[i].start;
        std::map<std::string, double> by_name;
        for (std::size_t i = first; i < spans_.size(); ++i)
            by_name[spans_[i].name] += self[i];
        return by_name;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [";
        char buf[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\": \"%s\", \"start\": %.9f, "
                          "\"end\": %.9f, \"parent\": %d, "
                          "\"experiment\": %ld}",
                          i ? "," : "", s.name, s.start, s.end,
                          s.parent, s.experiment);
            out << buf;
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ---------------------------------------------------------------- one leg

/** Deterministic per-layer counts, summed over a pass's experiments. */
struct Counts
{
    std::uint64_t cycles = 0, events = 0, traceRecords = 0;
    std::uint64_t msgpoolGrew = 0, mapRehashes = 0;
    std::uint64_t instructions = 0, memStall = 0, loads = 0,
                  loadLatencySum = 0;
    std::uint64_t l1Accesses = 0, l1Hits = 0, l1ReadMisses = 0,
                  l1WriteMisses = 0, l1Nacks = 0, l1WirelessWrites = 0,
                  l1Squashes = 0, l1SelfInv = 0;
    std::uint64_t dirNacks = 0, dirInvs = 0, dirToWireless = 0,
                  dirToShared = 0, dirMemFetches = 0;
    std::uint64_t nocMessages = 0, nocFlitHops = 0;
    double nocLatencyWeighted = 0.0; ///< sum of mean latency x messages
    std::uint64_t wTx = 0, wSuccess = 0, wCollisions = 0, wBusy = 0,
                  toneCensuses = 0;
    std::uint64_t memReads = 0, memWrites = 0;
};

/** Strict legality needs the whole history: never let the ring wrap. */
constexpr std::size_t kRingCapacity = std::size_t{1} << 21;

struct LegRun
{
    std::string record;  ///< widir-sweep-v1 object, host_* stripped
    std::vector<std::string> failures;
    double setup = 0.0;  ///< construct + sinks + program build
};

std::string
stripHostLines(const std::string &json)
{
    std::string out;
    std::size_t pos = 0;
    while (pos < json.size()) {
        std::size_t nl = json.find('\n', pos);
        std::size_t end = nl == std::string::npos ? json.size() : nl + 1;
        if (json.find("\"host_", pos) >= end)
            out.append(json, pos, end - pos);
        pos = end;
    }
    return out;
}

/**
 * Run one experiment through the public layer calls, in the order
 * sys::runExperiment uses for the coroutine frontend, adding its
 * counts to @p counts. Checks that fail are reported, not fatal, so
 * they count against the workload instead of ending the process.
 */
LegRun
runLeg(const sys::ExperimentSpec &spec, SpanLog &log, long exp,
       Counts &counts)
{
    LegRun out;
    log.time("experiment", exp, [&] {
        sys::SystemConfig cfg;
        std::unique_ptr<sys::Manycore> m;
        std::unique_ptr<sys::TraceRing> ring;
        std::unique_ptr<sys::ChromeTraceWriter> chrome;
        cpu::Program program;

        out.setup += log.time("system.construct", exp, [&] {
            cfg = spec.protocol == Protocol::WiDir
                      ? sys::SystemConfig::widir(spec.cores)
                      : sys::SystemConfig::baseline(spec.cores);
            cfg.seed = spec.seed;
            cfg.protocol.maxWiredSharers = spec.maxWiredSharers;
            if (spec.updateCountThreshold > 0)
                cfg.protocol.updateCountThreshold =
                    spec.updateCountThreshold;
            cfg.protocol.dirPointers =
                std::max(cfg.protocol.dirPointers, spec.maxWiredSharers);
            cfg.fault = spec.fault;
            cfg.simThreads = 0; // classic kernel; WIDIR_SIM_THREADS unread
            cfg.mesh.concentration = spec.meshConcentration;
            cfg.wnoc.numChannels = spec.wirelessChannels;
            cfg.protocol.homeMap = spec.homeMap;
            m = std::make_unique<sys::Manycore>(cfg);
        });
        if (spec.trace.enabled) {
            out.setup += log.time("system.trace_attach", exp, [&] {
                sim::Tracer &tracer = m->simulator().tracer();
                tracer.setEnabled(true);
                tracer.setWindow(spec.trace.start, spec.trace.end);
                ring = std::make_unique<sys::TraceRing>(kRingCapacity);
                tracer.addSink(ring->sink());
                chrome = std::make_unique<sys::ChromeTraceWriter>();
                tracer.addSink(chrome->sink());
            });
        }
        out.setup += log.time("workload.program", exp, [&] {
            workload::WorkloadParams params;
            params.scale = spec.scale;
            program = workload::makeProgram(*spec.app, params);
        });

        sys::ExperimentResult r;
        const double run_s = log.time("system.run", exp, [&] {
            r.cycles = m->run(program, 2'000'000'000ull);
        });

        log.time("system.check", exp, [&] {
            auto v = sys::checkCoherence(*m);
            if (!v.empty())
                out.failures.push_back("incoherent: " + v.front());
        });

        if (spec.trace.enabled) {
            log.time("system.trace_legality", exp, [&] {
                if (ring->dropped() != 0) {
                    out.failures.push_back(
                        "trace ring wrapped; strict legality impossible");
                    return;
                }
                auto v = sys::checkTraceLegality(*ring, true);
                if (!v.empty())
                    out.failures.push_back("illegal trace: " + v.front());
            });
            log.time("system.trace_export", exp, [&] {
                if (!chrome->write(spec.trace.file))
                    out.failures.push_back("cannot write " +
                                           spec.trace.file);
            });
            r.traceRecords = m->simulator().tracer().emitted();
            r.traceDropped = ring->dropped();
        }

        log.time("system.stats", exp, [&] {
            const std::uint32_t cores = spec.cores;
            r.app = spec.app->name;
            r.protocol = spec.protocol;
            r.cores = cores;
            r.seed = spec.seed;
            r.scale = spec.scale;
            r.maxWiredSharers = spec.maxWiredSharers;
            r.updateCountThreshold = cfg.protocol.updateCountThreshold;
            r.meshConcentration = spec.meshConcentration;
            r.wirelessChannels = spec.wirelessChannels;
            r.homeMap = spec.homeMap;
            r.executedEvents = m->simulator().executedEvents();
            r.hostSeconds = run_s;
            r.hostMsgpoolGrew = m->hostMsgpoolGrew();
            r.hostMapRehashes = m->hostMapRehashes();

            auto cpu = m->cpuTotals();
            auto l1 = m->l1Totals();
            auto dir = m->dirTotals();
            r.instructions = cpu.instructions;
            r.loads = cpu.loads;
            r.stores = cpu.stores + cpu.rmws;
            r.readMisses = l1.readMisses;
            r.writeMisses = l1.writeMisses;
            r.memStallCycles = cpu.memStallCycles;
            r.totalCoreCycles = static_cast<std::uint64_t>(r.cycles) * cores;
            r.loadLatencySum = cpu.loadLatencySum;
            r.storeLatencySum = cpu.storeLatencySum;
            for (const auto &bin : m->mesh().hopHistogram().bins())
                r.hopBinCounts.push_back(bin.count);
            r.wiredMessages = m->mesh().messages();
            sim::BinnedHistogram sharers = m->sharersUpdatedTotals();
            for (const auto &bin : sharers.bins())
                r.sharersUpdatedBins.push_back(bin.count);
            r.wirelessWrites = l1.wirelessWrites;
            r.selfInvalidations = l1.selfInvalidations;
            r.toWireless = dir.toWireless;
            r.toShared = dir.toShared;
            wireless::DataChannel *ch = m->dataChannel();
            if (ch != nullptr) {
                r.collisionProbability = ch->collisionProbability();
                r.frameCrcErrors = ch->crcErrors();
                r.framePreambleLosses = ch->preambleLosses();
                r.faultRetries = ch->faultRetries();
                r.frameFaultDrops = ch->faultDrops();
            }
            r.faultInjection = m->faultModel() != nullptr;
            r.fault = spec.fault;
            if (auto *tc = m->toneChannel())
                r.toneRetries = tc->toneRetries();
            r.wirelessFallbacks =
                l1.wirelessFallbacks + dir.wirelessFallbacks;

            energy::EnergyInputs ein;
            ein.cycles = r.cycles;
            ein.numCores = cores;
            ein.instructions = cpu.instructions;
            ein.l1Accesses = l1.loads + l1.stores + l1.rmws;
            ein.l2Accesses = dir.dirAccesses;
            ein.l2DataAccesses = dir.getS + dir.getX + dir.memFetches +
                                 dir.memWritebacks + dir.updatesObserved;
            ein.routerTraversals = m->mesh().routerTraversals();
            ein.flitHops = m->mesh().flitHops();
            if (ch != nullptr) {
                ein.wnocBusyCycles = ch->busyCycles();
                ein.wnocFrames = ch->successes();
                ein.wnocPresent = true;
            }
            r.energy = energy::computeEnergy(ein);

            counts.cycles += r.cycles;
            counts.events += r.executedEvents;
            counts.traceRecords += r.traceRecords;
            counts.msgpoolGrew += r.hostMsgpoolGrew;
            counts.mapRehashes += r.hostMapRehashes;
            counts.instructions += cpu.instructions;
            counts.memStall += cpu.memStallCycles;
            counts.loads += cpu.loads;
            counts.loadLatencySum += cpu.loadLatencySum;
            counts.l1Accesses += ein.l1Accesses;
            counts.l1Hits += l1.loadHits + l1.storeHits;
            counts.l1ReadMisses += l1.readMisses;
            counts.l1WriteMisses += l1.writeMisses;
            counts.l1Nacks += l1.nacksSeen;
            counts.l1WirelessWrites += l1.wirelessWrites;
            counts.l1Squashes += l1.wirelessSquashes;
            counts.l1SelfInv += l1.selfInvalidations;
            counts.dirNacks += dir.nacksSent;
            counts.dirInvs += dir.invsSent;
            counts.dirToWireless += dir.toWireless;
            counts.dirToShared += dir.toShared;
            counts.dirMemFetches += dir.memFetches;
            counts.nocMessages += m->mesh().messages();
            counts.nocFlitHops += m->mesh().flitHops();
            counts.nocLatencyWeighted +=
                m->mesh().meanLatency() *
                static_cast<double>(m->mesh().messages());
            if (ch != nullptr) {
                counts.wTx += ch->txAttempts();
                counts.wSuccess += ch->successes();
                counts.wCollisions += ch->collisionEvents();
                counts.wBusy += ch->busyCycles();
            }
            if (auto *tc = m->toneChannel())
                counts.toneCensuses += tc->censuses();
            counts.memReads += m->memory().reads();
            counts.memWrites += m->memory().writes();
        });

        std::string json;
        log.time("system.export", exp,
                 [&] { json = sys::resultToJson(r); });
        out.record = stripHostLines(json);

        log.time("system.destroy", exp, [&] {
            chrome.reset();
            ring.reset();
            m.reset();
        });
    });
    return out;
}

// ---------------------------------------------------------------- helpers

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    char buf[160];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                      ms[i].unit);
        out += buf;
    }
    return out + "}";
}

// ---------------------------------------------------------------- modes

struct PassResult
{
    double wall = 0.0;
    double setup = 0.0;
    Counts counts;
    std::map<std::string, double> self; ///< traced passes only
};

int
benchmark(const Workload &w, std::uint64_t seed, double seconds,
          bool traced, const std::string &scratch,
          const std::string &spans_path)
{
    const std::string trace_file = scratch + "/protocol.trace.json";
    std::vector<sys::ExperimentSpec> specs;
    for (const Leg &leg : w.legs)
        specs.push_back(legSpec(w, leg, seed, trace_file));

    SpanLog log;
    std::vector<std::string> first_records;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<PassResult> plain, spanned;
    long exp = 0;

    auto pass = [&](bool spans_on) {
        log.recording = spans_on;
        std::size_t first_span = log.spans().size();
        PassResult p;
        p.wall = log.time("pass", -1, [&] {
            for (std::size_t i = 0; i < specs.size(); ++i, ++exp) {
                LegRun leg = runLeg(specs[i], log, exp, p.counts);
                p.setup += leg.setup;
                ++attempted;
                if (first_records.size() == i)
                    first_records.push_back(leg.record);
                else if (leg.record != first_records[i])
                    leg.failures.push_back(
                        "simulated stats differ from the first pass");
                for (const std::string &f : leg.failures)
                    std::fprintf(stderr, "perfbench: %s %s: %s\n",
                                 specs[i].app->name,
                                 coherence::protocolName(
                                     specs[i].protocol),
                                 f.c_str());
                failed += leg.failures.empty() ? 0 : 1;
            }
        });
        if (spans_on)
            p.self = log.selfTimes(first_span);
        (spans_on ? spanned : plain).push_back(std::move(p));
    };

    // End-to-end metrics come from span-free passes only; a traced
    // run interleaves span-free and spanned passes so the span
    // overhead is measured under the same host conditions.
    const std::size_t min_passes = 3;
    Clock::time_point start = Clock::now();
    do {
        pass(false);
        if (traced)
            pass(true);
    } while (secondsBetween(start, Clock::now()) < seconds ||
             plain.size() < min_passes);

    std::uint64_t digest = 0xcbf29ce484222325ull; // FNV-1a offset basis
    for (const std::string &rec : first_records)
        digest = fnv1a(rec, digest);

    std::vector<double> walls, setups;
    for (const PassResult &p : plain) {
        walls.push_back(p.wall);
        setups.push_back(p.setup);
    }
    const Counts &c = plain.front().counts;

    std::vector<Metric> ms;
    if (!traced) {
        ms = {
            {"wall_s", median(walls), "s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_cycles", static_cast<double>(c.cycles), "cycles"},
        };
    } else {
        auto self_median = [&](const char *span) {
            std::vector<double> v;
            for (const PassResult &p : spanned) {
                auto it = p.self.find(span);
                v.push_back(it == p.self.end() ? 0.0 : it->second);
            }
            return median(v);
        };
        std::vector<double> traced_walls;
        for (const PassResult &p : spanned)
            traced_walls.push_back(p.wall);
        const auto u = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        ms = {
            {"system.construct_s", self_median("system.construct"), "s"},
            {"system.trace_attach_s", self_median("system.trace_attach"),
             "s"},
            {"workload.program_s", self_median("workload.program"), "s"},
            {"system.run_s", self_median("system.run"), "s"},
            {"system.check_s", self_median("system.check"), "s"},
            {"system.trace_legality_s",
             self_median("system.trace_legality"), "s"},
            {"system.trace_export_s", self_median("system.trace_export"),
             "s"},
            {"system.stats_s", self_median("system.stats"), "s"},
            {"system.export_s", self_median("system.export"), "s"},
            {"system.destroy_s", self_median("system.destroy"), "s"},
            {"bench.glue_s",
             self_median("experiment") + self_median("pass"), "s"},
            {"spans.wall_ratio", ratio(median(traced_walls), median(walls)),
             "ratio"},
            {"sim.events", u(c.events), "count"},
            {"sim.ns_per_event",
             1e9 * ratio(self_median("system.run"), u(c.events)), "ns"},
            {"sim.trace_records", u(c.traceRecords), "count"},
            {"system.msgpool_grew", u(c.msgpoolGrew), "count"},
            {"system.map_rehashes", u(c.mapRehashes), "count"},
            {"cpu.instructions", u(c.instructions), "count"},
            {"cpu.mem_stall_cycles", u(c.memStall), "cycles"},
            {"cpu.load_latency_avg", ratio(u(c.loadLatencySum), u(c.loads)),
             "cycles"},
            {"core.l1.read_misses", u(c.l1ReadMisses), "count"},
            {"core.l1.write_misses", u(c.l1WriteMisses), "count"},
            {"core.l1.hit_ratio", ratio(u(c.l1Hits), u(c.l1Accesses)),
             "ratio"},
            {"core.l1.nacks_seen", u(c.l1Nacks), "count"},
            {"core.l1.wireless_writes", u(c.l1WirelessWrites), "count"},
            {"core.l1.wireless_squashes", u(c.l1Squashes), "count"},
            {"core.l1.self_invalidations", u(c.l1SelfInv), "count"},
            {"core.dir.nacks_sent", u(c.dirNacks), "count"},
            {"core.dir.invs_sent", u(c.dirInvs), "count"},
            {"core.dir.to_wireless", u(c.dirToWireless), "count"},
            {"core.dir.to_shared", u(c.dirToShared), "count"},
            {"core.dir.mem_fetches", u(c.dirMemFetches), "count"},
            {"noc.messages", u(c.nocMessages), "count"},
            {"noc.flit_hops", u(c.nocFlitHops), "count"},
            {"noc.mean_latency",
             ratio(c.nocLatencyWeighted, u(c.nocMessages)), "cycles"},
            {"wireless.tx_attempts", u(c.wTx), "count"},
            {"wireless.successes", u(c.wSuccess), "count"},
            {"wireless.success_ratio", ratio(u(c.wSuccess), u(c.wTx)),
             "ratio"},
            {"wireless.collision_events", u(c.wCollisions), "count"},
            {"wireless.busy_cycles", u(c.wBusy), "cycles"},
            {"wireless.tone_censuses", u(c.toneCensuses), "count"},
            {"mem.reads", u(c.memReads), "count"},
            {"mem.writes", u(c.memWrites), "count"},
        };
    }
    std::remove(trace_file.c_str());
    if (traced && !spans_path.empty() && !log.write(spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spans_path.c_str());
        return 1;
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"host_nproc\": %ld, \"build_type\": \"%s\", "
                "\"kernel\": \"classic\", \"sim_threads\": 0, "
                "\"passes\": %zu, \"spanned_passes\": %zu, "
                "\"experiments_per_pass\": %zu, "
                "\"result_digest\": \"%016" PRIx64 "\"}\n",
                w.name, seed, sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_BUILD_TYPE, plain.size(), spanned.size(),
                specs.size(), digest);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metricsJson(ms).c_str());
    std::fflush(stdout);
    return 0;
}

/**
 * Path equivalence: the direct-drive record of every workload leg must
 * equal sys::runExperiment's widir-sweep-v1 record, host_* aside.
 */
int
selftest(const std::vector<std::uint64_t> &seeds,
         const std::string &scratch)
{
    // runExperiment reads WIDIR_SIM_THREADS when spec.simThreads is 0;
    // the benchmark measures the classic kernel only.
    unsetenv("WIDIR_SIM_THREADS");
    const std::string trace_file = scratch + "/selftest.trace.json";
    int mismatches = 0;
    for (std::uint64_t seed : seeds) {
        for (const Workload &w : workloads()) {
            for (const Leg &leg : w.legs) {
                sys::ExperimentSpec spec = legSpec(w, leg, seed, trace_file);
                SpanLog log;
                Counts counts;
                LegRun direct = runLeg(spec, log, 0, counts);
                std::string reference =
                    stripHostLines(sys::resultToJson(sys::runExperiment(spec)));
                bool same = direct.failures.empty() &&
                            direct.record == reference;
                mismatches += same ? 0 : 1;
                std::printf("%s %s seed=%" PRIu64 " %s %s\n",
                            same ? "PASS" : "FAIL", w.name, seed, leg.app,
                            coherence::protocolName(leg.protocol));
                for (const std::string &f : direct.failures)
                    std::printf("  %s\n", f.c_str());
                std::fflush(stdout);
            }
        }
    }
    std::remove(trace_file.c_str());
    std::printf("%s: %d mismatching legs\n",
                mismatches == 0 ? "selftest passed" : "selftest FAILED",
                mismatches);
    return mismatches == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--spans FILE]\n"
                 "       perfbench --selftest --scratch DIR "
                 "[--seed N]...\n"
                 "workloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUint(const char *flag, const char *text)
{
    long v = 0;
    if (!sys::parseEnvInt(text, 0, 1'000'000'000, v))
        usage((std::string("bad value for ") + flag).c_str());
    return static_cast<std::uint64_t>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, scratch, spans_path;
    std::vector<std::uint64_t> seeds;
    std::uint64_t seconds = 10, trace = 0;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--selftest") {
            self = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload_name = v;
        else if (a == "--seed")
            seeds.push_back(parseUint("--seed", v));
        else if (a == "--seconds")
            seconds = parseUint("--seconds", v);
        else if (a == "--trace")
            trace = parseUint("--trace", v);
        else if (a == "--scratch")
            scratch = v;
        else if (a == "--spans")
            spans_path = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (scratch.empty())
        usage("--scratch is required");
    if (self)
        return selftest(seeds.empty() ? std::vector<std::uint64_t>{1, 2}
                                      : seeds,
                        scratch);
    const Workload *w = findWorkload(workload_name);
    if (w == nullptr)
        usage(("unknown workload '" + workload_name + "'").c_str());
    if (seeds.size() != 1 || trace > 1 || seconds == 0)
        usage("need one --seed, --trace 0|1 and --seconds >= 1");
    return benchmark(*w, seeds.front(), static_cast<double>(seconds),
                     trace == 1, scratch, spans_path);
}

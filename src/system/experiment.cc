#include "system/experiment.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include <memory>

#include "core/sharer_set.h"
#include "frontend/frontend.h"
#include "frontend/mtrace.h"
#include "frontend/record.h"
#include "sim/log.h"
#include "system/checker.h"
#include "system/manycore.h"
#include "system/trace_sinks.h"

namespace widir::sys {

double
ExperimentResult::mpki() const
{
    return instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(readMisses + writeMisses) /
              static_cast<double>(instructions);
}

double
ExperimentResult::readMpki() const
{
    return instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(readMisses) /
              static_cast<double>(instructions);
}

double
ExperimentResult::writeMpki() const
{
    return instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(writeMisses) /
              static_cast<double>(instructions);
}

double
ExperimentResult::memStallFraction() const
{
    return totalCoreCycles == 0
        ? 0.0
        : static_cast<double>(memStallCycles) /
              static_cast<double>(totalCoreCycles);
}

std::string
TraceOptions::validate() const
{
    std::string err;
    auto add = [&err](const char *msg) {
        if (!err.empty())
            err += "; ";
        err += msg;
    };
    if (start > end)
        add("trace.start is past trace.end");
    if (!enabled && !file.empty())
        add("trace.file set but trace.enabled is false");
    return err;
}

std::string
ExperimentSpec::validate() const
{
    std::string err;
    auto add = [&err](const std::string &msg) {
        if (msg.empty())
            return;
        if (!err.empty())
            err += "; ";
        err += msg;
    };
    if (app == nullptr)
        add("no app selected");
    if (cores == 0)
        add("cores must be positive");
    if (scale == 0)
        add("scale must be positive");
    if (meshConcentration == 0)
        add("meshConcentration must be positive");
    else if (cores % meshConcentration != 0)
        add("meshConcentration must divide cores");
    if (wirelessChannels == 0)
        add("wirelessChannels must be positive");
    if (simThreads != 0)
        add("simThreads must be 0: the bound/weave kernel was removed");
    // The directory grows its pointer list to the threshold, and the
    // list is a fixed inline array.
    if (maxWiredSharers > coherence::SharerPtrs::kCapacity)
        add("maxWiredSharers must be at most " +
            std::to_string(coherence::SharerPtrs::kCapacity));
    const bool trace_app = app != nullptr && app->traceSource != nullptr;
    if (!recordPath.empty() && !replayPath.empty())
        add("recordPath and replayPath are exclusive");
    if (trace_app && !replayPath.empty())
        add("trace-driven app already supplies its trace; "
            "replayPath must be empty");
    if (trace_app && !recordPath.empty())
        add("cannot record a trace-driven app (it has no kernel)");
    if (app != nullptr && app->kernel == nullptr && !trace_app)
        add("app has neither a kernel nor a trace source");
    add(trace.validate());
    add(fault.validate());
    return err;
}

bool
parseEnvInt(const char *text, long min, long max, long &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    // end == text catches "abc"; *end != '\0' catches "4abc" and
    // "4 " (strtol stops at the first non-digit and reports success);
    // ERANGE catches values strtol saturated to LONG_MIN/LONG_MAX.
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    if (v < min || v > max)
        return false;
    out = v;
    return true;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    if (std::string err = spec.validate(); !err.empty())
        sim::fatal("invalid ExperimentSpec: %s", err.c_str());

    // The paths select the stimulus (validate() made them exclusive);
    // a trace-driven app replays its own trace.
    const bool trace_app = spec.app->traceSource != nullptr;
    const bool is_replay = trace_app || !spec.replayPath.empty();
    const bool is_record = !spec.recordPath.empty();
    const std::string &replay_path =
        trace_app ? spec.app->traceSource->path : spec.replayPath;

    // Effective machine knobs: the spec's, unless a replayed trace
    // carries the recorded machine -- then the recording wins so the
    // replay reproduces the recorded run (docs/FRONTEND.md). The
    // header comes from outside the program, so the patched copy is
    // validated like any spec.
    ExperimentSpec run = spec;
    std::string app_name = spec.app->name;
    frontend::MemTrace trace;
    if (is_replay) {
        std::string terr;
        if (!frontend::loadTraceFile(replay_path, trace, terr))
            sim::fatal("experiment %s: %s", app_name.c_str(),
                       terr.c_str());
        if (trace.header.hasMachine) {
            const frontend::TraceHeader &h = trace.header;
            app_name = h.app;
            run.protocol = static_cast<coherence::Protocol>(h.protocol);
            run.homeMap = static_cast<mem::HomeMap>(h.homeMap);
            run.cores = h.cores;
            run.scale = h.scale;
            run.seed = h.seed;
            run.maxWiredSharers = h.maxWiredSharers;
            run.updateCountThreshold = h.updateCountThreshold;
            run.meshConcentration = h.meshConcentration;
            run.wirelessChannels = h.wirelessChannels;
            if (std::string verr = run.validate(); !verr.empty())
                sim::fatal("experiment %s: trace header: %s",
                           app_name.c_str(), verr.c_str());
        }
        if (std::string verr = frontend::validateTrace(trace, run.cores);
            !verr.empty())
            sim::fatal("experiment %s: %s", app_name.c_str(),
                       verr.c_str());
    }
    SystemConfig cfg = run.protocol == coherence::Protocol::WiDir
        ? SystemConfig::widir(run.cores)
        : SystemConfig::baseline(run.cores);
    cfg.seed = run.seed;
    cfg.protocol.maxWiredSharers = run.maxWiredSharers;
    if (run.updateCountThreshold > 0)
        cfg.protocol.updateCountThreshold = run.updateCountThreshold;
    // Table VI sweeps the threshold; the paper's constraint is
    // MaxWiredSharers <= sharer pointers, so grow Dir_iB accordingly.
    cfg.protocol.dirPointers =
        std::max(cfg.protocol.dirPointers, run.maxWiredSharers);
    cfg.fault = run.fault;
    cfg.mesh.concentration = run.meshConcentration;
    cfg.wnoc.numChannels = run.wirelessChannels;
    cfg.protocol.homeMap = run.homeMap;

    // The cores' coroutines reference the gate and the recorder's
    // sinks: declare both before the machine so they outlive it.
    std::unique_ptr<frontend::ReplayGate> gate;
    if (is_replay && !trace.header.hasMachine && trace.hasSync())
        gate = std::make_unique<frontend::ReplayGate>(trace);
    std::unique_ptr<frontend::Recorder> recorder;
    Manycore m(cfg);
    if (is_record) {
        recorder = std::make_unique<frontend::Recorder>(run.cores);
        for (sim::NodeId n = 0; n < run.cores; ++n)
            m.core(n).setOpSink(&recorder->sink(n));
    }
    workload::WorkloadParams params;
    params.scale = run.scale;

    // Tracing: a ring buffer always feeds the legality checker; the
    // Chrome exporter is attached only when an output path was given.
    // Tracing never touches the RNG streams, so a traced run's stats
    // are bit-identical to the same run untraced.
    TraceRing ring;
    std::unique_ptr<ChromeTraceWriter> chrome;
    if (spec.trace.enabled) {
        sim::Tracer &tracer = m.simulator().tracer();
        tracer.setEnabled(true);
        tracer.setWindow(spec.trace.start, spec.trace.end);
        tracer.addSink(ring.sink());
        if (!spec.trace.file.empty()) {
            chrome = std::make_unique<ChromeTraceWriter>();
            tracer.addSink(chrome->sink());
        }
    }

    ExperimentResult r;
    r.app = app_name;
    r.protocol = run.protocol;
    r.cores = run.cores;
    r.seed = run.seed;
    r.scale = run.scale;
    r.maxWiredSharers = run.maxWiredSharers;
    r.updateCountThreshold = cfg.protocol.updateCountThreshold;
    r.meshConcentration = run.meshConcentration;
    r.wirelessChannels = run.wirelessChannels;
    r.homeMap = run.homeMap;
    r.recordPath = spec.recordPath;
    r.replayPath = replay_path;
    // A trace app has no kernel to wrap: replay re-issues the trace.
    cpu::Program program =
        is_replay ? frontend::makeReplayProgram(trace, gate.get())
                  : workload::makeProgram(*spec.app, params);
    auto host_start = std::chrono::steady_clock::now();
    r.cycles = m.run(program, 2'000'000'000ull);
    std::chrono::duration<double> host_elapsed =
        std::chrono::steady_clock::now() - host_start;
    r.executedEvents = m.simulator().executedEvents();
    r.hostSeconds = host_elapsed.count();
    r.hostEventsPerSec = r.hostSeconds > 0.0
        ? static_cast<double>(r.executedEvents) / r.hostSeconds
        : 0.0;
    r.hostMsgpoolGrew = m.hostMsgpoolGrew();
    r.hostMapRehashes = m.hostMapRehashes();

    if (is_record) {
        frontend::TraceHeader h;
        h.hasMachine = true;
        h.app = app_name;
        h.protocol = static_cast<std::uint8_t>(run.protocol);
        h.homeMap = static_cast<std::uint8_t>(run.homeMap);
        h.cores = run.cores;
        h.scale = run.scale;
        h.maxWiredSharers = run.maxWiredSharers;
        h.updateCountThreshold = cfg.protocol.updateCountThreshold;
        h.meshConcentration = run.meshConcentration;
        h.wirelessChannels = run.wirelessChannels;
        h.seed = run.seed;
        frontend::MemTrace rec = recorder->finish(h);
        std::string werr;
        if (!frontend::writeMtrace(spec.recordPath, rec, werr))
            sim::fatal("experiment %s: %s", app_name.c_str(),
                       werr.c_str());
    }

    auto violations = checkCoherence(m);
    if (!violations.empty()) {
        sim::fatal("experiment %s left the machine incoherent: %s",
                   app_name.c_str(), violations.front().c_str());
    }

    if (spec.trace.enabled) {
        // Continuity and SWMR need the whole history: only apply them
        // when the window covered the full run and nothing fell out of
        // the ring.
        bool strict = ring.dropped() == 0 && spec.trace.start == 0 &&
                      spec.trace.end == sim::kTickNever;
        auto trace_violations = checkTraceLegality(ring, strict);
        if (!trace_violations.empty()) {
            sim::fatal("experiment %s produced an illegal trace: %s",
                       app_name.c_str(),
                       trace_violations.front().c_str());
        }
        if (chrome)
            chrome->write(spec.trace.file);
        r.traceRecords = m.simulator().tracer().emitted();
        r.traceDropped = ring.dropped();
    }

    auto cpu = m.cpuTotals();
    auto l1 = m.l1Totals();
    auto dir = m.dirTotals();

    r.instructions = cpu.instructions;
    r.loads = cpu.loads;
    r.stores = cpu.stores + cpu.rmws;
    r.readMisses = l1.readMisses;
    r.writeMisses = l1.writeMisses;
    r.memStallCycles = cpu.memStallCycles;
    r.totalCoreCycles =
        static_cast<std::uint64_t>(r.cycles) * run.cores;
    r.loadLatencySum = cpu.loadLatencySum;
    r.storeLatencySum = cpu.storeLatencySum;

    for (const auto &bin : m.mesh().hopHistogram().bins())
        r.hopBinCounts.push_back(bin.count);
    r.wiredMessages = m.mesh().messages();

    auto sharers = m.sharersUpdatedTotals();
    for (const auto &bin : sharers.bins())
        r.sharersUpdatedBins.push_back(bin.count);
    r.wirelessWrites = l1.wirelessWrites;
    r.selfInvalidations = l1.selfInvalidations;
    r.toWireless = dir.toWireless;
    r.toShared = dir.toShared;
    if (auto *ch = m.dataChannel())
        r.collisionProbability = ch->collisionProbability();

    r.faultInjection = m.faultModel() != nullptr;
    r.fault = spec.fault;
    if (auto *ch = m.dataChannel()) {
        r.frameCrcErrors = ch->crcErrors();
        r.framePreambleLosses = ch->preambleLosses();
        r.faultRetries = ch->faultRetries();
        r.frameFaultDrops = ch->faultDrops();
    }
    if (auto *tc = m.toneChannel())
        r.toneRetries = tc->toneRetries();
    r.wirelessFallbacks = l1.wirelessFallbacks + dir.wirelessFallbacks;

    energy::EnergyInputs ein;
    ein.cycles = r.cycles;
    ein.numCores = run.cores;
    ein.instructions = cpu.instructions;
    ein.l1Accesses = l1.loads + l1.stores + l1.rmws;
    ein.l2Accesses = dir.dirAccesses;
    ein.l2DataAccesses = dir.getS + dir.getX + dir.memFetches +
                         dir.memWritebacks + dir.updatesObserved;
    ein.routerTraversals = m.mesh().routerTraversals();
    ein.flitHops = m.mesh().flitHops();
    if (auto *ch = m.dataChannel()) {
        ein.wnocBusyCycles = ch->busyCycles();
        ein.wnocFrames = ch->successes();
        ein.wnocPresent = true;
    }
    r.energy = energy::computeEnergy(ein);
    return r;
}

} // namespace widir::sys

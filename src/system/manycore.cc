#include "system/manycore.h"

#include <algorithm>

#include "sim/log.h"

namespace widir::sys {

Manycore::Manycore(const SystemConfig &cfg) : cfg_(cfg)
{
    WIDIR_ASSERT(cfg_.numCores > 0, "machine needs cores");
    WIDIR_ASSERT(cfg_.protocol.maxWiredSharers <=
                     cfg_.protocol.dirPointers,
                 "MaxWiredSharers must fit in the sharer pointers "
                 "(Section III-B)");

    WIDIR_ASSERT(cfg_.simThreads == 0,
                 "simThreads must be 0: the bound/weave kernel was "
                 "removed");

    sim_ = std::make_unique<sim::Simulator>(cfg_.seed);

    cfg_.mesh.numNodes = cfg_.numCores;
    mesh_ = std::make_unique<noc::Mesh>(*sim_, cfg_.mesh);

    memory_ = std::make_unique<mem::MainMemory>(*sim_, cfg_.memory);

    if (cfg_.protocol.wireless()) {
        cfg_.wnoc.numNodes = cfg_.numCores;
        dataChannel_ =
            std::make_unique<wireless::DataChannel>(*sim_, cfg_.wnoc);
        toneChannel_ = std::make_unique<wireless::ToneChannel>(
            *sim_, cfg_.numCores);
        if (cfg_.fault.enabled()) {
            // Dedicated RNG stream: the fault layer must not perturb
            // the draws of the clean-machine streams (docs/FAULTS.md).
            faultModel_ = std::make_unique<fault::FaultModel>(
                cfg_.fault,
                sim_->makeRng(0xFA171E57ULL + cfg_.fault.seed));
            dataChannel_->setFaultModel(faultModel_.get());
            toneChannel_->setFaultModel(faultModel_.get());
        }
    }

    fabric_ = std::make_unique<coherence::CoherenceFabric>(
        *sim_, cfg_.protocol, *mesh_, *memory_, dataChannel_.get(),
        toneChannel_.get());

    std::vector<coherence::L1Controller *> l1_ptrs;
    std::vector<coherence::DirectoryController *> dir_ptrs;
    for (sim::NodeId n = 0; n < cfg_.numCores; ++n) {
        dirs_.push_back(
            std::make_unique<coherence::DirectoryController>(
                *fabric_, n, cfg_.llc));
        l1s_.push_back(std::make_unique<coherence::L1Controller>(
            *fabric_, n, cfg_.l1));
        dir_ptrs.push_back(dirs_.back().get());
        l1_ptrs.push_back(l1s_.back().get());
    }
    fabric_->attach(l1_ptrs, dir_ptrs);

    if (dataChannel_) {
        for (sim::NodeId n = 0; n < cfg_.numCores; ++n) {
            auto *l1 = l1_ptrs[n];
            auto *dir = dir_ptrs[n];
            dataChannel_->setReceiver(
                n, [l1, dir](const wireless::Frame &frame) {
                    // Both the private cache and the local directory
                    // slice observe every broadcast frame.
                    l1->receiveFrame(frame);
                    dir->receiveFrame(frame);
                });
        }
    }

    // Core construction draws no random number and schedules no
    // event, so building the cores here cannot shift a run.
    cores_.reserve(cfg_.numCores);
    for (sim::NodeId n = 0; n < cfg_.numCores; ++n)
        cores_.push_back(
            std::make_unique<cpu::Core>(*sim_, *l1_ptrs[n], n, cfg_.core));
}

Manycore::~Manycore() = default;

sim::Tick
Manycore::run(const Program &program, sim::Tick watchdog_cycles)
{
    WIDIR_ASSERT(static_cast<bool>(program), "run() without a program");
    for (auto &core : cores_)
        core->start(program, cfg_.numCores, 0);
    sim_->runOrDie(watchdog_cycles, "manycore program");
    sim::Tick end = 0;
    for (const auto &core : cores_) {
        WIDIR_ASSERT(core->finished(),
                     "machine quiesced with unfinished core %u "
                     "(thread deadlocked on memory values?)",
                     core->nodeId());
        end = std::max(end, core->finishTick());
    }
    return end;
}

cpu::Core::Stats
Manycore::cpuTotals() const
{
    cpu::Core::Stats total;
    for (const auto &core : cores_) {
        const auto &s = core->stats();
        total.instructions += s.instructions;
        total.loads += s.loads;
        total.stores += s.stores;
        total.rmws += s.rmws;
        total.memStallCycles += s.memStallCycles;
        total.loadLatencySum += s.loadLatencySum;
        total.storeLatencySum += s.storeLatencySum;
    }
    return total;
}

std::uint64_t
Manycore::hostMsgpoolGrew() const
{
    return fabric_->msgPoolGrew();
}

std::uint64_t
Manycore::hostMapRehashes() const
{
    std::uint64_t n = memory_->mapRehashes();
    for (const auto &l1 : l1s_)
        n += l1->mapRehashes();
    for (const auto &dir : dirs_)
        n += dir->mapRehashes();
    return n;
}

coherence::L1Controller::Stats
Manycore::l1Totals() const
{
    coherence::L1Controller::Stats total;
    for (const auto &l1 : l1s_) {
        const auto &s = l1->stats();
        total.loads += s.loads;
        total.stores += s.stores;
        total.rmws += s.rmws;
        total.loadHits += s.loadHits;
        total.storeHits += s.storeHits;
        total.readMisses += s.readMisses;
        total.writeMisses += s.writeMisses;
        total.nacksSeen += s.nacksSeen;
        total.evictions += s.evictions;
        total.putWSent += s.putWSent;
        total.selfInvalidations += s.selfInvalidations;
        total.wirelessWrites += s.wirelessWrites;
        total.wirelessSquashes += s.wirelessSquashes;
        total.updatesApplied += s.updatesApplied;
        total.wirelessFallbacks += s.wirelessFallbacks;
    }
    return total;
}

coherence::DirectoryController::Stats
Manycore::dirTotals() const
{
    coherence::DirectoryController::Stats total;
    for (const auto &dir : dirs_) {
        const auto &s = dir->stats();
        total.getS += s.getS;
        total.getX += s.getX;
        total.nacksSent += s.nacksSent;
        total.invsSent += s.invsSent;
        total.bcastInvBursts += s.bcastInvBursts;
        total.fwds += s.fwds;
        total.memFetches += s.memFetches;
        total.memWritebacks += s.memWritebacks;
        total.llcRecalls += s.llcRecalls;
        total.toWireless += s.toWireless;
        total.toShared += s.toShared;
        total.wJoins += s.wJoins;
        total.wirInvs += s.wirInvs;
        total.updatesObserved += s.updatesObserved;
        total.dirAccesses += s.dirAccesses;
        total.wirelessFallbacks += s.wirelessFallbacks;
    }
    return total;
}

sim::BinnedHistogram
Manycore::sharersUpdatedTotals() const
{
    sim::BinnedHistogram total({5, 10, 25, 49}, true);
    for (const auto &dir : dirs_) {
        // Every slice uses the same bins, so sampling each bin's
        // lower bound with its count merges the counts exactly.
        for (const auto &bin : dir->sharersUpdatedHistogram().bins()) {
            if (bin.count > 0)
                total.sample(bin.lo, bin.count);
        }
    }
    return total;
}

} // namespace widir::sys

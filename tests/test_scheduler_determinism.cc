/**
 * @file
 * Cross-scheduler determinism: the hybrid calendar-wheel/heap event
 * queue must produce byte-identical simulation results to a pure
 * (tick, seq) heap. EventQueue::setForceHeapForTest routes every
 * schedule to the far-future heap; running whole experiments in both
 * modes and comparing the serialized widir-sweep-v1 result objects
 * pins the wheel's ordering (including same-tick wheel/heap ties) to
 * the reference semantics.
 *
 * The host_* wall-clock fields are the one legitimate difference
 * between two runs, so they are zeroed before serializing -- exactly
 * the rule docs/PERF.md gives for diffing sweep outputs.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "sim/event_queue.h"
#include "system/report.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using sys::ExperimentResult;
using sys::ExperimentSpec;

ExperimentSpec
specFor(const char *app, coherence::Protocol proto)
{
    ExperimentSpec spec;
    spec.app = workload::findApp(app);
    spec.protocol = proto;
    spec.cores = 16;
    spec.scale = 1;
    spec.seed = 7;
    return spec;
}

/** Run @p spec and serialize with the wall-clock fields zeroed. */
std::string
statsJson(const ExperimentSpec &spec, bool force_heap)
{
    sim::EventQueue::setForceHeapForTest(force_heap);
    ExperimentResult r = sys::runExperiment(spec);
    sim::EventQueue::setForceHeapForTest(false);
    r.hostSeconds = 0.0;
    r.hostEventsPerSec = 0.0;
    return sys::resultToJson(r);
}

/** One determinism cell: an app under one protocol. */
struct SchedulerCase
{
    const char *app;
    coherence::Protocol proto;
};

const char *
protoTag(coherence::Protocol p)
{
    return p == coherence::Protocol::WiDir ? "widir" : "baseline";
}

/**
 * Prints the cell by value ("fft/widir"). The default tuple printer
 * shows the app's char pointer, so the "GetParam() =" text in listed
 * test names would change with every load address.
 */
void
PrintTo(const SchedulerCase &c, std::ostream *os)
{
    *os << c.app << '/' << protoTag(c.proto);
}

class SchedulerDeterminism : public ::testing::TestWithParam<SchedulerCase>
{
};

TEST_P(SchedulerDeterminism, HybridMatchesPureHeapByteForByte)
{
    auto [app, proto] = GetParam();
    ASSERT_NE(workload::findApp(app), nullptr);
    ExperimentSpec spec = specFor(app, proto);
    std::string hybrid = statsJson(spec, false);
    std::string heap_only = statsJson(spec, true);
    // executed_events, cycles, every histogram, every energy figure:
    // all of it must agree, not just the headline cycle count.
    EXPECT_EQ(hybrid, heap_only);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndProtocols, SchedulerDeterminism,
    ::testing::Values(
        SchedulerCase{"radiosity", coherence::Protocol::WiDir},
        SchedulerCase{"radiosity", coherence::Protocol::BaselineMESI},
        SchedulerCase{"fft", coherence::Protocol::WiDir},
        SchedulerCase{"fft", coherence::Protocol::BaselineMESI}),
    [](const auto &info) {
        return std::string(info.param.app) + "_" +
               protoTag(info.param.proto);
    });

} // namespace

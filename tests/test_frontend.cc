/**
 * @file
 * Frontend subsystem tests (docs/FRONTEND.md):
 *
 *  - extraction gate: the coroutine frontend behind the Frontend
 *    interface is byte-identical to a plain run, recording is pure
 *    observation, and full-fidelity replay reproduces the recording --
 *    all pinned across apps x protocols;
 *  - widir-mtrace-v1: every record kind round-trips; bad magic, bad
 *    version, unknown kinds, and truncation are rejected loudly;
 *  - text ingestion: the documented grammar parses, and a garbage
 *    matrix (parseEnvInt style) fails with line-numbered errors;
 *  - external text traces run as first-class registry workloads under
 *    full replay.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "frontend/frontend.h"
#include "frontend/mtrace.h"
#include "scratch_dir.h"
#include "system/report.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using frontend::MemTrace;
using frontend::Op;
using frontend::OpKind;
using sys::ExperimentResult;
using sys::ExperimentSpec;
using test::scratchPath;
using workload::AppInfo;

/**
 * Simulated-machine stats as JSON with the host_* fields and the
 * frontend echo zeroed -- the byte-identity contract compares
 * everything else (docs/FRONTEND.md).
 */
std::string
statsJson(ExperimentResult r)
{
    r.hostSeconds = 0.0;
    r.hostEventsPerSec = 0.0;
    r.hostMsgpoolGrew = 0;
    r.hostMapRehashes = 0;
    r.recordPath.clear();
    r.replayPath.clear();
    return sys::resultToJson(r);
}

/** The "kind" of @p r's JSON "frontend" block ("" when absent). */
std::string
frontendKind(const ExperimentResult &r)
{
    sys::json::Value doc;
    std::string err;
    EXPECT_TRUE(sys::json::parse(sys::resultToJson(r), doc, &err)) << err;
    const sys::json::Value *block = doc.find("frontend");
    return block != nullptr ? block->find("kind")->string : "";
}

/** One identity-matrix cell: an app under one protocol. */
struct IdentityCase
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
PrintTo(const IdentityCase &c, std::ostream *os)
{
    *os << c.app << '/' << protoTag(c.proto);
}

class FrontendIdentity : public ::testing::TestWithParam<IdentityCase>
{
};

TEST_P(FrontendIdentity, RecordThenReplayReproducesTheRun)
{
    auto [app_name, proto] = GetParam();
    const AppInfo *app = workload::findApp(app_name);
    ASSERT_NE(app, nullptr);
    std::string path = scratchPath(
        std::string("identity_") + app_name + "_" + protoTag(proto) +
        ".mtrace");

    ExperimentSpec base;
    base.app = app;
    base.protocol = proto;
    base.cores = 16;
    base.scale = 1;
    ExperimentResult plain = sys::runExperiment(base);

    // Recording is pure observation: stats byte-identical to plain.
    ExperimentSpec rec_spec = base;
    rec_spec.recordPath = path;
    ExperimentResult rec = sys::runExperiment(rec_spec);
    EXPECT_EQ(statsJson(plain), statsJson(rec));
    EXPECT_EQ(frontendKind(rec), "record");
    EXPECT_EQ(rec.recordPath, path);

    // Full-fidelity replay reproduces the recording byte-identically
    // (machine knobs come from the trace header, not this spec).
    ExperimentSpec rep_spec;
    rep_spec.app = app;
    rep_spec.replayPath = path;
    rep_spec.protocol = proto;
    rep_spec.cores = 16;
    ExperimentResult full = sys::runExperiment(rep_spec);
    EXPECT_EQ(statsJson(plain), statsJson(full));
    EXPECT_EQ(frontendKind(full), "replay-full");
    EXPECT_EQ(full.replayPath, path);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrontendIdentity,
    ::testing::Values(
        IdentityCase{"fft", coherence::Protocol::BaselineMESI},
        IdentityCase{"fft", coherence::Protocol::WiDir},
        IdentityCase{"radiosity", coherence::Protocol::BaselineMESI},
        IdentityCase{"radiosity", coherence::Protocol::WiDir}),
    [](const ::testing::TestParamInfo<IdentityCase> &info) {
        // Fixed "_st0" suffix: the names date from a kernel-thread
        // axis and stay stable for result tracking.
        return std::string(info.param.app) + "_" +
               protoTag(info.param.proto) + "_st0";
    });

TEST(Mtrace, EveryKindRoundTrips)
{
    MemTrace t;
    t.header.hasMachine = true;
    t.header.app = "round-trip";
    t.header.protocol = 1;
    t.header.homeMap = 1;
    t.header.cores = 3;
    t.header.scale = 7;
    t.header.maxWiredSharers = 5;
    t.header.updateCountThreshold = 9;
    t.header.meshConcentration = 2;
    t.header.wirelessChannels = 4;
    t.header.seed = 0xDEADBEEFCAFEull;
    t.threads = {
        {{OpKind::Compute, cpu::SyncNote::External, 0, 100, 0, {}},
         {OpKind::Load, cpu::SyncNote::External, 0x10000040, 0, 0, {}},
         {OpKind::LoadNb, cpu::SyncNote::External, 0x10000080, 0, 0, {}},
         {OpKind::Store, cpu::SyncNote::External, 0x100000C0, 42, 0, {}},
         {OpKind::Rmw, cpu::SyncNote::External, 0x10000100, 7, 8, {}},
         // A squashed-and-retried RMW carries its speculative modify
         // evaluations (mtrace.h) -- they must survive the round trip.
         {OpKind::Rmw,
          cpu::SyncNote::External,
          0x10000180,
          3,
          3,
          {{1, 2}, {9, 10}}},
         {OpKind::Idle, cpu::SyncNote::External, 0, 64, 0, {}},
         {OpKind::Fence, cpu::SyncNote::External, 0, 0, 0, {}},
         {OpKind::Sync, cpu::SyncNote::LockAcquire, 0x10000140, 17, 0, {}}},
        {}, // an empty stream must survive too
        {{OpKind::Sync, cpu::SyncNote::BarrierArrive, 0, 33, 0, {}}},
    };
    std::string path = scratchPath("roundtrip.mtrace");
    std::string err;
    ASSERT_TRUE(frontend::writeMtrace(path, t, err)) << err;

    MemTrace back;
    ASSERT_TRUE(frontend::readMtrace(path, back, err)) << err;
    EXPECT_TRUE(back.header.hasMachine);
    EXPECT_EQ(back.header.app, t.header.app);
    EXPECT_EQ(back.header.protocol, t.header.protocol);
    EXPECT_EQ(back.header.homeMap, t.header.homeMap);
    EXPECT_EQ(back.header.cores, t.header.cores);
    EXPECT_EQ(back.header.scale, t.header.scale);
    EXPECT_EQ(back.header.maxWiredSharers, t.header.maxWiredSharers);
    EXPECT_EQ(back.header.updateCountThreshold,
              t.header.updateCountThreshold);
    EXPECT_EQ(back.header.meshConcentration,
              t.header.meshConcentration);
    EXPECT_EQ(back.header.wirelessChannels, t.header.wirelessChannels);
    EXPECT_EQ(back.header.seed, t.header.seed);
    ASSERT_EQ(back.threads, t.threads);
    EXPECT_TRUE(back.hasSync());
    EXPECT_EQ(back.totalOps(), 10u);

    // loadTraceFile must sniff the binary magic and take this path.
    MemTrace sniffed;
    ASSERT_TRUE(frontend::loadTraceFile(path, sniffed, err)) << err;
    EXPECT_EQ(sniffed.threads, t.threads);
}

TEST(Mtrace, RejectsCorruptInput)
{
    // A valid trace to corrupt.
    MemTrace t;
    t.threads = {{{OpKind::Load, cpu::SyncNote::External, 64, 0, 0, {}},
                  {OpKind::Store, cpu::SyncNote::External, 128, 1, 0, {}}}};
    std::string good = scratchPath("good.mtrace");
    std::string err;
    ASSERT_TRUE(frontend::writeMtrace(good, t, err)) << err;
    std::string bytes;
    {
        std::ifstream f(good, std::ios::binary);
        ASSERT_TRUE(f.good());
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
    }
    auto write = [](const std::string &path, const std::string &data) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(data.data(),
                static_cast<std::streamsize>(data.size()));
    };
    MemTrace out;

    // Bad magic: readMtrace rejects it outright (loadTraceFile would
    // route it to the text parser, which also rejects it -- binary
    // garbage is not a valid text trace either).
    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    std::string p = scratchPath("bad_magic.mtrace");
    write(p, bad_magic);
    EXPECT_FALSE(frontend::readMtrace(p, out, err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_FALSE(frontend::loadTraceFile(p, out, err));

    // Unsupported version.
    std::string bad_version = bytes;
    bad_version[8] = 99; // varint version field follows the magic
    p = scratchPath("bad_version.mtrace");
    write(p, bad_version);
    EXPECT_FALSE(frontend::readMtrace(p, out, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;

    // Unknown record kind.
    std::string bad_kind = bytes;
    bad_kind[bad_kind.size() - 3] = 0x7f; // the Store record's kind
    p = scratchPath("bad_kind.mtrace");
    write(p, bad_kind);
    EXPECT_FALSE(frontend::readMtrace(p, out, err));

    // Truncation at every byte boundary must fail, never crash or
    // silently succeed with fewer ops.
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        p = scratchPath("truncated.mtrace");
        write(p, bytes.substr(0, cut));
        EXPECT_FALSE(frontend::readMtrace(p, out, err))
            << "cut at " << cut << " bytes";
    }

    // Trailing garbage is rejected too.
    p = scratchPath("trailing.mtrace");
    write(p, bytes + "junk");
    EXPECT_FALSE(frontend::readMtrace(p, out, err));
}

/** One corrupted machine-header field of a recorded trace. */
struct HeaderCase
{
    const char *name;
    /** Header field after the app name: 0 protocol, 1 homeMap, then
     *  the varints cores, scale, maxWiredSharers, updateCountThreshold,
     *  meshConcentration, wirelessChannels. */
    std::size_t field;
    std::string bytes;   ///< replaces the field's one-byte encoding
    const char *message; ///< expected on stderr
};

void
PrintTo(const HeaderCase &c, std::ostream *os)
{
    *os << c.name;
}

class TraceHeaderField : public ::testing::TestWithParam<HeaderCase>
{
};

/**
 * A replayed header comes from outside the program: an out-of-range
 * field must stop the run with a message naming it, never run a wrong
 * machine or trip an assertion.
 */
TEST_P(TraceHeaderField, OutOfRangeValueIsRejectedByName)
{
    const HeaderCase &c = GetParam();
    ExperimentSpec rec;
    rec.app = workload::findApp("fft");
    rec.protocol = coherence::Protocol::WiDir;
    rec.cores = 4;
    rec.recordPath = scratchPath("header_good.mtrace");
    sys::runExperiment(rec);

    std::string bytes;
    {
        std::ifstream f(rec.recordPath, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
    }
    // Magic (8), version, flags, then the length-prefixed app name.
    const std::size_t first = 8 + 1 + 1 + 1 + 3;
    ASSERT_GT(bytes.size(), first + 8);
    ASSERT_EQ(bytes[first + 2], 4) << "cores: header layout changed";
    bytes.replace(first + c.field, 1, c.bytes);
    ExperimentSpec rep;
    rep.app = rec.app;
    rep.replayPath = scratchPath("header_bad.mtrace");
    {
        std::ofstream f(rep.replayPath, std::ios::binary);
        f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EXIT(sys::runExperiment(rep), ::testing::ExitedWithCode(1),
                c.message);
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, TraceHeaderField,
    ::testing::Values(
        HeaderCase{"Protocol7", 0, "\x07", "header protocol 7 out of range"},
        HeaderCase{"HomeMap5", 1, "\x05", "header homeMap 5 out of range"},
        HeaderCase{"CoresPast32Bits", 2, "\x80\x80\x80\x80\x10",
                   "header cores 4294967296 exceeds 32 bits"},
        HeaderCase{"MaxWiredSharers9", 4, "\x09",
                   "trace header: maxWiredSharers must be at most 8"},
        HeaderCase{"MeshConcentration3", 6, "\x03",
                   "trace header: meshConcentration must divide cores"},
        HeaderCase{"WirelessChannels0", 7, std::string(1, '\0'),
                   "trace header: wirelessChannels must be positive"}),
    [](const ::testing::TestParamInfo<HeaderCase> &info) {
        return std::string(info.param.name);
    });

TEST(TextTrace, ParsesTheDocumentedGrammar)
{
    MemTrace t;
    std::string err;
    ASSERT_TRUE(frontend::parseTextTrace("# demo trace\n"
                                         "\n"
                                         "0 R 0x1000\n"
                                         "1 W 4096 77\n"
                                         "1 W 4160\n"
                                         "0 S 1\n"
                                         "3 R 64\n",
                                         t, err))
        << err;
    EXPECT_FALSE(t.header.hasMachine);
    ASSERT_EQ(t.numThreads(), 4u); // max tid 3 -> 4 streams, 2 empty
    ASSERT_EQ(t.threads[0].size(), 2u);
    EXPECT_EQ(t.threads[0][0].kind, OpKind::Load);
    EXPECT_EQ(t.threads[0][0].addr, 0x1000u);
    EXPECT_EQ(t.threads[0][1].kind, OpKind::Sync);
    EXPECT_EQ(t.threads[0][1].a, 1u); // user ordering key
    ASSERT_EQ(t.threads[1].size(), 2u);
    EXPECT_EQ(t.threads[1][0].kind, OpKind::Store);
    EXPECT_EQ(t.threads[1][0].addr, 4096u);
    EXPECT_EQ(t.threads[1][0].a, 77u);
    EXPECT_EQ(t.threads[1][1].a, 0u); // value defaults to 0
    EXPECT_TRUE(t.threads[2].empty());
    EXPECT_TRUE(t.hasSync());
}

TEST(TextTrace, GarbageMatrixFailsWithLineNumbers)
{
    // parseEnvInt style: every malformed input must fail the whole
    // parse -- never be skipped or silently repaired -- and name the
    // offending line.
    const char *bad[] = {
        "R 0x1000",                // missing thread id
        "x R 4096",                // non-numeric thread id
        "-1 R 4096",               // negative thread id
        "0 Q 4096",                // unknown op letter
        "0 R",                     // missing address
        "0 R 64 65",               // excess operand on a read
        "0 W",                     // missing address
        "0 W 64 1 2",              // excess operand on a write
        "0 S",                     // missing sequence key
        "0 S 1 2",                 // excess operand on a sync
        "0 R 0x",                  // empty hex literal
        "0 R 12abc",               // trailing garbage in a number
        "0 R 99999999999999999999", // u64 overflow
        "1048577 R 64",            // thread id over the cap
        "",                        // no operations at all
        "# only a comment\n\n",    // still no operations
    };
    for (const char *text : bad) {
        MemTrace t;
        std::string err;
        EXPECT_FALSE(frontend::parseTextTrace(text, t, err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    // Line numbers point at the offending line, not the file start.
    MemTrace t;
    std::string err;
    EXPECT_FALSE(
        frontend::parseTextTrace("0 R 64\n1 W 64 1\nbogus line\n", t,
                                 err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(Frontend, ValidateTraceRejectsUnreplayable)
{
    MemTrace t;
    EXPECT_FALSE(frontend::validateTrace(t, 4).empty()) << "no threads";

    t.threads.assign(8, {});
    t.threads[0].push_back(
        {OpKind::Load, cpu::SyncNote::External, 64, 0, 0, {}});
    EXPECT_FALSE(frontend::validateTrace(t, 4).empty())
        << "more streams than cores";
    EXPECT_TRUE(frontend::validateTrace(t, 8).empty());

    // A machine-stamped trace must match its machine exactly.
    t.header.hasMachine = true;
    t.header.cores = 16;
    EXPECT_FALSE(frontend::validateTrace(t, 8).empty());
    t.header.cores = 8;
    EXPECT_TRUE(frontend::validateTrace(t, 8).empty());

    // Non-monotone per-thread sync keys would deadlock the gate.
    t.threads[1].push_back(
        {OpKind::Sync, cpu::SyncNote::External, 0, 5, 0, {}});
    t.threads[1].push_back(
        {OpKind::Sync, cpu::SyncNote::External, 0, 4, 0, {}});
    EXPECT_FALSE(frontend::validateTrace(t, 8).empty());
}

TEST(Frontend, SpecValidationCatchesBadCombinations)
{
    const AppInfo *fft = workload::findApp("fft");
    ASSERT_NE(fft, nullptr);
    const AppInfo *tapp = workload::registerTraceApp(
        "trace:validation", scratchPath("nonexistent.trc"));

    // The paths select the stimulus: each alone is a valid spec.
    ExperimentSpec s;
    s.app = fft;
    s.recordPath = "x.mtrace";
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    s.recordPath.clear();
    s.replayPath = "x.mtrace";
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    s.recordPath = "y.mtrace"; // ...but recording a replay is not
    EXPECT_NE(s.validate().find("exclusive"), std::string::npos);

    s = ExperimentSpec{};
    s.app = fft;
    s.simThreads = 4; // the single-queue kernel is the only one
    EXPECT_NE(s.validate().find("simThreads must be 0"),
              std::string::npos);

    s = ExperimentSpec{};
    s.app = fft;
    s.maxWiredSharers = 8; // the directory's inline pointer capacity
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    s.maxWiredSharers = 9; // used to abort building the directory
    EXPECT_NE(s.validate().find("maxWiredSharers must be at most 8"),
              std::string::npos);

    s = ExperimentSpec{};
    s.app = tapp; // trace app: replay path comes from the registry
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    s.replayPath = "other.trc"; // ...so an explicit one is ambiguous
    EXPECT_FALSE(s.validate().empty());

    s = ExperimentSpec{};
    s.app = tapp;
    s.recordPath = "x.mtrace"; // nothing to record
    EXPECT_FALSE(s.validate().empty());

    AppInfo bare = *fft;
    bare.kernel = nullptr; // neither a kernel nor a trace source
    s = ExperimentSpec{};
    s.app = &bare;
    EXPECT_NE(s.validate().find("neither a kernel"), std::string::npos);
}

TEST(TextTrace, RunsAsRegistryWorkloadUnderBothReplayers)
{
    // An external text trace is a first-class workload: registered,
    // found, and runnable -- full replay re-drives the core model,
    // honoring the S-token global order through the ReplayGate.
    std::string path = scratchPath("external.txt");
    {
        std::ofstream f(path, std::ios::trunc);
        f << "# two producers, one consumer line\n"
             "0 W 0x11000000 1\n"
             "0 S 1\n"
             "1 S 2\n"
             "1 R 0x11000000\n"
             "2 R 0x11000040\n"
             "2 W 0x11000040 9\n";
    }
    const AppInfo *app =
        workload::registerTraceApp("trace:external", path);
    ASSERT_NE(app, nullptr);
    ASSERT_EQ(workload::findApp("trace:external"), app);

    // No path needed: a trace app replays its registered trace, so
    // `--trace-in` workloads run without any extra flags.
    ExperimentSpec s;
    s.app = app;
    s.protocol = coherence::Protocol::WiDir;
    s.cores = 4;
    ExperimentResult r = sys::runExperiment(s);
    EXPECT_EQ(frontendKind(r), "replay-full");
    EXPECT_EQ(r.replayPath, path);
    EXPECT_EQ(r.app, "trace:external");
    EXPECT_EQ(r.loads, 2u);
    EXPECT_EQ(r.stores, 2u);
    EXPECT_GT(r.cycles, 0u);
}

} // namespace

#include "sim/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/trace.h"

namespace widir::sim {

namespace {
// The only process-wide mutable state in the sim layer. Atomic so
// concurrent experiment sweeps (sys::SweepRunner) can log safely;
// each emit is a single fprintf, which stdio serializes.
std::atomic<LogLevel> g_threshold{LogLevel::Warn};

void
emit(LogLevel level, const char *tag, const char *fmt, std::va_list ap)
{
    if (level < g_threshold.load(std::memory_order_relaxed))
        return;
    std::string body = vstrfmt(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", tag, body.c_str());
}
} // namespace

LogLevel
logThreshold()
{
    return g_threshold.load(std::memory_order_relaxed);
}

LogLevel
setLogThreshold(LogLevel level)
{
    return g_threshold.exchange(level, std::memory_order_relaxed);
}

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n <= 0)
        return std::string();
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
inform(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    emit(LogLevel::Info, "info", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    emit(LogLevel::Warn, "warn", fmt, ap);
    va_end(ap);
    // Route the warning into the trace of the simulation this thread
    // is currently running (if any, and if it is tracing). This is
    // independent of the stderr threshold: traces are for post-hoc
    // analysis and should not lose records because a test quieted
    // the console.
    Tracer *tracer = Tracer::threadActive();
    if (tracer && tracer->enabled()) {
        TraceRecord r;
        r.tick = tracer->clockNow();
        r.kind = TraceKind::Warn;
        r.comp = TraceComponent::Log;
        std::va_list ap2;
        va_start(ap2, fmt);
        r.text = vstrfmt(fmt, ap2);
        va_end(ap2);
        tracer->emit(r);
    }
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string body = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", body.c_str());
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string body = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", body.c_str());
    std::abort();
}

} // namespace widir::sim

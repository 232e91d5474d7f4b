/**
 * @file
 * Status and error reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  - an internal simulator invariant was violated (a bug in this
 *            code base); aborts so debuggers/core dumps can catch it.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, impossible parameters); exits cleanly.
 * warn()   - something is questionable but the simulation continues.
 * inform() - plain status output.
 *
 * All of them accept printf-style formatting via std::format-like
 * variadic helpers built on snprintf to stay dependency-free.
 *
 * Thread-safety under parallel sweeps (sys::SweepRunner):
 *  - The log threshold is the sim layer's only process-wide mutable
 *    state. It is a single atomic; logThreshold()/setLogThreshold()
 *    are safe to call from any thread, and each emitted record is one
 *    fprintf, which stdio serializes, so concurrent workers never
 *    interleave within a line.
 *  - setLogThreshold() is process-global, NOT per-simulation: a test
 *    or bench that flips it while a sweep is running changes the
 *    verbosity of every concurrent worker. Flip it before starting
 *    the pool (the test suite sets it once in main()); the
 *    save/restore idiom `auto prev = setLogThreshold(x); ...;
 *    setLogThreshold(prev);` is only race-free on a single thread.
 *  - warn() additionally routes a TraceKind::Warn record into the
 *    active simulation's trace (sim/trace.h) when that simulation has
 *    tracing enabled. The routing is thread-local (each sweep worker
 *    publishes its own simulator's tracer while running it), so
 *    warnings are attributed to the right experiment even with many
 *    in flight. Trace routing ignores the print threshold: a
 *    suppressed-on-stderr warning still lands in the trace.
 */

#ifndef WIDIR_SIM_LOG_H
#define WIDIR_SIM_LOG_H

#include <cstdarg>
#include <string>

namespace widir::sim {

/** Severity of a log record. */
enum class LogLevel { Debug, Info, Warn, Error };

/**
 * Minimum level that is actually printed. Tests raise this to keep
 * output quiet; debugging sessions lower it.
 */
LogLevel logThreshold();

/**
 * Set the global log threshold and return the previous one. Atomic,
 * but process-global — see the thread-safety notes above before
 * calling this concurrently with a running SweepRunner.
 */
LogLevel setLogThreshold(LogLevel level);

/** printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Emit an informational message (level Info). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Emit a warning (level Warn). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a simulator bug and abort(). Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() unless the condition holds. */
#define WIDIR_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::widir::sim::panic("assertion '%s' failed at %s:%d: %s",      \
                                #cond, __FILE__, __LINE__,                 \
                                ::widir::sim::strfmt(__VA_ARGS__).c_str());\
        }                                                                  \
    } while (0)

} // namespace widir::sim

#endif // WIDIR_SIM_LOG_H

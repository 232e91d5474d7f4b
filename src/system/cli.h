/**
 * @file
 * One table-driven command line for every main (the bench binaries,
 * replay_trace, widir_cli). A main lists each flag and environment
 * knob once, as a Flag row; parse() walks argv against that table,
 * applies the environment fallbacks and prints the table for --help,
 * so no main parses a value, prints usage or rejects input by hand.
 *
 * The contract (the rejection CTests pin it):
 *  - `--help` / `-h` prints the table on stdout and exits 0;
 *  - `--flag value` and `--flag=value` are the same;
 *  - an unknown flag exits 2: `<prog>: unknown flag '<f>' (try --help)`;
 *  - a missing operand, or a second use of a flag that does not
 *    repeat, exits 2 naming the flag;
 *  - a bad value exits 2:
 *    `<prog>: invalid <flag-or-VAR> value '<v>' (<what was wanted>)`;
 *  - a row's environment variable applies only when its flag is not on
 *    the command line: the flag wins. A switch's variable turns it on
 *    when non-empty and not "0".
 */

#ifndef WIDIR_SYSTEM_CLI_H
#define WIDIR_SYSTEM_CLI_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol_config.h"

namespace widir::sys::cli {

/**
 * Stores one operand (null for a switch). Returns "" when accepted,
 * else what the value should have been ("want 1..4096"), which parse()
 * turns into the invalid-value exit.
 */
using Setter = std::function<std::string(const char *value)>;

/** One table row: a flag, an environment variable, or both. */
struct Flag
{
    const char *name;    ///< "--jobs"; null: environment only
    const char *operand; ///< "N"; null: a switch without operand
    const char *env;     ///< fallback variable; null: none
    const char *help;
    Setter set;
    bool repeat = false; ///< may appear more than once
};

/**
 * Walk @p argv against @p flags, then apply the environment fallbacks;
 * exits as the file comment describes. @p about is the --help blurb.
 */
void parse(const char *prog, const char *about,
           const std::vector<Flag> &flags, int argc, char **argv);

/** Print "<prog>: <message>" on stderr and exit with status 2. */
[[noreturn, gnu::format(printf, 2, 3)]] void fail(const char *prog,
                                                  const char *fmt, ...);

/**
 * Strict decimal parse into [@p lo, @p hi]: digits only (strtoull
 * alone skips blanks, accepts a sign and wraps "-1" to the maximum),
 * nothing trailing, no overflow.
 */
bool parseUint(const char *text, std::uint64_t lo, std::uint64_t hi,
               std::uint64_t &out);

/** A probability: a complete decimal number in [0, 1]. */
bool parseProbability(const char *text, double &out);

namespace detail {
template <typename T, typename V>
void
store(T &dst, V v)
{
    dst = static_cast<T>(v);
}
/** A vector destination collects every use of a repeatable flag. */
template <typename T, typename V>
void
store(std::vector<T> &dst, V v)
{
    dst.push_back(static_cast<T>(v));
}
} // namespace detail

/// @name Range-checked setters (a vector destination appends)
/// @{
template <typename T>
Setter
count(T &dst, std::uint64_t lo, std::uint64_t hi)
{
    return [&dst, lo, hi](const char *v) -> std::string {
        std::uint64_t n = 0;
        if (!parseUint(v, lo, hi, n))
            return "want " + std::to_string(lo) + ".." +
                   std::to_string(hi);
        detail::store(dst, n);
        return "";
    };
}

template <typename T>
Setter
probability(T &dst)
{
    return [&dst](const char *v) -> std::string {
        double p = 0.0;
        if (!parseProbability(v, p))
            return "want a probability in [0,1]";
        detail::store(dst, p);
        return "";
    };
}

/** Any non-empty string (a path or a name). */
Setter text(std::string &dst);

/** One of the named @p choices. */
template <typename T>
Setter
oneOf(T &dst, std::vector<std::pair<std::string, T>> choices)
{
    return [&dst, choices = std::move(choices)](const char *v) {
        std::string want = "want ";
        for (const auto &[name, value] : choices) {
            if (name == v) {
                dst = value;
                return std::string();
            }
            want += (&name == &choices.front().first ? "" : "|") + name;
        }
        return want;
    };
}

/** widir | baseline. */
Setter protocol(coherence::Protocol &dst);
/// @}

} // namespace widir::sys::cli

#endif // WIDIR_SYSTEM_CLI_H

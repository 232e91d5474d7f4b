#include "system/cli.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace widir::sys::cli {

namespace {

void
printHelp(const char *prog, const char *about,
          const std::vector<Flag> &flags)
{
    std::printf("usage: %s [flags]\n\n%s\n\nflags:\n", prog, about);
    auto row = [](const char *name, const char *sep, const char *operand,
                  const char *help, const char *env) {
        char left[48];
        std::snprintf(left, sizeof left, "%s%s%s", name,
                      operand ? sep : "", operand ? operand : "");
        std::printf("  %-28s %s%s%s\n", left, help, env ? "; env " : "",
                    env ? env : "");
    };
    bool any_env = false;
    for (const Flag &f : flags) {
        if (f.name)
            row(f.name, " ", f.operand, f.help, f.env);
        any_env = any_env || (!f.name && f.env);
    }
    row("--help", "", nullptr, "print this message", nullptr);
    if (!any_env)
        return;
    std::printf("\nenvironment (a flag wins over its variable):\n");
    for (const Flag &f : flags) {
        if (!f.name)
            row(f.env, "=", f.operand, f.help, nullptr);
    }
}

/** Hand @p value to @p f; @p what names the flag or variable. */
void
apply(const char *prog, const char *what, const Flag &f,
      const char *value)
{
    if (std::string why = f.set(value); !why.empty())
        fail(prog, "invalid %s value '%s' (%s)", what, value ? value : "",
             why.c_str());
}

} // namespace

void
parse(const char *prog, const char *about, const std::vector<Flag> &flags,
      int argc, char **argv)
{
    std::vector<bool> seen(flags.size(), false);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            printHelp(prog, about, flags);
            std::exit(0);
        }
        const char *value = nullptr;
        std::size_t k = 0;
        for (; k < flags.size(); ++k) {
            const Flag &f = flags[k];
            std::size_t n = f.name ? std::strlen(f.name) : 0;
            if (n == 0 || std::strncmp(arg, f.name, n) != 0)
                continue;
            if (arg[n] == '\0')
                break;
            if (arg[n] == '=' && f.operand) {
                value = arg + n + 1;
                break;
            }
        }
        if (k == flags.size())
            fail(prog, "unknown flag '%s' (try --help)", arg);
        const Flag &f = flags[k];
        if (seen[k] && !f.repeat)
            fail(prog, "%s given more than once", f.name);
        seen[k] = true;
        if (f.operand && !value) {
            if (i + 1 >= argc)
                fail(prog, "%s requires %s", f.name, f.operand);
            value = argv[++i];
        }
        apply(prog, f.name, f, value);
    }
    for (std::size_t k = 0; k < flags.size(); ++k) {
        const Flag &f = flags[k];
        const char *value = f.env && !seen[k] ? std::getenv(f.env) : nullptr;
        if (!value)
            continue;
        if (f.operand)
            apply(prog, f.env, f, value);
        else if (*value && std::strcmp(value, "0") != 0)
            apply(prog, f.env, f, nullptr);
    }
}

void
fail(const char *prog, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "%s: ", prog);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

bool
parseUint(const char *text, std::uint64_t lo, std::uint64_t hi,
          std::uint64_t &out)
{
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

bool
parseProbability(const char *text, double &out)
{
    char *end = nullptr;
    double p = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(p >= 0.0) || !(p <= 1.0))
        return false;
    out = p;
    return true;
}

Setter
text(std::string &dst)
{
    return [&dst](const char *v) -> std::string {
        if (!*v)
            return "want a non-empty value";
        dst = v;
        return "";
    };
}

Setter
protocol(coherence::Protocol &dst)
{
    return oneOf(dst, {{"widir", coherence::Protocol::WiDir},
                       {"baseline", coherence::Protocol::BaselineMESI}});
}

} // namespace widir::sys::cli

/**
 * @file
 * Per-process scratch directory for tests that write files.
 *
 * ctest runs every test case as its own process, often many at once,
 * and other suites may share the host's temp directory, so a fixed
 * name under it lets concurrent processes clobber each other's files.
 * scratchPath() hands out paths inside a mkdtemp() directory private
 * to this process; the directory and its contents are removed when
 * the process exits (a forked death-test child leaves it alone).
 */

#ifndef WIDIR_TESTS_SCRATCH_DIR_H
#define WIDIR_TESTS_SCRATCH_DIR_H

#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

namespace widir::test {

/** This process's private scratch directory (created on first use). */
inline const std::filesystem::path &
scratchDir()
{
    struct Dir
    {
        std::filesystem::path path;
        pid_t owner = getpid();

        Dir()
        {
            std::string tmpl = (std::filesystem::temp_directory_path() /
                                "widir_test.XXXXXX")
                                   .string();
            if (mkdtemp(tmpl.data()) == nullptr) {
                std::perror("mkdtemp");
                std::abort();
            }
            path = tmpl;
        }

        ~Dir()
        {
            if (getpid() != owner)
                return;
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    return dir.path;
}

/** Path of @p name inside scratchDir(). */
inline std::string
scratchPath(const std::string &name)
{
    return (scratchDir() / name).string();
}

} // namespace widir::test

#endif // WIDIR_TESTS_SCRATCH_DIR_H

#include "system/sweep.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/protocol_table.h"
#include "sim/log.h"

namespace widir::sys {

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    return run(specs, [](const ExperimentSpec &spec) {
        return runExperiment(spec);
    });
}

std::vector<ExperimentResult>
SweepRunner::run(
    const std::vector<ExperimentSpec> &specs,
    const std::function<ExperimentResult(const ExperimentSpec &)>
        &run_fn) const
{
    std::vector<ExperimentResult> results(specs.size());
    if (specs.empty())
        return results;

    // First failure wins; later workers stop claiming work once a
    // failure is recorded so the pool drains quickly instead of
    // finishing a long sweep whose output will be thrown away.
    std::exception_ptr failure;
    std::atomic<bool> failed{false};
    std::mutex failure_mu;
    std::string failed_spec;

    auto run_one = [&](std::size_t i) {
        try {
            results[i] = run_fn(specs[i]);
        } catch (...) {
            std::lock_guard<std::mutex> lock(failure_mu);
            if (!failure) {
                failure = std::current_exception();
                failed_spec = specs[i].app != nullptr
                    ? specs[i].app->name
                    : "<no app>";
                failed_spec += "/";
                failed_spec +=
                    coherence::protocolName(specs[i].protocol);
            }
            failed.store(true, std::memory_order_release);
        }
    };

    unsigned workers = jobs_;
    if (workers > specs.size())
        workers = static_cast<unsigned>(specs.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            run_one(i);
            if (failed.load(std::memory_order_acquire))
                break;
        }
    } else {
        // Dynamic scheduling, deterministic output: workers claim the
        // next unclaimed spec index and write into their slot. Each
        // simulation builds its own Manycore, so runs share nothing
        // mutable.
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (;;) {
                if (failed.load(std::memory_order_acquire))
                    return;
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= specs.size())
                    return;
                run_one(i);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    if (failure) {
        try {
            std::rethrow_exception(failure);
        } catch (...) {
            std::throw_with_nested(std::runtime_error(
                "sweep failed while running spec '" + failed_spec +
                "'"));
        }
    }
    return results;
}

} // namespace widir::sys

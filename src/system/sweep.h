/**
 * @file
 * SweepRunner: run a batch of independent experiment configurations
 * concurrently on a fixed thread pool.
 *
 * Every simulation is a pure function of (configuration, seed): a
 * Manycore owns its Simulator, event queue and Rng streams, so two
 * runs never share mutable state. The remaining process-wide state
 * (the log threshold in sim/log.cc, the lazily-built workload
 * registry) is read-mostly and audited for thread safety, which makes
 * runExperiment re-entrant and a sweep's results bit-identical to
 * running the same specs serially -- results come back in spec order
 * regardless of which worker finished first.
 */

#ifndef WIDIR_SYSTEM_SWEEP_H
#define WIDIR_SYSTEM_SWEEP_H

#include <cstdint>
#include <functional>
#include <vector>

#include "system/experiment.h"

namespace widir::sys {

/**
 * Number of worker threads a sweep uses when the caller does not pick
 * one: std::thread::hardware_concurrency() (at least 1). The benches'
 * --jobs / WIDIR_BENCH_JOBS pick one (bench/common.h).
 */
unsigned defaultJobs();

/** Fixed-size thread pool over sys::runExperiment. */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0);

    /** Resolved worker count (never 0). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run every spec to completion and return the results in spec
     * order. Workers pull specs from a shared index, so the schedule
     * is dynamic but the output is deterministic: slot i always holds
     * runExperiment(specs[i]).
     *
     * If a run throws, the exception no longer escapes the worker
     * thread (which would std::terminate the process): the first
     * failure is captured, the remaining workers drain, the pool is
     * joined, and the exception is rethrown on the calling thread
     * nested under a std::runtime_error naming the failing spec.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs) const;

    /**
     * Test seam: same pool, scheduling, and exception handling, but
     * @p run_fn replaces runExperiment. The production sim reports
     * errors through sim::fatal (which exits) rather than exceptions,
     * so the throwing path can only be exercised through here.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs,
        const std::function<ExperimentResult(const ExperimentSpec &)>
            &run_fn) const;

  private:
    unsigned jobs_;
};

} // namespace widir::sys

#endif // WIDIR_SYSTEM_SWEEP_H

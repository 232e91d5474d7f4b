/**
 * @file
 * Stimulus sources for a simulated machine.
 *
 * The machine never knows what drives it: every tile's core runs the
 * Program given to sys::Manycore::run(). sys::ExperimentSpec derives
 * that Program from its paths:
 *
 *  - no path: a workload kernel (the classic configuration);
 *  - recordPath: the same kernel, with a Recorder (record.h) tapped
 *    onto each core as its cpu::OpSink (pure observation: stats
 *    identical to an unrecorded run);
 *  - replayPath, or a trace-driven app: makeReplayProgram(),
 *    re-issuing a recorded trace through the core model -- reproduces
 *    the recording's stats byte-identically.
 *
 * Fidelity contracts are specified in docs/FRONTEND.md.
 */

#ifndef WIDIR_FRONTEND_FRONTEND_H
#define WIDIR_FRONTEND_FRONTEND_H

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/thread.h"
#include "frontend/mtrace.h"

namespace widir::frontend {

/**
 * Serializes the sync-event tokens of a trace into their recorded
 * global order: a thread may pass its next token only when every
 * earlier token (ordered by recorded key, then thread, then index) has
 * been passed. This is how full replay of headerless text traces
 * preserves the inter-thread ordering the annotations encode, which
 * their (absent) recorded timing cannot.
 */
class ReplayGate
{
  public:
    /**
     * Build the global order from @p trace. Per-thread keys must be
     * non-decreasing (guaranteed for recorded traces; validated by
     * validateTrace() for text traces) or the gate would deadlock.
     */
    explicit ReplayGate(const MemTrace &trace);

    /**
     * Try to pass thread @p tid's next sync token. True (and the gate
     * advances) iff that token is globally next.
     */
    bool tryPass(std::uint32_t tid);

    /** All tokens passed. */
    bool done() const { return next_ == order_.size(); }

  private:
    struct Token
    {
        std::uint64_t key;
        std::uint32_t tid;
        std::uint64_t idx; ///< per-thread sync index (tie-break)
    };

    std::vector<Token> order_;
    std::size_t next_ = 0;
};

/**
 * Check that @p trace is replayable on a @p num_cores machine: thread
 * count fits, per-thread sync keys are monotone. Returns the empty
 * string when fine, else a problem description.
 */
std::string validateTrace(const MemTrace &trace,
                          std::uint32_t num_cores);

/**
 * Build the per-thread replay Program for full-fidelity replay: each
 * thread re-issues its recorded op stream through the same Thread
 * awaitables the original workload used, so the Core observes an
 * identical call sequence and the run reproduces the recording
 * byte-identically. @p gate is null for recorded (machine-stamped)
 * traces -- their timing alone reproduces the ordering -- and set for
 * headerless text traces, whose sync tokens then serialize through it.
 * @p trace and @p gate must outlive the cores that run the program.
 */
cpu::Program makeReplayProgram(const MemTrace &trace, ReplayGate *gate);

} // namespace widir::frontend

#endif // WIDIR_FRONTEND_FRONTEND_H

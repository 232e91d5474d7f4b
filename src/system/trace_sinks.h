/**
 * @file
 * System-layer sinks for sim::Tracer (schema widir-trace-v1):
 *
 *  - TraceRing: bounded in-memory ring buffer that keeps the newest
 *    records; sys::checkTraceLegality consumes it to validate SWMR and
 *    transition legality against the tables in docs/PROTOCOL.md.
 *  - ChromeTraceWriter: streams records into a Chrome trace-event JSON
 *    document (the "traceEvents" array format) loadable in
 *    chrome://tracing and https://ui.perfetto.dev. One simulated cycle
 *    is displayed as one microsecond; components map to processes and
 *    nodes to threads. See docs/TRACING.md for the full mapping.
 *
 * Both are plain Sink factories: construct one, register it with
 * Tracer::addSink(obj.sink()), and keep the object alive for the whole
 * simulation.
 */

#ifndef WIDIR_SYSTEM_TRACE_SINKS_H
#define WIDIR_SYSTEM_TRACE_SINKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace widir::sys {

/**
 * Fixed-capacity ring of the most recent TraceRecords. Memory is
 * allocated lazily as records arrive, so an unused ring costs nothing.
 * Once full, each new record overwrites the oldest and bumps
 * dropped(); the legality checker uses dropped() == 0 to decide
 * whether it may apply the strict (continuity and SWMR) checks or only
 * per-record transition legality.
 */
class TraceRing
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 18;

    explicit TraceRing(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    /** Sink to register with Tracer::addSink. Must outlive the run. */
    sim::Tracer::Sink
    sink()
    {
        return [this](const sim::TraceRecord &r) { push(r); };
    }

    void
    push(const sim::TraceRecord &r)
    {
        if (buf_.size() < capacity_) {
            buf_.push_back(r);
            return;
        }
        buf_[head_] = r;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    std::size_t size() const { return buf_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Records overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** i-th record in arrival order, oldest (still held) first. */
    const sim::TraceRecord &
    at(std::size_t i) const
    {
        return buf_[(head_ + i) % buf_.size()];
    }

    void
    clear()
    {
        buf_.clear();
        head_ = 0;
        dropped_ = 0;
    }

  private:
    std::size_t capacity_;
    std::size_t head_ = 0; ///< oldest record once the ring is full
    std::uint64_t dropped_ = 0;
    std::vector<sim::TraceRecord> buf_;
};

/**
 * Serializes records into Chrome trace-event JSON as they arrive (one
 * growing string, no per-record allocation beyond it), then write()s
 * the finished document. Mapping (docs/TRACING.md):
 *
 *  - pid = component, with process_name metadata ("L1", "Directory",
 *    "DataChannel", "ToneChannel", "Mesh", "Core", "Log");
 *  - tid = node id (0 when the record has no node);
 *  - ts  = simulated cycle, displayed as microseconds;
 *  - CoreOp records become complete ("X") events spanning the op's
 *    ROB-entry-to-retire latency; everything else is an instant ("i").
 */
class ChromeTraceWriter
{
  public:
    ChromeTraceWriter();

    /** Sink to register with Tracer::addSink. Must outlive the run. */
    sim::Tracer::Sink
    sink()
    {
        return [this](const sim::TraceRecord &r) { add(r); };
    }

    /** Serialize one record (called by the sink). */
    void add(const sim::TraceRecord &r);

    /** The complete JSON document (metadata + all events). */
    std::string json() const;

    /** Write json() to @p path, creating parent directories. */
    bool write(const std::string &path) const;

  private:
    std::string body_;      ///< serialized events, comma-separated
    std::uint64_t events_ = 0;
    bool compSeen_[7] = {}; ///< components needing process_name metadata
};

/**
 * Validate a captured trace against the protocol reference
 * (docs/PROTOCOL.md): every L1Transition / DirTransition record must
 * be a legal edge of the documented state machines. When @p strict is
 * set (full-run window, no ring drops) the checker additionally
 * enforces per-line transition continuity (each record's `from` equals
 * the previous record's `to`) and trace-level SWMR (while any L1 holds
 * a line in M or E, no other L1 holds it at all).
 *
 * @return human-readable violations (empty == trace is legal).
 */
std::vector<std::string> checkTraceLegality(const TraceRing &ring,
                                            bool strict);

} // namespace widir::sys

#endif // WIDIR_SYSTEM_TRACE_SINKS_H

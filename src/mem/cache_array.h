/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * Used for both the private L1 data caches and the shared-LLC slices.
 * The array stores, per line: the protocol state byte (interpreted by
 * the owning controller), a dirty bit, the functional payload, and the
 * WiDir UpdateCount / non-evictable bookkeeping described in Sections
 * III-B2 and IV-C of the paper.
 *
 * Replacement honors a per-entry `locked` flag: entries that are mid
 * transaction (or pinned by a wireless RMW) are never chosen as victims.
 *
 * Frames live in zero-page storage (mem::ZeroedArray): an all-zero
 * CacheEntry is an empty frame, so building an array touches no
 * memory. A per-set "ever filled" bitmap lets forEach()/occupancy()
 * walk only the sets a run has used, in the same ascending order as a
 * walk over every frame, and lets lookup()/pickVictim() answer for a
 * never-filled set without reading its frames (a read would map the
 * zero page only for the first fill to fault again on the write).
 */

#ifndef WIDIR_MEM_CACHE_ARRAY_H
#define WIDIR_MEM_CACHE_ARRAY_H

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/address.h"
#include "mem/line_data.h"
#include "mem/zeroed_array.h"
#include "sim/log.h"
#include "sim/types.h"

namespace widir::mem {

using sim::Tick;

/**
 * One cache frame (way) in the array. All-zero bytes are an empty
 * frame; `line` is meaningful only while `valid`.
 */
struct CacheEntry
{
    Addr line = 0;              ///< line-aligned address
    bool valid = false;
    std::uint8_t state = 0;     ///< controller-defined protocol state
    bool dirty = false;
    /**
     * WiDir: wireless updates received since the local core last touched
     * the line (saturating; see UpdateCount, Section III-B2).
     */
    std::uint8_t updateCount = 0;
    /**
     * Entry may not be replaced: set while a transaction on the line is
     * in flight, or while a wireless RMW has the line pinned (IV-C).
     */
    bool locked = false;
    Tick lruStamp = 0;          ///< larger == more recently used
    LineData data;
};

/** Set-associative, LRU, single-cycle-lookup cache array model. */
class CacheArray
{
  public:
    /**
     * @param size_bytes    Total capacity.
     * @param assoc         Ways per set.
     * @param index_divisor Line numbers are divided by this before set
     *                      indexing. A distributed LLC slice passes the
     *                      node count so the home-interleaving bits do
     *                      not alias every resident line into one set.
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t assoc,
               std::uint64_t index_divisor = 1)
        : assoc_(assoc),
          numSets_(static_cast<std::uint32_t>(
              size_bytes / (static_cast<std::uint64_t>(assoc) *
                            kLineBytes))),
          indexDivisor_(index_divisor)
    {
        WIDIR_ASSERT(indexDivisor_ > 0, "index divisor must be positive");
        WIDIR_ASSERT(assoc_ > 0, "associativity must be positive");
        WIDIR_ASSERT(numSets_ > 0, "cache must hold at least one set");
        WIDIR_ASSERT((numSets_ & (numSets_ - 1)) == 0,
                     "number of sets must be a power of two");
        frames_ = ZeroedArray<CacheEntry>(
            static_cast<std::size_t>(numSets_) * assoc_);
        filledSets_.assign((numSets_ + 63) / 64, 0);
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

    /** Find the entry holding @p addr's line, or nullptr. */
    CacheEntry *
    lookup(Addr addr)
    {
        Addr line = lineAlign(addr);
        std::uint32_t set = setOf(line);
        if (!filled(set))
            return nullptr; // and leaves the set's zero pages unmapped
        auto [begin, end] = setRange(set);
        for (std::size_t i = begin; i < end; ++i) {
            if (frames_[i].valid && frames_[i].line == line)
                return &frames_[i];
        }
        return nullptr;
    }

    const CacheEntry *
    lookup(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->lookup(addr);
    }

    /** Mark @p e most recently used. */
    void
    touch(CacheEntry *e, Tick /* now */)
    {
        e->lruStamp = ++lruCounter_;
    }

    /**
     * Choose a victim frame in @p addr's set: an invalid frame if one
     * exists, else the least recently used unlocked frame.
     * @return nullptr if every frame in the set is locked.
     */
    CacheEntry *
    pickVictim(Addr addr)
    {
        std::uint32_t set = setOf(lineAlign(addr));
        auto [begin, end] = setRange(set);
        if (!filled(set))
            return &frames_[begin]; // all invalid: the first frame
        CacheEntry *victim = nullptr;
        for (std::size_t i = begin; i < end; ++i) {
            CacheEntry &f = frames_[i];
            if (!f.valid)
                return &f;
            if (f.locked)
                continue;
            if (victim == nullptr || f.lruStamp < victim->lruStamp)
                victim = &f;
        }
        return victim;
    }

    /**
     * Install @p line into @p frame (which must belong to line's set),
     * resetting all metadata. The caller handles any eviction of the
     * previous occupant first.
     */
    void
    fill(CacheEntry *frame, Addr line, std::uint8_t state,
         const LineData &data)
    {
        std::uint32_t set = static_cast<std::uint32_t>(
            (frame - frames_.data()) / assoc_);
        filledSets_[set / 64] |= std::uint64_t{1} << (set % 64);
        frame->line = lineAlign(line);
        frame->valid = true;
        frame->state = state;
        frame->dirty = false;
        frame->updateCount = 0;
        frame->locked = false;
        frame->data = data;
        frame->lruStamp = ++lruCounter_;
    }

    /** Invalidate @p frame. */
    void
    invalidate(CacheEntry *frame)
    {
        frame->valid = false;
        frame->line = 0;
        frame->state = 0;
        frame->dirty = false;
        frame->updateCount = 0;
        frame->locked = false;
    }

    /**
     * Visit every valid entry (for checkers, flushes and reports) in
     * ascending frame order. Only sets that were ever filled are
     * walked, so the cost scales with the resident lines.
     */
    void
    forEach(const std::function<void(CacheEntry &)> &fn)
    {
        forEachFilledSet([&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                if (frames_[i].valid)
                    fn(frames_[i]);
            }
        });
    }

    /** Count of valid entries. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachFilledSet([&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                n += frames_[i].valid ? 1 : 0;
        });
        return n;
    }

  private:
    std::uint32_t
    setOf(Addr line) const
    {
        return static_cast<std::uint32_t>(
            (lineNumber(line) / indexDivisor_) & (numSets_ - 1));
    }

    bool
    filled(std::uint32_t set) const
    {
        return (filledSets_[set / 64] >> (set % 64)) & 1;
    }

    /** [first, last) frame indices of @p set. */
    std::pair<std::size_t, std::size_t>
    setRange(std::uint32_t set) const
    {
        std::size_t begin = static_cast<std::size_t>(set) * assoc_;
        return {begin, begin + assoc_};
    }

    /** Call @p fn(begin, end) for each ever-filled set, ascending. */
    template <typename Fn>
    void
    forEachFilledSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < filledSets_.size(); ++w) {
            for (std::uint64_t bits = filledSets_[w]; bits != 0;
                 bits &= bits - 1) {
                auto set = static_cast<std::uint32_t>(
                    w * 64 + std::countr_zero(bits));
                auto [begin, end] = setRange(set);
                fn(begin, end);
            }
        }
    }

    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint64_t indexDivisor_;
    ZeroedArray<CacheEntry> frames_;
    /** Bit s set once set s has held a line (never cleared). */
    std::vector<std::uint64_t> filledSets_;
    std::uint64_t lruCounter_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_CACHE_ARRAY_H

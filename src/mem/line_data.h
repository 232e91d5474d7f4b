/**
 * @file
 * Functional payload of a cache line.
 *
 * The simulator carries real data through the coherence protocol so
 * that synchronization built from loads/stores/RMWs (spin locks,
 * barriers) actually works, and so that tests can assert data-value
 * invariants, not just state-machine invariants.
 *
 * All simulated accesses are 8-byte, aligned words.
 */

#ifndef WIDIR_MEM_LINE_DATA_H
#define WIDIR_MEM_LINE_DATA_H

#include <array>
#include <cstdint>

#include "mem/address.h"

namespace widir::mem {

/** 64 bytes of line payload, addressed as eight 64-bit words. */
class LineData
{
  public:
    LineData() { words_.fill(0); }

    /** Read the word that byte address @p a falls into. */
    std::uint64_t
    word(Addr a) const
    {
        return words_[wordInLine(a)];
    }

    /** Write the word that byte address @p a falls into. */
    void
    setWord(Addr a, std::uint64_t v)
    {
        words_[wordInLine(a)] = v;
    }

    /** Direct word access by index (0..7). */
    std::uint64_t wordAt(std::uint32_t i) const { return words_[i]; }

    bool
    operator==(const LineData &o) const
    {
        return words_ == o.words_;
    }

  private:
    std::array<std::uint64_t, kWordsPerLine> words_;
};

} // namespace widir::mem

#endif // WIDIR_MEM_LINE_DATA_H

/**
 * @file
 * FlatAddrMap: open-addressed address-keyed map for simulator hot
 * state (docs/PERF.md, "Flat hot-state layouts").
 *
 * The protocol's per-line bookkeeping (directory entries, in-flight
 * transactions, MSHRs, the functional memory store) is keyed by line
 * address and hit on nearly every simulated memory operation.
 * std::unordered_map pays a node allocation per entry and a pointer
 * chase per lookup; at 256-1024 tiles that dominates both host time
 * and footprint. FlatAddrMap splits the map into
 *
 *  - a flat open-addressed *index*: a power-of-two array of keys with
 *    a parallel array of value-slot ids, probed linearly, erased with
 *    tombstone-free backward shifting (so probe chains never rot and
 *    lookups stay one cache-friendly linear scan);
 *  - a chunked value *slab*: values live in fixed 256-entry chunks
 *    that are never moved or freed, so `Value &` references remain
 *    stable across insert/erase/rehash exactly like
 *    std::unordered_map's -- callers hold references across map
 *    mutations. Freed slots are recycled through a free list.
 *
 * The API is the std::unordered_map subset the controllers use
 * (find/count/try_emplace/operator[]/erase/size/reserve/iteration);
 * iterators yield `.first`/`.second` through an arrow proxy.
 * Iteration order is index order, not insertion order -- no simulation
 * path iterates these maps (tests/test_flat_map.cc pins the container
 * semantics instead).
 *
 * reserve() sizes the index from cache geometry at construction
 * (e.g. the LLC slice's line count bounds a directory bank's live
 * entries) so steady state never rehashes.
 *
 * The index lives in zero-page storage (mem::ZeroedArray) and stores
 * each key complemented, so a vacant slot is all-zero bytes and a
 * freshly reserved index costs no memory until it is written. Every
 * key but the logical sentinel sim::kAddrNone (stored as 0) is legal,
 * line 0 included; bucket positions and probe order depend only on
 * the logical key.
 */

#ifndef WIDIR_MEM_FLAT_ADDR_MAP_H
#define WIDIR_MEM_FLAT_ADDR_MAP_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/address.h"
#include "mem/zeroed_array.h"
#include "sim/log.h"

namespace widir::mem {

template <typename Value>
class FlatAddrMap
{
    /** The one key that cannot be stored: its complement marks vacancy. */
    static constexpr Addr kEmptyKey = sim::kAddrNone;
    /** Stored form of a vacant slot (~kEmptyKey). */
    static constexpr Addr kVacant = 0;
    /** Value-slab chunk size (slots); chunks are never moved/freed. */
    static constexpr std::size_t kChunkSlots = 256;
    static constexpr std::size_t kMinCapacity = 16;

  public:
    using key_type = Addr;
    using mapped_type = Value;

    template <bool Const>
    class Iter
    {
        using MapPtr =
            std::conditional_t<Const, const FlatAddrMap *, FlatAddrMap *>;
        using Ref = std::conditional_t<Const, const Value &, Value &>;

      public:
        using value_type = std::pair<const Addr, Ref>;

        Iter() = default;

        value_type operator*() const
        {
            return {~map_->keys_[pos_], map_->valueAt(map_->slot_[pos_])};
        }

        /** Arrow proxy so `it->first` / `it->second` work. */
        struct Proxy
        {
            value_type pair;
            value_type *operator->() { return &pair; }
        };
        Proxy operator->() const { return Proxy{**this}; }

        Iter &operator++()
        {
            ++pos_;
            skipVacant();
            return *this;
        }

        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }

      private:
        friend class FlatAddrMap;
        Iter(MapPtr map, std::size_t pos) : map_(map), pos_(pos)
        {
            skipVacant();
        }

        void skipVacant()
        {
            while (pos_ < map_->keys_.size() &&
                   map_->keys_[pos_] == kVacant) {
                ++pos_;
            }
        }

        MapPtr map_ = nullptr;
        std::size_t pos_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatAddrMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /**
     * Pre-size the index for @p n live entries without rehashing.
     * Call once at construction with the geometry-derived bound.
     */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (n > loadLimit(cap))
            cap <<= 1;
        if (cap > keys_.size())
            rehash(cap);
    }

    iterator find(Addr key) { return {this, findPos(key)}; }
    const_iterator find(Addr key) const { return {this, findPos(key)}; }
    std::size_t count(Addr key) const
    {
        return findPos(key) != keys_.size() ? 1 : 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, keys_.size()}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, keys_.size()}; }

    template <typename... Args>
    std::pair<iterator, bool>
    try_emplace(Addr key, Args &&...args)
    {
        WIDIR_ASSERT(key != kEmptyKey, "reserved sentinel key");
        if (size_ + 1 > loadLimit(keys_.size()))
            rehash(std::max<std::size_t>(kMinCapacity,
                                         keys_.size() * 2));
        const Addr stored = ~key;
        std::size_t pos = bucketOf(key);
        while (keys_[pos] != kVacant) {
            if (keys_[pos] == stored)
                return {iterator(this, pos), false};
            pos = (pos + 1) & mask_;
        }
        keys_[pos] = stored;
        slot_[pos] = acquireSlot(std::forward<Args>(args)...);
        ++size_;
        return {iterator(this, pos), true};
    }

    Value &operator[](Addr key) { return try_emplace(key).first->second; }

    void
    erase(iterator it)
    {
        WIDIR_ASSERT(it.pos_ < keys_.size() &&
                         keys_[it.pos_] != kVacant,
                     "erasing a vacant slot");
        freeSlots_.push_back(slot_[it.pos_]);
        --size_;
        backshift(it.pos_);
    }

    std::size_t
    erase(Addr key)
    {
        std::size_t pos = findPos(key);
        if (pos == keys_.size())
            return 0;
        erase(iterator(this, pos));
        return 1;
    }

    void
    clear()
    {
        keys_.zero();
        freeSlots_.clear();
        slabUsed_ = 0;
        size_ = 0;
    }

    /** Index rehashes since construction (0 after a right-sized reserve). */
    std::uint64_t rehashes() const { return rehashes_; }

  private:
    static constexpr std::size_t
    loadLimit(std::size_t cap)
    {
        return cap - cap / 4; // 3/4 max load factor
    }

    /** Fibonacci-style 64-bit mix so dense line numbers spread. */
    std::size_t
    bucketOf(Addr key) const
    {
        std::uint64_t x = key;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return static_cast<std::size_t>(x) & mask_;
    }

    /** Index position of @p key, or keys_.size() when absent. */
    std::size_t
    findPos(Addr key) const
    {
        if (keys_.empty())
            return 0; // == keys_.size(): the end sentinel
        const Addr stored = ~key;
        std::size_t pos = bucketOf(key);
        while (keys_[pos] != kVacant) {
            if (keys_[pos] == stored)
                return pos;
            pos = (pos + 1) & mask_;
        }
        return keys_.size();
    }

    Value &
    valueAt(std::uint32_t slot)
    {
        return chunks_[slot / kChunkSlots][slot % kChunkSlots];
    }
    const Value &
    valueAt(std::uint32_t slot) const
    {
        return chunks_[slot / kChunkSlots][slot % kChunkSlots];
    }

    template <typename... Args>
    std::uint32_t
    acquireSlot(Args &&...args)
    {
        std::uint32_t slot;
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            slot = slabUsed_++;
            if (slot / kChunkSlots == chunks_.size())
                chunks_.push_back(
                    std::make_unique<Value[]>(kChunkSlots));
        }
        valueAt(slot) = Value(std::forward<Args>(args)...);
        return slot;
    }

    /**
     * Tombstone-free erase: close the hole at @p hole by shifting back
     * every displaced follower whose probe path crosses it, so lookups
     * keep terminating at the first vacant slot.
     */
    void
    backshift(std::size_t hole)
    {
        std::size_t pos = (hole + 1) & mask_;
        while (keys_[pos] != kVacant) {
            std::size_t home = bucketOf(~keys_[pos]);
            // Move pos into the hole iff the hole lies on pos's probe
            // path, i.e. its displacement reaches at least back to it.
            if (((pos - home) & mask_) >= ((pos - hole) & mask_)) {
                keys_[hole] = keys_[pos];
                slot_[hole] = slot_[pos];
                hole = pos;
            }
            pos = (pos + 1) & mask_;
        }
        keys_[hole] = kVacant;
    }

    void
    rehash(std::size_t cap)
    {
        ZeroedArray<Addr> old_keys = std::move(keys_);
        ZeroedArray<std::uint32_t> old_slots = std::move(slot_);
        keys_ = ZeroedArray<Addr>(cap);
        slot_ = ZeroedArray<std::uint32_t>(cap);
        mask_ = cap - 1;
        ++rehashes_;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kVacant)
                continue;
            std::size_t pos = bucketOf(~old_keys[i]);
            while (keys_[pos] != kVacant)
                pos = (pos + 1) & mask_;
            keys_[pos] = old_keys[i];
            slot_[pos] = old_slots[i];
        }
    }

    ZeroedArray<Addr> keys_;          ///< open-addressed index: ~keys
    ZeroedArray<std::uint32_t> slot_; ///< parallel: value-slab slot ids
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::uint64_t rehashes_ = 0;

    std::vector<std::unique_ptr<Value[]>> chunks_; ///< stable value slab
    std::vector<std::uint32_t> freeSlots_;
    std::uint32_t slabUsed_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_FLAT_ADDR_MAP_H

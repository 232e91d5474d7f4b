/**
 * @file
 * ZeroedArray: a fixed-size array of zero-initialised trivially
 * copyable elements, backed by OS zero pages (docs/PERF.md,
 * "Zero-page storage").
 *
 * The simulator's big construction-time arrays (cache frames, the
 * FlatAddrMap index, the fabric's per-pair FIFO clamp) are defined so
 * that all-zero bytes mean "empty". Allocating them then costs O(1):
 * large arrays come straight from an anonymous private mmap, whose
 * pages the kernel maps to the shared zero page until first write, so
 * only the pages a run touches become resident. Small arrays use
 * calloc, which is cheaper than a syscall below the threshold.
 *
 * Large arrays deliberately bypass calloc: glibc raises its dynamic
 * mmap threshold after freeing a large mmapped chunk, so a process
 * that builds machines repeatedly would get later arrays from recycled
 * heap memory that calloc has to memset -- the O(1) construction
 * would hold only for the first machine.
 *
 * Storage never moves, so pointers into the array stay valid for its
 * lifetime. The type is move-only; a moved-from array is empty.
 */

#ifndef WIDIR_MEM_ZEROED_ARRAY_H
#define WIDIR_MEM_ZEROED_ARRAY_H

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace widir::mem {

template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroedArray elements must be trivially copyable");
    static_assert(std::is_trivially_destructible_v<T>,
                  "ZeroedArray elements must be trivially destructible");

  public:
    /** Arrays of at least this many bytes are mmapped, not calloc'd. */
    static constexpr std::size_t kMmapBytes = std::size_t{64} << 10;

    ZeroedArray() = default;

    explicit ZeroedArray(std::size_t n) : size_(n)
    {
        if (n == 0)
            return;
        if (n > static_cast<std::size_t>(-1) / sizeof(T))
            throw std::bad_alloc();
        if (bytes() >= kMmapBytes) {
            void *p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            data_ = static_cast<T *>(p);
        } else {
            data_ = static_cast<T *>(std::calloc(n, sizeof(T)));
            if (data_ == nullptr)
                throw std::bad_alloc();
        }
    }

    ZeroedArray(ZeroedArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }

    ZeroedArray &
    operator=(ZeroedArray &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    ~ZeroedArray() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *data() { return data_; }
    const T *data() const { return data_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /** Reset every element to all-zero bytes. */
    void
    zero()
    {
        if (size_ != 0)
            std::memset(static_cast<void *>(data_), 0, bytes());
    }

  private:
    std::size_t bytes() const { return size_ * sizeof(T); }

    void
    release()
    {
        if (data_ == nullptr)
            return;
        if (bytes() >= kMmapBytes)
            ::munmap(data_, bytes());
        else
            std::free(data_);
        data_ = nullptr;
        size_ = 0;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_ZEROED_ARRAY_H

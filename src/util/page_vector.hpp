/**
 * @file
 * Vectors whose storage is mapped straight from the kernel: every
 * allocation is its own anonymous mapping and is unmapped when freed.
 *
 * For a large table that lives for one phase of one job. From the
 * allocator's per-thread arenas, such a table comes from the top of
 * the arena and, once freed, stays resident as free space the arena
 * keeps, so four pool threads hold four of them long after the jobs
 * that needed them are done. A mapping leaves nothing behind. Each
 * allocation costs a system call and at least a page, so small or
 * short-lived vectors should stay std::vector.
 */

#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <vector>

namespace copra {

/** A std::vector allocator that maps and unmaps its storage. */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;

    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        // Anonymous mappings are zero-filled pages.
        void *p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        munmap(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A vector whose storage is its own mapping. */
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

} // namespace copra

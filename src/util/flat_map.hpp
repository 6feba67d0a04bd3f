/**
 * @file
 * The one hash table the per-branch instruments share: values keyed by
 * a uint64_t in a flat open-addressed slot array. The oracle's miner
 * keeps its per-branch contingencies in one (core/candidates.hpp) and
 * its greedy select interns each branch's rows in one (core/oracle.cc).
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace copra {

/**
 * Open-addressed map from uint64_t keys to @p V: linear probing over a
 * power-of-two slot array that starts at 16 slots on first insert and
 * doubles at 3/4 load. Key 0 marks an empty slot, so the value of key 0
 * lives in a side slot. Iteration order is the slot order, which
 * callers must not rely on.
 */
template <typename V>
class FlatMap
{
  public:
    /** Distinct keys held. */
    size_t size() const { return size_; }

    /** The value of @p key, or nullptr when the key is absent. */
    const V *
    find(uint64_t key) const noexcept
    {
        if (key == 0)
            return hasZero_ ? &zero_ : nullptr;
        if (slots_.empty())
            return nullptr;
        const size_t mask = slots_.size() - 1;
        for (size_t i = home(key);; i = (i + 1) & mask) {
            const Slot &slot = slots_[i];
            if (slot.key == key)
                return &slot.value;
            if (slot.key == 0)
                return nullptr;
        }
    }

    /** The value of @p key, or nullptr when the key is absent. */
    V *
    find(uint64_t key) noexcept
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    /** Insert @p key (which must be absent) with a default value. */
    V &
    insert(uint64_t key)
    {
        ++size_;
        if (key == 0) {
            hasZero_ = true;
            return zero_;
        }
        if (4 * size_ > 3 * slots_.size())
            grow();
        const size_t mask = slots_.size() - 1;
        size_t i = home(key);
        while (slots_[i].key != 0)
            i = (i + 1) & mask;
        slots_[i].key = key;
        return slots_[i].value;
    }

    /** Call @p fn(key, value) for every held key. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (hasZero_)
            fn(uint64_t{0}, zero_);
        for (const Slot &slot : slots_) {
            if (slot.key != 0)
                fn(slot.key, slot.value);
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        V value{};
    };

    size_t
    home(uint64_t key) const noexcept
    {
        // Fibonacci hashing: the product's top bits index the slot array.
        const unsigned bits =
            static_cast<unsigned>(__builtin_ctzll(slots_.size()));
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                   (64 - bits));
    }

    void
    grow()
    {
        std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
        old.swap(slots_);
        const size_t mask = slots_.size() - 1;
        for (const Slot &slot : old) {
            if (slot.key == 0)
                continue;
            size_t i = home(slot.key);
            while (slots_[i].key != 0)
                i = (i + 1) & mask;
            slots_[i] = slot;
        }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    bool hasZero_ = false;
    V zero_{};
};

} // namespace copra

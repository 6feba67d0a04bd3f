/**
 * @file
 * The predictor state contract: byte-stable serialization primitives,
 * one save/load codec per field type, and the per-class field-taxonomy
 * declarations the copra_lint sema pass cross-checks against the
 * parsed member list (DESIGN.md §14).
 *
 * Every roster predictor declares each member field in exactly one of
 * three lists — COPRA_STATE_FIELDS (adaptive state, serialized),
 * COPRA_CONFIG_FIELDS (immutable after construction), or
 * COPRA_TRANSIENT_FIELDS (scratch/telemetry that must never influence
 * predictions) — and implements stateBits(). The state list is also
 * the codec: COPRA_STATE_FIELDS(a, b) defines snapshotState() as
 * save(w, a, b) and restoreState() as load(r, a, b), so the list
 * order is the snapshot order and a listed field cannot be left out.
 *
 * The encoding is explicit little-endian bytes, so snapshots hash
 * identically across platforms, and unordered containers are
 * serialized in sorted key order so snapshots never depend on
 * hash-table iteration order.
 */

#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "predictor/btb.hpp"
#include "predictor/history_fold.hpp"
#include "util/logging.hpp"
#include "util/sat_counter.hpp"
#include "util/shift_register.hpp"

namespace copra::predictor {

class Predictor;

namespace state {

/** Append-only byte stream collecting one predictor snapshot. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Cursor over snapshot bytes; overruns panic (a truncated snapshot
 *  is a copra bug, never a recoverable condition). */
class Reader
{
  public:
    explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

    uint8_t
    u8()
    {
        panicIf(pos_ >= bytes_.size(),
                "state::Reader: read past the end of a snapshot");
        return bytes_[pos_++];
    }

    uint16_t
    u16()
    {
        uint16_t lo = u8();
        return static_cast<uint16_t>(lo | (uint16_t(u8()) << 8));
    }

    uint32_t
    u32()
    {
        uint32_t lo = u16();
        return lo | (uint32_t(u16()) << 16);
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        return lo | (uint64_t(u32()) << 32);
    }

    /** Bytes not yet consumed. */
    size_t remaining() const { return bytes_.size() - pos_; }

  private:
    std::span<const uint8_t> bytes_;
    size_t pos_ = 0;
};

/** FNV-1a over snapshot bytes: the predictor stateHash(). */
inline uint64_t
fnv1a(std::span<const uint8_t> bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t byte : bytes) {
        h ^= byte;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * The save/load pair of one field type, specialized below. Codecs
 * compose: a container's codec runs its element type's.
 */
template <typename T>
struct Codec;

/** Write @p fields in order. */
template <typename... Fields>
void
save(Writer &w, const Fields &...fields)
{
    (Codec<Fields>::save(w, fields), ...);
}

/** Read back what save() wrote for the same fields, in order. */
template <typename... Fields>
void
load(Reader &r, Fields &...fields)
{
    (Codec<Fields>::load(r, fields), ...);
}

/** Integers (and bool) at their own width. */
template <std::integral T>
struct Codec<T>
{
    static void
    save(Writer &w, T v)
    {
        if constexpr (sizeof(T) == 1)
            w.u8(static_cast<uint8_t>(v));
        else if constexpr (sizeof(T) == 2)
            w.u16(static_cast<uint16_t>(v));
        else if constexpr (sizeof(T) == 4)
            w.u32(static_cast<uint32_t>(v));
        else
            w.u64(static_cast<uint64_t>(v));
    }

    static void
    load(Reader &r, T &v)
    {
        if constexpr (sizeof(T) == 1)
            v = static_cast<T>(r.u8());
        else if constexpr (sizeof(T) == 2)
            v = static_cast<T>(r.u16());
        else if constexpr (sizeof(T) == 4)
            v = static_cast<T>(r.u32());
        else
            v = static_cast<T>(r.u64());
    }
};

template <>
struct Codec<Counter2>
{
    static void save(Writer &w, Counter2 c) { w.u8(c.v); }
    static void load(Reader &r, Counter2 &c) { c.v = r.u8(); }
};

template <>
struct Codec<HistoryRegister>
{
    static void
    save(Writer &w, const HistoryRegister &h)
    {
        w.u64(h.value());
    }

    static void
    load(Reader &r, HistoryRegister &h)
    {
        h.set(r.u64());
    }
};

/** The two history words; load refolds every tracked register. */
template <>
struct Codec<FoldedHistory>
{
    static void
    save(Writer &w, const FoldedHistory &h)
    {
        state::save(w, h.words_[0], h.words_[1]);
    }

    static void
    load(Reader &r, FoldedHistory &h)
    {
        state::load(r, h.words_[0], h.words_[1]);
        for (unsigned id = 0; id < h.count_; ++id)
            h.regs_[id] = static_cast<uint32_t>(
                h.fold(h.tracks_[id].length, h.tracks_[id].width));
    }
};

/**
 * A payload struct lists its snapshot members once, in order, as a
 * static stateFields(self) returning std::tie of them.
 */
template <typename T>
    requires requires(T &x) { T::stateFields(x); }
struct Codec<T>
{
    static void
    save(Writer &w, const T &x)
    {
        std::apply([&w](const auto &...f) { state::save(w, f...); },
                   T::stateFields(x));
    }

    static void
    load(Reader &r, T &x)
    {
        std::apply([&r](auto &...f) { state::load(r, f...); },
                   T::stateFields(x));
    }
};

/** A component predictor serializes itself. */
template <std::derived_from<Predictor> P>
struct Codec<P>
{
    static void save(Writer &w, const P &p) { p.snapshotState(w); }
    static void load(Reader &r, P &p) { p.restoreState(r); }
};

template <typename P>
struct Codec<std::unique_ptr<P>>
{
    static void
    save(Writer &w, const std::unique_ptr<P> &p)
    {
        state::save(w, *p);
    }

    static void
    load(Reader &r, std::unique_ptr<P> &p)
    {
        state::load(r, *p);
    }
};

/** A map key: first, then second. */
template <typename A, typename B>
struct Codec<std::pair<A, B>>
{
    static void
    save(Writer &w, const std::pair<A, B> &p)
    {
        state::save(w, p.first, p.second);
    }

    static void
    load(Reader &r, std::pair<A, B> &p)
    {
        state::load(r, p.first, p.second);
    }
};

/**
 * A fixed-geometry vector: the size prefix is a tripwire the load side
 * checks, because restoring a snapshot into a predictor of a different
 * geometry is a caller bug.
 */
template <typename T>
struct Codec<std::vector<T>>
{
    static void
    save(Writer &w, const std::vector<T> &vec)
    {
        w.u64(vec.size());
        for (const T &x : vec)
            state::save(w, x);
    }

    static void
    load(Reader &r, std::vector<T> &vec)
    {
        uint64_t n = r.u64();
        panicIf(n != vec.size(),
                "state restore: table geometry mismatch (snapshot has " +
                    std::to_string(n) + " entries, predictor has " +
                    std::to_string(vec.size()) + ")");
        for (T &x : vec)
            state::load(r, x);
    }
};

/**
 * An unordered map in sorted key order. Sorting is the whole point:
 * two predictors holding equal state must produce byte-identical
 * snapshots regardless of hash-table history, or stateHash()
 * comparisons would be meaningless.
 */
template <typename K, typename V, typename Hash, typename Eq, typename Alloc>
struct Codec<std::unordered_map<K, V, Hash, Eq, Alloc>>
{
    using Map = std::unordered_map<K, V, Hash, Eq, Alloc>;

    static void
    save(Writer &w, const Map &map)
    {
        std::vector<K> keys;
        keys.reserve(map.size());
        for (const auto &kv : map)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        w.u64(keys.size());
        for (const K &k : keys)
            state::save(w, k, map.at(k));
    }

    static void
    load(Reader &r, Map &map)
    {
        map.clear();
        uint64_t n = r.u64();
        for (uint64_t i = 0; i < n; ++i) {
            K key{};
            state::load(r, key);
            state::load(r, map[key]);
        }
    }
};

/**
 * The replacement clocks, then a perfect table as its sorted map or a
 * finite one set by set. Sets fill on demand, so unlike a vector field
 * each set's size is state, bounded by the associativity on load.
 */
template <typename P>
struct Codec<BtbTable<P>>
{
    static void
    save(Writer &w, const BtbTable<P> &t)
    {
        state::save(w, t.evictions_, t.tick_);
        if (t.config_.isPerfect())
            state::save(w, t.perfect_);
        else
            state::save(w, t.sets_);
    }

    static void
    load(Reader &r, BtbTable<P> &t)
    {
        state::load(r, t.evictions_, t.tick_);
        if (t.config_.isPerfect()) {
            state::load(r, t.perfect_);
            return;
        }
        panicIf(r.u64() != t.sets_.size(),
                "BtbTable restore: set-count mismatch");
        for (auto &set : t.sets_) {
            uint64_t n = r.u64();
            panicIf(n > t.config_.ways,
                    "BtbTable restore: overfull set in snapshot");
            set.resize(n);
            for (auto &entry : set)
                state::load(r, entry);
        }
    }
};

} // namespace state

} // namespace copra::predictor

/**
 * Field-taxonomy declarations. Each expands to a constexpr character
 * array holding the stringized field list, which gives the sema pass a
 * lexically visible declaration to cross-check against the parsed
 * member list and gives contracts.hpp a compile-time detection hook.
 * COPRA_STATE_FIELDS also defines the snapshotState()/restoreState()
 * overrides over its fields, in list order.
 */
#define COPRA_STATE_FIELDS(...)                                           \
    void snapshotState(::copra::predictor::state::Writer &w)              \
        const override                                                    \
    {                                                                     \
        ::copra::predictor::state::save(w __VA_OPT__(, ) __VA_ARGS__);    \
    }                                                                     \
    void restoreState(::copra::predictor::state::Reader &r) override      \
    {                                                                     \
        ::copra::predictor::state::load(r __VA_OPT__(, ) __VA_ARGS__);    \
    }                                                                     \
    static constexpr const char kCopraStateFields[] = "" #__VA_ARGS__
#define COPRA_CONFIG_FIELDS(...)                                          \
    static constexpr const char kCopraConfigFields[] = "" #__VA_ARGS__
#define COPRA_TRANSIENT_FIELDS(...)                                       \
    static constexpr const char kCopraTransientFields[] = "" #__VA_ARGS__

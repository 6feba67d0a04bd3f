/**
 * @file
 * The shape of every per-static-branch result: one (pc, value) row per
 * branch that executed, sorted by pc. Passes build them from tables
 * indexed by the trace's dense static id.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace copra {

/** One row per static branch, sorted by ascending pc. */
template <typename T>
using PcRows = std::vector<std::pair<uint64_t, T>>;

/** Sort @p rows by pc; panics with @p msg when a pc repeats. */
template <typename T>
void
sortRowsByPc(PcRows<T> &rows, const char *msg)
{
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (size_t i = 1; i < rows.size(); ++i)
        panicIf(rows[i - 1].first == rows[i].first, msg);
}

/** Rows (pcs[id], table[id]) of the ids whose value passes @p keep;
 * values are moved out of @p table. */
template <typename T, typename Keep>
PcRows<T>
rowsFromIds(std::span<const uint64_t> pcs, std::vector<T> &table, Keep keep)
{
    PcRows<T> rows;
    for (size_t id = 0; id < table.size(); ++id)
        if (keep(table[id]))
            rows.emplace_back(pcs[id], std::move(table[id]));
    sortRowsByPc(rows, "rowsFromIds: repeated static pc");
    return rows;
}

/** The value of @p pc's row, or nullptr when it has none. */
template <typename T>
const T *
findRow(const PcRows<T> &rows, uint64_t pc)
{
    auto it = std::lower_bound(
        rows.begin(), rows.end(), pc,
        [](const auto &row, uint64_t key) { return row.first < key; });
    return it != rows.end() && it->first == pc ? &it->second : nullptr;
}

/** The contract of every join: @p a and @p b hold the same pcs with the
 * same execs row by row, so row i pairs with row i. Panics with @p msg
 * otherwise. */
template <typename A, typename B>
void
requireAligned(const PcRows<A> &a, const PcRows<B> &b, const char *msg)
{
    panicIf(a.size() != b.size(), msg);
    for (size_t i = 0; i < a.size(); ++i)
        panicIf(a[i].first != b[i].first ||
                    a[i].second.execs != b[i].second.execs,
                msg);
}

} // namespace copra

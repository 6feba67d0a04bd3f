/**
 * @file
 * The column store every branch trace lives in.
 *
 * The simulation hot loops stream one or two fields of every record
 * (pc and taken), so a trace is kept as contiguous per-field columns
 * (pc[], target[], kind[], taken[]) rather than as an array of 24-byte
 * BranchRecord structs. Two derived indices are maintained in place as
 * records arrive, so every predictor pass reuses them without a build
 * step: the maximal runs of consecutive conditional branches (the
 * batch boundaries) and a dense static-branch index per record.
 *
 * BranchRecord is a value materialized on demand (record(), records())
 * for the consumers that want whole records.
 */

#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "trace/branch_record.hpp"

namespace copra::trace {

class SoABlocks;

/**
 * Random-access iterator over a column image that yields BranchRecord
 * values (not references): each dereference materializes the record
 * from the four columns.
 */
class RecordIterator
{
  public:
    using value_type = BranchRecord;
    using difference_type = std::ptrdiff_t;
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;

    RecordIterator() = default;
    RecordIterator(const SoABlocks *soa, size_t i) : soa_(soa), i_(i) {}

    BranchRecord operator*() const;
    BranchRecord operator[](difference_type n) const;

    RecordIterator &
    operator++()
    {
        ++i_;
        return *this;
    }

    RecordIterator
    operator++(int)
    {
        RecordIterator before = *this;
        ++i_;
        return before;
    }

    RecordIterator &
    operator--()
    {
        --i_;
        return *this;
    }

    RecordIterator
    operator--(int)
    {
        RecordIterator before = *this;
        --i_;
        return before;
    }

    RecordIterator &
    operator+=(difference_type n)
    {
        i_ += static_cast<size_t>(n);
        return *this;
    }

    RecordIterator &
    operator-=(difference_type n)
    {
        i_ -= static_cast<size_t>(n);
        return *this;
    }

    friend RecordIterator
    operator+(RecordIterator it, difference_type n)
    {
        return it += n;
    }

    friend RecordIterator
    operator+(difference_type n, RecordIterator it)
    {
        return it += n;
    }

    friend RecordIterator
    operator-(RecordIterator it, difference_type n)
    {
        return it -= n;
    }

    friend difference_type
    operator-(const RecordIterator &a, const RecordIterator &b)
    {
        return static_cast<difference_type>(a.i_ - b.i_);
    }

    friend bool
    operator==(const RecordIterator &a, const RecordIterator &b)
    {
        return a.i_ == b.i_;
    }

    friend auto
    operator<=>(const RecordIterator &a, const RecordIterator &b)
    {
        return a.i_ <=> b.i_;
    }

  private:
    const SoABlocks *soa_ = nullptr;
    size_t i_ = 0;
};

/** A sized range of materialized records over [begin, end). */
struct RecordRange
{
    RecordIterator first;
    RecordIterator last;

    RecordIterator begin() const { return first; }
    RecordIterator end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
};

/** Column-major (structure-of-arrays) storage of one branch trace. */
class SoABlocks
{
  public:
    /** A maximal run of consecutive conditional records. */
    struct Segment
    {
        size_t begin = 0; //!< index of the first record of the run
        size_t count = 0; //!< number of consecutive conditionals
    };

    SoABlocks() = default;

    /**
     * Adopt pre-built columns (trace loaders, tests) and index them.
     * All four vectors must have equal length; kind values must be
     * valid BranchKind encodings.
     */
    SoABlocks(std::vector<uint64_t> pc, std::vector<uint64_t> target,
              std::vector<uint8_t> kind, std::vector<uint8_t> taken);

    /** Append one record, extending both indices in O(1). */
    void append(const BranchRecord &rec);

    /**
     * Append every record of @p other in order. Static ids are remapped
     * through other.staticPcs(): one intern probe per static branch of
     * @p other, none per record.
     */
    void append(const SoABlocks &other);

    /** Reserve column storage for @p n records. */
    void reserve(size_t n);

    /** Remove all records. */
    void clear();

    /** Total records (all control-transfer kinds). */
    size_t size() const noexcept { return pc_.size(); }

    /** Number of conditional records across all segments. */
    uint64_t conditionalCount() const noexcept { return conditionals_; }

    /** Branch addresses, one per record. */
    const uint64_t *pc() const noexcept { return pc_.data(); }

    /** Taken-path targets, one per record. */
    const uint64_t *target() const noexcept { return target_.data(); }

    /** BranchKind encodings, one byte per record. */
    const uint8_t *kind() const noexcept { return kind_.data(); }

    /** Outcomes (0/1), one byte per record. */
    const uint8_t *taken() const noexcept { return taken_.data(); }

    /**
     * Dense static-branch index, one entry per record: records with the
     * same pc share one index in [0, staticCount()), assigned in order
     * of first appearance. Ledger passes accumulate per-branch tallies
     * into a flat array addressed by this column, replacing a hashed
     * map probe per dynamic branch with one indexed add.
     */
    const uint32_t *staticIndex() const noexcept { return staticIndex_.data(); }

    /** Distinct branch addresses; position = dense static index. */
    std::span<const uint64_t> staticPcs() const { return staticPcs_; }

    /** Number of distinct branch addresses in the trace. */
    size_t staticCount() const noexcept { return staticPcs_.size(); }

    /** Maximal conditional runs, in trace order. */
    std::span<const Segment> conditionalSegments() const noexcept
    {
        return condSegments_;
    }

    /** Materialize record @p i. */
    BranchRecord
    record(size_t i) const noexcept
    {
        return {pc_[i], target_[i], static_cast<BranchKind>(kind_[i]),
                taken_[i] != 0};
    }

    /** Every record, materialized on dereference. */
    RecordRange
    records() const noexcept
    {
        return {RecordIterator(this, 0), RecordIterator(this, size())};
    }

  private:
    /** Dense static id of @p pc, assigning the next id on first sight. */
    uint32_t intern(uint64_t pc);

    /** Extend the segment and static indices over record @p i. */
    void indexRecord(size_t i);

    std::vector<uint64_t> pc_;
    std::vector<uint64_t> target_;
    std::vector<uint8_t> kind_;
    std::vector<uint8_t> taken_;
    std::vector<Segment> condSegments_;
    std::vector<uint32_t> staticIndex_;
    std::vector<uint64_t> staticPcs_;
    /** Open-addressing pc table: slot = static id + 1, 0 = empty. */
    std::vector<uint32_t> slots_;
    uint64_t conditionals_ = 0;
};

inline BranchRecord
RecordIterator::operator*() const
{
    return soa_->record(i_);
}

inline BranchRecord
RecordIterator::operator[](difference_type n) const
{
    return soa_->record(i_ + static_cast<size_t>(n));
}

} // namespace copra::trace

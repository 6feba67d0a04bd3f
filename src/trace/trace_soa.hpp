/**
 * @file
 * The column store every branch trace lives in.
 *
 * The simulation hot loops stream one or two fields of every record
 * (pc and taken), so a trace is kept as contiguous per-field columns
 * (pc[], target[], kind[], taken[]) rather than as an array of 24-byte
 * BranchRecord structs, next to two derived indices every predictor
 * pass reuses without a build step: a dense static-branch index per
 * record (with its table of distinct pcs) and the maximal runs of
 * consecutive conditional branches (the batch boundaries).
 *
 * Each column is a read-only view over one owner. Traces built in
 * memory (the generator, ingest) own their columns as vectors and
 * extend both indices as records arrive. Traces loaded from a cache-v3
 * file view the file image itself (a shared read-only mapping):
 * adopt() verifies the stored static index against the pc column and
 * derives the segments in one pass, copying no column. A copy of an
 * adopted trace shares its image; the first mutation copies the image
 * once into owned columns.
 *
 * BranchRecord is a value materialized on demand (record(), records())
 * for the consumers that want whole records.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/branch_record.hpp"

namespace copra::trace {

class SoABlocks;

/**
 * Iterator over a trace's records for range-for: each dereference
 * materializes a BranchRecord value (not a reference) from the four
 * columns.
 */
class RecordIterator
{
  public:
    RecordIterator(const SoABlocks *soa, size_t i) : soa_(soa), i_(i) {}

    BranchRecord operator*() const;

    RecordIterator &
    operator++()
    {
        ++i_;
        return *this;
    }

    bool operator==(const RecordIterator &) const = default;

  private:
    const SoABlocks *soa_;
    size_t i_;
};

/** Every record of one trace, in order, materialized on dereference. */
struct RecordRange
{
    const SoABlocks *soa;

    RecordIterator begin() const { return {soa, 0}; }
    RecordIterator end() const { return {soa, size()}; }
    size_t size() const;
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

    /** The six stored columns of a trace, as read-only views. */
    struct Columns
    {
        std::span<const uint64_t> pc;
        std::span<const uint64_t> target;
        std::span<const uint8_t> kind;
        std::span<const uint8_t> taken;
        std::span<const uint32_t> staticIndex;
        std::span<const uint64_t> staticPcs;
    };

    SoABlocks() = default;

    /**
     * View @p columns in place; @p image owns the memory they point
     * into and is shared by every copy. One pass verifies the stored
     * static index and derives the segments and conditional count;
     * nothing is copied or hashed per record.
     *
     * @throws std::runtime_error unless the columns have equal length,
     * every kind is a BranchKind, every taken byte is 0 or 1, every
     * staticIndex[i] < staticPcs.size() with staticPcs[staticIndex[i]]
     * == pc[i], the static pcs are distinct, and the ids first appear
     * in order 0, 1, 2, ... and cover all of staticPcs.
     */
    static SoABlocks adopt(std::shared_ptr<const void> image,
                           const Columns &columns);

    SoABlocks(const SoABlocks &other);
    SoABlocks(SoABlocks &&other) noexcept;
    SoABlocks &operator=(SoABlocks other) noexcept;

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
    size_t size() const noexcept { return view_.pc.size(); }

    /** Number of conditional records across all segments. */
    uint64_t conditionalCount() const noexcept { return conditionals_; }

    /** Branch addresses, one per record. */
    const uint64_t *pc() const noexcept { return view_.pc.data(); }

    /** Taken-path targets, one per record. */
    const uint64_t *target() const noexcept { return view_.target.data(); }

    /** BranchKind encodings, one byte per record. */
    const uint8_t *kind() const noexcept { return view_.kind.data(); }

    /** Outcomes (0/1), one byte per record. */
    const uint8_t *taken() const noexcept { return view_.taken.data(); }

    /**
     * Dense static-branch index, one entry per record: records with the
     * same pc share one index in [0, staticCount()), assigned in order
     * of first appearance. Ledger passes accumulate per-branch tallies
     * into a flat array addressed by this column, replacing a hashed
     * map probe per dynamic branch with one indexed add.
     */
    const uint32_t *staticIndex() const noexcept
    {
        return view_.staticIndex.data();
    }

    /** Distinct branch addresses; position = dense static index. */
    std::span<const uint64_t> staticPcs() const { return view_.staticPcs; }

    /** Number of distinct branch addresses in the trace. */
    size_t staticCount() const noexcept { return view_.staticPcs.size(); }

    /** Maximal conditional runs, in trace order. */
    std::span<const Segment> conditionalSegments() const noexcept
    {
        return condSegments_;
    }

    /** Materialize record @p i. */
    BranchRecord
    record(size_t i) const noexcept
    {
        return {view_.pc[i], view_.target[i],
                static_cast<BranchKind>(view_.kind[i]),
                view_.taken[i] != 0};
    }

    /** Every record, materialized on dereference. */
    RecordRange records() const noexcept { return {this}; }

  private:
    /** Columns this object owns (used when image_ is null). */
    struct Owned
    {
        std::vector<uint64_t> pc;
        std::vector<uint64_t> target;
        std::vector<uint8_t> kind;
        std::vector<uint8_t> taken;
        std::vector<uint32_t> staticIndex;
        std::vector<uint64_t> staticPcs;
    };

    /** Before a mutation: copy a shared image into owned columns. */
    void own();

    /** Point the views at the owned columns. */
    void bind();

    /** Dense static id of @p pc, assigning the next id on first sight. */
    uint32_t intern(uint64_t pc);

    /** Rebuild the intern table at @p cap slots from the static pcs. */
    void rehash(size_t cap);

    /** Extend the segment and static indices over record @p i. */
    void indexRecord(size_t i);

    /** Keeps an adopted image alive; null when the columns are owned. */
    std::shared_ptr<const void> image_;
    Owned owned_;
    Columns view_;
    std::vector<Segment> condSegments_;
    /**
     * Open-addressing pc table of the owned columns: slot = static id
     * + 1, 0 = empty. Built on the first append, never for an adopted
     * image that is only read.
     */
    std::vector<uint32_t> slots_;
    uint64_t conditionals_ = 0;
};

inline BranchRecord
RecordIterator::operator*() const
{
    return soa_->record(i_);
}

inline size_t
RecordRange::size() const
{
    return soa->size();
}

} // namespace copra::trace

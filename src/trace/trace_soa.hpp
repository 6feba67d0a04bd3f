/**
 * @file
 * The column store every branch trace lives in.
 *
 * A trace is a sequence of (site, taken) pairs: per record a u32 site
 * id and a u8 outcome, 5 bytes in all. The site table holds one row
 * per distinct (pc, target, kind) triple, ids in order of first
 * appearance, so record(i) is two indexed loads. Two derived indices
 * every pass reuses come with it, without a build step: the dense
 * static-branch id of each site's pc (with its table of distinct
 * pcs), and the maximal runs of consecutive conditional records (the
 * batch boundaries).
 *
 * Traces built in memory (the generator, ingest) own their columns
 * and extend the site table and both indices as records arrive.
 * Traces loaded from a cache-v4 file view the file's site and taken
 * columns in place (a shared read-only mapping): adopt() decodes the
 * small site table, derives the static ids from it, and verifies the
 * records while it derives the segments, copying no record column. A
 * copy of an adopted trace shares its image; the first mutation copies
 * the image once into owned columns.
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
 * materializes a BranchRecord value (not a reference) from the
 * record's site and outcome.
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

    /**
     * The stored columns of a trace, as read-only views: per record a
     * site id and an outcome; per site a pc, a target and a kind.
     */
    struct Columns
    {
        std::span<const uint32_t> site;
        std::span<const uint8_t> taken;
        std::span<const uint64_t> sitePc;
        std::span<const uint64_t> siteTarget;
        std::span<const uint8_t> siteKind;
    };

    SoABlocks() = default;

    /**
     * View the record columns of @p columns in place; @p image owns
     * the memory they point into and is shared by every copy. The
     * site table is decoded (it is small), the static ids are derived
     * from it, and one pass over the records verifies them and derives
     * the segments and conditional count; no record column is copied.
     *
     * @throws std::runtime_error, naming the site or record, unless
     * the columns have consistent lengths, every site kind is a
     * BranchKind, no two sites share a (pc, target, kind) triple,
     * every site id is below the site count and first appears in
     * order 0, 1, 2, ..., every taken byte is 0 or 1, and every site
     * is referenced.
     */
    static SoABlocks adopt(std::shared_ptr<const void> image,
                           const Columns &columns);

    SoABlocks(const SoABlocks &other);
    SoABlocks(SoABlocks &&other) noexcept;
    SoABlocks &operator=(SoABlocks other) noexcept;

    /** Append one record, extending the site table and indices in O(1). */
    void append(const BranchRecord &rec);

    /**
     * Append every record of @p other in order. Site ids are remapped
     * through other.sites(): one intern probe per site of @p other,
     * none per record.
     */
    void append(const SoABlocks &other);

    /** Reserve column storage for @p n records. */
    void reserve(size_t n);

    /** Remove all records. */
    void clear();

    /** Total records (all control-transfer kinds). */
    size_t size() const noexcept { return site_.size(); }

    /** Number of conditional records across all segments. */
    uint64_t conditionalCount() const noexcept { return conditionals_; }

    /** Site ids, one per record: the record's row of sites(). */
    const uint32_t *site() const noexcept { return site_.data(); }

    /** Outcomes (0/1), one byte per record. */
    const uint8_t *taken() const noexcept { return taken_.data(); }

    /** Distinct (pc, target, kind) triples; position = site id. */
    std::span<const Site> sites() const noexcept { return sites_; }

    /** Number of distinct sites in the trace. */
    size_t siteCount() const noexcept { return sites_.size(); }

    /** The site of record @p i. */
    const Site &siteOf(size_t i) const noexcept { return sites_[site_[i]]; }

    /**
     * Dense static-branch id of record @p i: records with the same pc
     * share one id in [0, staticCount()), assigned in order of first
     * appearance. Ledger passes accumulate per-branch tallies into a
     * flat array addressed by this id, replacing a hashed map probe
     * per dynamic branch with one indexed add.
     */
    uint32_t staticIndex(size_t i) const noexcept
    {
        return siteOf(i).branch;
    }

    /** Distinct branch addresses; position = dense static index. */
    std::span<const uint64_t> staticPcs() const noexcept
    {
        return staticPcs_;
    }

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
        const Site &s = siteOf(i);
        return {s.pc, s.target, s.kind, taken_[i] != 0};
    }

    /** Every record, materialized on dereference. */
    RecordRange records() const noexcept { return {this}; }

  private:
    /** Before a mutation: copy a shared image into owned columns. */
    void own();

    /** Point the record views at the owned columns. */
    void bind();

    /** Site id of a triple, adding a site (and pc) on first sight. */
    uint32_t internSite(uint64_t pc, uint64_t target, BranchKind kind);

    /** Dense static id of @p pc, assigning the next id on first sight. */
    uint32_t internPc(uint64_t pc);

    /** Extend the segment index over record @p i of site @p s. */
    void indexRecord(size_t i, const Site &s);

    /** Keeps an adopted image alive; null when the columns are owned. */
    std::shared_ptr<const void> image_;
    std::vector<uint32_t> ownedSite_;
    std::vector<uint8_t> ownedTaken_;
    std::span<const uint32_t> site_;
    std::span<const uint8_t> taken_;
    std::vector<Site> sites_;
    std::vector<uint64_t> staticPcs_;
    std::vector<Segment> condSegments_;
    /**
     * Open-addressing tables over sites_ and staticPcs_: slot = id + 1,
     * 0 = empty. Their size follows the site count, not the record
     * count (adopt() builds them while it decodes the site table).
     */
    std::vector<uint32_t> siteSlots_;
    std::vector<uint32_t> pcSlots_;
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

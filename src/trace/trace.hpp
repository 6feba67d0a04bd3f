/**
 * @file
 * In-memory branch trace container.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "trace/branch_record.hpp"
#include "trace/trace_soa.hpp"

namespace copra::trace {

/**
 * An in-memory branch trace: an ordered sequence of dynamic branch
 * executions plus identifying metadata (benchmark name, generator seed).
 *
 * Traces are append-only during generation and immutable during
 * simulation; all experiment passes iterate the same trace object so
 * per-branch comparisons are exactly aligned.
 *
 * The records are stored once, as the columns of soa() (see
 * trace_soa.hpp), whose segment and static-branch indices grow with
 * every append. A BranchRecord is a value built on demand by
 * operator[] and records(). A copy of a generated trace is deep; a
 * copy of a loaded trace shares the loaded file image, which stays
 * read-only. As with std::vector, append() invalidates pointers
 * obtained from soa() (on a loaded trace it first copies the image
 * into owned columns).
 */
class Trace
{
  public:
    Trace() = default;

    /** @param name Benchmark / workload identification string. */
    explicit Trace(std::string name, uint64_t seed = 0)
        : name_(std::move(name)), seed_(seed)
    {
    }

    /** Adopt a column image (trace loaders). */
    Trace(std::string name, uint64_t seed, SoABlocks columns)
        : name_(std::move(name)), seed_(seed), soa_(std::move(columns))
    {
    }

    /** Workload name this trace was generated from. */
    const std::string &name() const { return name_; }

    /** Set the workload name (used by trace loaders). */
    void setName(std::string name) { name_ = std::move(name); }

    /** Generator seed recorded for reproducibility. */
    uint64_t seed() const { return seed_; }

    /** Set the recorded generator seed. */
    void setSeed(uint64_t seed) { seed_ = seed; }

    /** Append one dynamic branch execution. */
    void append(const BranchRecord &rec) { soa_.append(rec); }

    /** Append every record of @p other in order (bulk concatenation). */
    void appendTrace(const Trace &other) { soa_.append(other.soa_); }

    /** Total records (all control-transfer kinds). */
    size_t size() const { return soa_.size(); }

    /** True when the trace holds no records. */
    bool empty() const { return soa_.size() == 0; }

    /** Number of conditional branch records. */
    uint64_t conditionalCount() const { return soa_.conditionalCount(); }

    /** Record at position @p i. */
    BranchRecord operator[](size_t i) const { return soa_.record(i); }

    /** Every record in order, materialized on dereference. */
    RecordRange records() const { return soa_.records(); }

    /** Reserve storage for @p n records. */
    void reserve(size_t n) { soa_.reserve(n); }

    /** Remove all records. */
    void clear() { soa_.clear(); }

    /** The column image: the trace's only storage. */
    const SoABlocks &soa() const { return soa_; }

  private:
    std::string name_;
    uint64_t seed_ = 0;
    SoABlocks soa_;
};

} // namespace copra::trace

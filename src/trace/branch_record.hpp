/**
 * @file
 * The unit of a branch trace: one dynamic branch execution.
 *
 * The paper's infrastructure is a trace-driven branch prediction simulator;
 * everything in copra consumes streams of BranchRecord.
 */

#pragma once

#include <cstdint>

namespace copra::trace {

/** Control-transfer kinds distinguished in traces. */
enum class BranchKind : uint8_t
{
    Conditional = 0, //!< conditional direct branch (the analysis target)
    Jump = 1,        //!< unconditional direct jump
    Call = 2,        //!< subroutine call
    Return = 3,      //!< subroutine return
};

/**
 * One dynamic branch execution.
 *
 * @note Instruction addresses are byte addresses; the synthetic workloads
 * lay static branches out on 4-byte boundaries like a RISC ISA.
 */
struct BranchRecord
{
    uint64_t pc = 0;     //!< address of the branch instruction
    uint64_t target = 0; //!< taken-path target address
    BranchKind kind = BranchKind::Conditional;
    bool taken = false;  //!< actual outcome (always true for Jump/Call/Return)

    /** True for conditional branches, the only kind predictors predict. */
    bool isConditional() const noexcept
    {
        return kind == BranchKind::Conditional;
    }

    /**
     * True when the taken target precedes the branch: the loop-closing
     * shape used by the paper's backward-branch instance tagging (§3.2).
     */
    bool isBackward() const noexcept { return target < pc; }

    bool
    operator==(const BranchRecord &other) const
    {
        return pc == other.pc && target == other.target &&
            kind == other.kind && taken == other.taken;
    }
};

/**
 * One branch site: a distinct (pc, target, kind) triple of a trace.
 * A trace stores each record as a site id and an outcome; the site
 * table holds the rest. Most pcs have one site; a return, or a
 * foreign trace's indirect branch, has one site per target.
 */
struct Site
{
    uint64_t pc = 0;     //!< address of the branch instruction
    uint64_t target = 0; //!< taken-path target address
    BranchKind kind = BranchKind::Conditional;
    uint32_t branch = 0; //!< dense static id of pc (shared by its sites)
};

/** Human-readable name of a branch kind. */
const char *branchKindName(BranchKind kind);

} // namespace copra::trace


#include "trace/branch_streams.hpp"

namespace copra::trace {

BranchStreams::BranchStreams(const SoABlocks &soa)
    : execs_(soa.staticCount(), 0), wordBegin_(soa.staticCount() + 1, 0)
{
    const uint32_t *site = soa.site();
    const uint8_t *taken = soa.taken();
    // Each site's static id, 4 bytes a row: the gather per record
    // stays in L1 where the 24-byte site rows would not.
    std::vector<uint32_t> branch_of;
    branch_of.reserve(soa.siteCount());
    for (const Site &s : soa.sites())
        branch_of.push_back(s.branch);

    for (const SoABlocks::Segment &seg : soa.conditionalSegments())
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i)
            ++execs_[branch_of[site[i]]];
    for (size_t id = 0; id < execs_.size(); ++id)
        wordBegin_[id + 1] = wordBegin_[id] + (execs_[id] + 63) / 64;
    // One spare word past the last stream (see Stream).
    words_.assign(wordBegin_.back() + 1, 0);

    std::vector<uint64_t> cursor(execs_.size()); // next bit, per id
    for (size_t id = 0; id < execs_.size(); ++id)
        cursor[id] = uint64_t(wordBegin_[id]) * 64;
    for (const SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
            const uint64_t bit = cursor[branch_of[site[i]]]++;
            words_[bit >> 6] |= uint64_t(taken[i]) << (bit & 63);
        }
    }
}

} // namespace copra::trace

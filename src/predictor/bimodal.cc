#include "predictor/bimodal.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace copra::predictor {

Bimodal::Bimodal(unsigned table_bits)
    : tableBits_(table_bits)
{
    fatalIf(table_bits == 0 || table_bits > 30,
            "bimodal table bits must be in 1..30");
    table_.assign(size_t(1) << table_bits, Counter2{});
}

size_t
Bimodal::indexOf(uint64_t pc) const noexcept
{
    // Branches are word aligned; drop the low two bits before indexing.
    return (pc >> 2) & ((size_t(1) << tableBits_) - 1);
}

bool
Bimodal::step(const trace::BranchRecord &br, bool taken) noexcept
{
    Counter2 &counter = table_[indexOf(br.pc)];
    bool prediction = counter.taken();
    counter.update(taken);
    return prediction;
}

std::string
Bimodal::name() const
{
    return "bimodal(" + std::to_string(tableBits_) + "b)";
}

} // namespace copra::predictor

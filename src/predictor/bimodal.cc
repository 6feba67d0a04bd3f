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
Bimodal::predict(const trace::BranchRecord &br) noexcept
{
    return table_[indexOf(br.pc)].taken();
}

void
Bimodal::update(const trace::BranchRecord &br, bool taken) noexcept
{
    table_[indexOf(br.pc)].update(taken);
}

uint64_t
Bimodal::predictUpdateSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept
{
    uint64_t n_correct = 0;
    for (size_t i = 0; i < batch.count; ++i) {
        Counter2 &counter = table_[indexOf(batch.pc[i])];
        bool prediction = counter.taken();
        bool taken = batch.taken[i] != 0;
        counter.update(taken);
        bool correct = prediction == taken;
        n_correct += correct ? 1 : 0;
        if (correct_out)
            correct_out[i] = correct ? 1 : 0;
    }
    return n_correct;
}

void
Bimodal::reset()
{
    std::fill(table_.begin(), table_.end(), Counter2{});
}

std::string
Bimodal::name() const
{
    return "bimodal(" + std::to_string(tableBits_) + "b)";
}

} // namespace copra::predictor

#include "predictor/kernels.hpp"

#include "obs/instruments.hpp"
#include "obs/registry.hpp"

namespace copra::predictor::kernels {

BatchCounters::~BatchCounters()
{
    if (branches == 0)
        return;
    obs::count(obs::ids().simKernelBatches, batches);
    obs::count(obs::ids().simKernelBranches, branches);
}

} // namespace copra::predictor::kernels

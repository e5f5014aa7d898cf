/**
 * @file
 * TraceBuilder implementation.
 */
#include "workloads/trace_builder.hpp"

#include "common/logging.hpp"

namespace impsim {

TraceBuilder::TraceBuilder(std::uint32_t num_cores)
    : numCores_(num_cores), mem_(std::make_shared<FuncMem>())
{
    IMPSIM_CHECK(num_cores > 0, "need at least one core");
    traces_.resize(num_cores);
    barrierPending_.assign(num_cores, 0);
}

Addr
TraceBuilder::allocArray(const std::string &name, std::uint64_t bytes)
{
    return alloc_.alloc(name, bytes);
}

void
TraceBuilder::barrier()
{
    for (auto &b : barrierPending_) {
        IMPSIM_CHECK(!b, "two barriers with no access in between on "
                         "some core (emit a sync access per phase)");
        b = 1;
    }
}

void
TraceBuilder::tail(std::uint32_t core, std::uint64_t instructions)
{
    traces_[core].tailInstructions += instructions;
}

std::vector<CoreTrace>
TraceBuilder::take()
{
    for (std::uint32_t c = 0; c < numCores_; ++c) {
        IMPSIM_CHECK(!barrierPending_[c],
                     "barrier with no subsequent access on some core");
    }
    return std::move(traces_);
}

} // namespace impsim

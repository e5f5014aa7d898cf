/**
 * @file
 * Dense streaming control workload (stands in for the SPLASH-2
 * no-indirection check of §6.1): a[i] = b[i] + c[i] plus a reduction.
 * IMP must neither help nor hurt here.
 */
#include "workloads/apps/app_common.hpp"

namespace impsim {

Workload
makeStreaming(const WorkloadParams &p)
{
    const std::uint32_t elems = scaled(262144, p.scale, 4096);

    TraceBuilder tb(p.numCores);
    Addr a = tb.allocArray("a", std::uint64_t{elems} * 8);
    Addr b = tb.allocArray("b", std::uint64_t{elems} * 8);
    Addr c_arr = tb.allocArray("c", std::uint64_t{elems} * 8);

    enum : std::uint32_t {
        kPcB = 0x5800,
        kPcC,
        kPcA,
        kPcRed,
    };

    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(elems, p.numCores, c);
        // Three accesses per element, then one in the reduction.
        tb.reserve(c, 4 * std::uint64_t{r.size()});
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
            tb.load(c, kPcB, b + i * 8ull, 8, AccessType::Stream, 1);
            tb.load(c, kPcC, c_arr + i * 8ull, 8, AccessType::Stream, 1);
            tb.store(c, kPcA, a + i * 8ull, 8, AccessType::Stream, 1);
        }
    }
    tb.barrier();
    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(elems, p.numCores, c);
        for (std::uint32_t i = r.begin; i < r.end; ++i)
            tb.load(c, kPcRed, a + i * 8ull, 8, AccessType::Stream, 2);
        tb.tail(c, 16);
    }

    Workload w;
    w.name = "streaming";
    w.traces = tb.take();
    w.mem = tb.memPtr();
    return w;
}

} // namespace impsim

/**
 * @file
 * Pagerank kernel (paper §5.3): pull-style iterations over a CSR
 * power-law graph. Each edge reads rank[col] and deg[col] — two
 * indirect ways sharing one index stream (§3.3.2 multi-way).
 */
#include "workloads/apps/app_common.hpp"
#include "workloads/graph_gen.hpp"

namespace impsim {

Workload
makePagerank(const WorkloadParams &p)
{
    const std::uint32_t vertices = pow2Floor(scaled(16384, p.scale, 512));
    const std::uint32_t edges = vertices * 8;
    const std::uint32_t iterations = 2;
    Csr g = makeRmatGraph(vertices, edges, p.seed);

    TraceBuilder tb(p.numCores);
    Addr row_ptr = tb.putArray("row_ptr", g.rowPtr);
    Addr col = tb.putArray("col_idx", g.col);
    Addr rank = tb.allocArray("rank", std::uint64_t{vertices} * 8);
    // Degrees are 32-bit floats: the second indirect way has both a
    // different BaseAddr and a different shift (2 vs 3).
    Addr deg = tb.allocArray("deg", std::uint64_t{vertices} * 4);
    Addr rank_new =
        tb.allocArray("rank_new", std::uint64_t{vertices} * 8);

    enum : std::uint32_t {
        kPcRowPtr = 0x5200,
        kPcCol,
        kPcRank,
        kPcDeg,
        kPcRankNew,
        kPcSwapLd,
        kPcSwapSt,
        kPcColPf,
        kPcPf,
    };

    // Per iteration each vertex emits its row_ptr load, three loads
    // per edge (two more on prefetching edges), the rank_new store and
    // the swap pass's load and store.
    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(vertices, p.numCores, c);
        std::uint64_t n =
            4 * std::uint64_t{r.size()} +
            3 * std::uint64_t{g.rowPtr[r.end] - g.rowPtr[r.begin]};
        if (p.swPrefetch) {
            for (std::uint32_t v = r.begin; v < r.end; ++v)
                n += 2 * swPrefetchIters(g.rowDegree(v));
        }
        tb.reserve(c, iterations * n);
    }

    for (std::uint32_t iter = 0; iter < iterations; ++iter) {
        if (iter > 0)
            tb.barrier();
        for (std::uint32_t c = 0; c < p.numCores; ++c) {
            Range r = coreSlice(vertices, p.numCores, c);
            for (std::uint32_t v = r.begin; v < r.end; ++v) {
                tb.load(c, kPcRowPtr, row_ptr + (v + 1) * 4ull, 4,
                        AccessType::Stream, 2);
                std::uint32_t jb = g.rowPtr[v];
                std::uint32_t je = g.rowPtr[v + 1];
                for (std::uint32_t j = jb; j < je; ++j) {
                    std::size_t col_pos =
                        tb.load(c, kPcCol, col + j * 4ull, 4,
                                AccessType::Stream, 1);
                    if (p.swPrefetch && j + kSwPrefetchDistance < je) {
                        std::uint32_t jd = j + kSwPrefetchDistance;
                        tb.load(c, kPcColPf, col + jd * 4ull, 4,
                                AccessType::Stream, 1);
                        tb.swPrefetch(c, kPcPf,
                                      rank + g.col[jd] * 8ull, 2);
                    }
                    std::uint32_t u = g.col[j];
                    std::size_t here = tb.position(c);
                    tb.load(c, kPcRank, rank + u * 8ull, 8,
                            AccessType::Indirect, 2,
                            static_cast<std::uint32_t>(here - col_pos));
                    here = tb.position(c);
                    tb.load(c, kPcDeg, deg + u * 4ull, 4,
                            AccessType::Indirect, 4,
                            static_cast<std::uint32_t>(here - col_pos));
                }
                tb.store(c, kPcRankNew, rank_new + v * 8ull, 8,
                         AccessType::Stream, 6);
            }
        }
        // Swap phase: rank <- rank_new (streaming pass).
        tb.barrier();
        for (std::uint32_t c = 0; c < p.numCores; ++c) {
            Range r = coreSlice(vertices, p.numCores, c);
            for (std::uint32_t v = r.begin; v < r.end; ++v) {
                tb.load(c, kPcSwapLd, rank_new + v * 8ull, 8,
                        AccessType::Stream, 1);
                tb.store(c, kPcSwapSt, rank + v * 8ull, 8,
                         AccessType::Stream, 1);
            }
        }
    }
    for (std::uint32_t c = 0; c < p.numCores; ++c)
        tb.tail(c, 16);

    Workload w;
    w.name = "pagerank";
    w.traces = tb.take();
    w.mem = tb.memPtr();
    return w;
}

} // namespace impsim

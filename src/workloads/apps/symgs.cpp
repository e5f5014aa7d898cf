/**
 * @file
 * Symmetric Gauss-Seidel kernel (paper §5.3): a forward and a backward
 * triangular sweep over the HPCG-style matrix. Rows are grouped into
 * colors executed under barriers (Park et al.'s level scheduling);
 * the backward sweep scans index arrays with negative stride, and the
 * per-color row interleaving forces frequent IPD redetections — the
 * behaviour Fig 15 attributes to SymGS.
 */
#include "workloads/apps/app_common.hpp"
#include "workloads/sparse_matrix.hpp"

namespace impsim {

namespace {

constexpr std::uint32_t kColors = 4;

enum : std::uint32_t {
    kPcRowPtr = 0x5700,
    kPcCol,
    kPcVal,
    kPcX,
    kPcB,
    kPcXSt,
    kPcColPf,
    kPcPf,
};

/** Accesses emitRow() emits for @p row. */
std::uint64_t
rowAccesses(const Csr &m, std::uint32_t row, bool sw_prefetch)
{
    std::uint32_t deg = m.rowDegree(row);
    return 3 + 3 * std::uint64_t{deg} +
           (sw_prefetch ? 2 * swPrefetchIters(deg) : 0);
}

/** Emits one smoother row update. */
void
emitRow(TraceBuilder &tb, std::uint32_t c, const Csr &m, Addr row_ptr,
        Addr col, Addr val, Addr x, Addr b, std::uint32_t row,
        bool backward, bool sw_prefetch)
{
    tb.load(c, kPcRowPtr, row_ptr + (row + 1) * 4ull, 4,
            AccessType::Stream, 2);
    std::uint32_t jb = m.rowPtr[row];
    std::uint32_t je = m.rowPtr[row + 1];
    for (std::uint32_t i = 0; i < je - jb; ++i) {
        // The backward sweep walks each row's nonzeros in reverse.
        std::uint32_t j = backward ? je - 1 - i : jb + i;
        std::size_t cp =
            tb.load(c, kPcCol, col + j * 4ull, 4, AccessType::Stream, 1);
        tb.load(c, kPcVal, val + j * 8ull, 8, AccessType::Stream, 0);
        if (sw_prefetch && i + kSwPrefetchDistance < je - jb) {
            std::uint32_t jd = backward ? je - 1 - (i + kSwPrefetchDistance)
                                        : jb + i + kSwPrefetchDistance;
            tb.load(c, kPcColPf, col + jd * 4ull, 4, AccessType::Stream,
                    1);
            tb.swPrefetch(c, kPcPf, x + m.col[jd] * 8ull, 2);
        }
        std::size_t here = tb.position(c);
        tb.load(c, kPcX, x + m.col[j] * 8ull, 8, AccessType::Indirect, 2,
                static_cast<std::uint32_t>(here - cp));
    }
    tb.load(c, kPcB, b + row * 8ull, 8, AccessType::Stream, 2);
    tb.store(c, kPcXSt, x + row * 8ull, 8, AccessType::Stream, 3);
}

} // namespace

Workload
makeSymgs(const WorkloadParams &p)
{
    const std::uint32_t rows = scaled(16384, p.scale, 512);
    const std::uint32_t nnz_per_row = 10;
    const std::uint32_t bandwidth = std::max(rows / 4, 64u);
    Csr m = makeBandedMatrix(rows, nnz_per_row, bandwidth, p.seed);

    TraceBuilder tb(p.numCores);
    Addr row_ptr = tb.putArray("row_ptr", m.rowPtr);
    Addr col = tb.putArray("col_idx", m.col);
    Addr val = tb.allocArray("values", std::uint64_t{m.nnz()} * 8);
    Addr x = tb.allocArray("x", std::uint64_t{rows} * 8);
    Addr b = tb.allocArray("b", std::uint64_t{rows} * 8);

    // Level scheduling (Park et al.): each color is a contiguous block
    // of rows, split contiguously over cores, so threads stream
    // through their rows. For each offset i of its slice, core c
    // updates row cbase + i in the forward sweep and row
    // cbase + per_color - 1 - i in the backward one, in every color.
    const std::uint32_t per_color = rows / kColors;
    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(per_color, p.numCores, c);
        std::uint64_t n = 0;
        for (std::uint32_t color = 0; color < kColors; ++color) {
            std::uint32_t cbase = color * per_color;
            for (std::uint32_t i = r.begin; i < r.end; ++i) {
                n += rowAccesses(m, cbase + i, p.swPrefetch) +
                     rowAccesses(m, cbase + per_color - 1 - i,
                                 p.swPrefetch);
            }
        }
        tb.reserve(c, n);
    }

    for (int sweep = 0; sweep < 2; ++sweep) {
        bool backward = sweep == 1;
        for (std::uint32_t color = 0; color < kColors; ++color) {
            if (sweep != 0 || color != 0)
                tb.barrier();
            std::uint32_t cbase = color * per_color;
            for (std::uint32_t c = 0; c < p.numCores; ++c) {
                Range r = coreSlice(per_color, p.numCores, c);
                for (std::uint32_t i = r.begin; i < r.end; ++i) {
                    std::uint32_t idx =
                        backward ? per_color - 1 - i : i;
                    emitRow(tb, c, m, row_ptr, col, val, x, b,
                            cbase + idx, backward, p.swPrefetch);
                }
            }
        }
    }
    for (std::uint32_t c = 0; c < p.numCores; ++c)
        tb.tail(c, 16);

    Workload w;
    w.name = "symgs";
    w.traces = tb.take();
    w.mem = tb.memPtr();
    return w;
}

} // namespace impsim

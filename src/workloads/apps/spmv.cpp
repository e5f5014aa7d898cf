/**
 * @file
 * SpMV kernel (paper §5.3): y = A*x over an HPCG-style CSR matrix with
 * a dense vector. The x[col[j]] reads are the canonical A[B[i]]
 * pattern with Coeff 8 (shift 3).
 */
#include "workloads/apps/app_common.hpp"
#include "workloads/sparse_matrix.hpp"

namespace impsim {

Workload
makeSpmv(const WorkloadParams &p)
{
    const std::uint32_t rows = scaled(32768, p.scale, 512);
    const std::uint32_t nnz_per_row = 10;
    const std::uint32_t bandwidth = std::max(rows / 4, 64u);
    Csr m = makeBandedMatrix(rows, nnz_per_row, bandwidth, p.seed);

    TraceBuilder tb(p.numCores);
    Addr row_ptr = tb.putArray("row_ptr", m.rowPtr);
    Addr col = tb.putArray("col_idx", m.col);
    Addr val = tb.allocArray("values", std::uint64_t{m.nnz()} * 8);
    Addr x = tb.allocArray("x", std::uint64_t{rows} * 8);
    Addr y = tb.allocArray("y", std::uint64_t{rows} * 8);

    enum : std::uint32_t {
        kPcRowPtr = 0x5100,
        kPcCol,
        kPcVal,
        kPcX,
        kPcY,
        kPcColPf,
        kPcPf,
    };

    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(rows, p.numCores, c);
        // Per row: the row_ptr load and y store, three loads per
        // nonzero and two more per prefetching nonzero.
        std::uint64_t n =
            2 * std::uint64_t{r.size()} +
            3 * std::uint64_t{m.rowPtr[r.end] - m.rowPtr[r.begin]};
        if (p.swPrefetch) {
            for (std::uint32_t row = r.begin; row < r.end; ++row)
                n += 2 * swPrefetchIters(m.rowDegree(row));
        }
        tb.reserve(c, n);
        for (std::uint32_t row = r.begin; row < r.end; ++row) {
            tb.load(c, kPcRowPtr, row_ptr + (row + 1) * 4ull, 4,
                    AccessType::Stream, 2);
            std::uint32_t jb = m.rowPtr[row];
            std::uint32_t je = m.rowPtr[row + 1];
            for (std::uint32_t j = jb; j < je; ++j) {
                std::size_t col_pos =
                    tb.load(c, kPcCol, col + j * 4ull, 4,
                            AccessType::Stream, 1);
                tb.load(c, kPcVal, val + j * 8ull, 8,
                        AccessType::Stream, 0);
                if (p.swPrefetch && j + kSwPrefetchDistance < je) {
                    // prefetch x[col[j + D]]: load the future index,
                    // compute its address, then the prefetch itself.
                    std::uint32_t jd = j + kSwPrefetchDistance;
                    tb.load(c, kPcColPf, col + jd * 4ull, 4,
                            AccessType::Stream, 1);
                    tb.swPrefetch(c, kPcPf, x + m.col[jd] * 8ull, 2);
                }
                std::size_t here = tb.position(c);
                tb.load(c, kPcX, x + m.col[j] * 8ull, 8,
                        AccessType::Indirect, 2,
                        static_cast<std::uint32_t>(here - col_pos));
            }
            tb.store(c, kPcY, y + row * 8ull, 8, AccessType::Stream, 3);
        }
        tb.tail(c, 16);
    }

    Workload w;
    w.name = "spmv";
    w.traces = tb.take();
    w.mem = tb.memPtr();
    return w;
}

} // namespace impsim

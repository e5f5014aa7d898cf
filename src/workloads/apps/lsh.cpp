/**
 * @file
 * LSH kernel (paper §5.3): per query, matching hash buckets produce a
 * candidate list whose entries index an id-remap table, whose values
 * index the dataset vectors — a two-level indirection
 * A[B[C[i]]] (§3.3.2, Listing 3).
 */
#include "workloads/apps/app_common.hpp"

#include "common/rng.hpp"

namespace impsim {

Workload
makeLsh(const WorkloadParams &p)
{
    const std::uint32_t points = scaled(16384, p.scale, 1024);
    const std::uint32_t queries = scaled(4096, p.scale, 128);
    const std::uint32_t cands_per_query = 10;
    constexpr std::uint32_t kVecBytes = 16; // 4-dim float vectors.
    constexpr std::uint32_t kPfDistance = 4; // Candidates ahead.

    Rng rng(p.seed);
    // Candidate positions (C) and the id remap table (B).
    std::vector<std::uint32_t> cand(std::uint64_t{queries} *
                                    cands_per_query);
    for (auto &v : cand)
        v = static_cast<std::uint32_t>(rng.below(points));
    std::vector<std::uint32_t> idmap(points);
    for (std::uint32_t i = 0; i < points; ++i)
        idmap[i] = i;
    // Deterministic Fisher-Yates permutation.
    for (std::uint32_t i = points - 1; i > 0; --i) {
        std::uint32_t j = static_cast<std::uint32_t>(rng.below(i + 1));
        std::swap(idmap[i], idmap[j]);
    }

    TraceBuilder tb(p.numCores);
    Addr cand_a = tb.putArray("cand", cand);
    Addr idmap_a = tb.putArray("idmap", idmap);
    Addr data_a =
        tb.allocArray("dataset", std::uint64_t{points} * kVecBytes);
    Addr query_a =
        tb.allocArray("queries", std::uint64_t{queries} * kVecBytes);

    enum : std::uint32_t {
        kPcQuery = 0x5600,
        kPcCand,
        kPcIdmap,
        kPcData,
        kPcCandPf,
        kPcIdmapPf,
        kPcPf,
    };

    // Per query: the query load, three loads per candidate and three
    // more per prefetching candidate.
    const std::uint64_t per_query =
        1 + 3 * std::uint64_t{cands_per_query} +
        (p.swPrefetch ? 3 * swPrefetchIters(cands_per_query, kPfDistance)
                      : 0);
    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(queries, p.numCores, c);
        tb.reserve(c, per_query * r.size());
        for (std::uint32_t q = r.begin; q < r.end; ++q) {
            // Hashing the query: compute-heavy, local data.
            tb.load(c, kPcQuery, query_a + q * std::uint64_t{kVecBytes},
                    16, AccessType::Other, 56);
            std::uint32_t kb = q * cands_per_query;
            std::uint32_t ke = kb + cands_per_query;
            for (std::uint32_t k = kb; k < ke; ++k) {
                std::size_t cp = tb.load(c, kPcCand, cand_a + k * 4ull,
                                         4, AccessType::Stream, 1);
                if (p.swPrefetch && k + kPfDistance < ke) {
                    // Two dependent loads are needed to compute the
                    // prefetch address of a two-level indirection.
                    std::uint32_t kd = k + kPfDistance;
                    tb.load(c, kPcCandPf, cand_a + kd * 4ull, 4,
                            AccessType::Stream, 1);
                    tb.load(c, kPcIdmapPf,
                            idmap_a + cand[kd] * 4ull, 4,
                            AccessType::Indirect, 1);
                    tb.swPrefetch(
                        c, kPcPf,
                        data_a + idmap[cand[kd]] *
                                     std::uint64_t{kVecBytes},
                        2);
                }
                std::size_t here = tb.position(c);
                std::size_t bp =
                    tb.load(c, kPcIdmap, idmap_a + cand[k] * 4ull, 4,
                            AccessType::Indirect, 1,
                            static_cast<std::uint32_t>(here - cp));
                here = tb.position(c);
                // Distance computation against the candidate vector —
                // the expensive filtering step of §5.3.
                tb.load(c, kPcData,
                        data_a + idmap[cand[k]] *
                                     std::uint64_t{kVecBytes},
                        16, AccessType::Indirect, 30,
                        static_cast<std::uint32_t>(here - bp));
            }
        }
        tb.tail(c, 16);
    }

    Workload w;
    w.name = "lsh";
    w.traces = tb.take();
    w.mem = tb.memPtr();
    return w;
}

} // namespace impsim

/**
 * @file
 * SGD collaborative-filtering kernel (paper §5.3): streamed (user,
 * item, rating) triples drive indirect reads and writes of the two
 * factor matrices. Feature rows are 16 B (K = 4 floats), the shift 4
 * Coeff of Table 2, and the read-modify-write exercises IMP's
 * exclusive-prefetch predictor.
 */
#include "workloads/apps/app_common.hpp"

#include "common/rng.hpp"

namespace impsim {

Workload
makeSgd(const WorkloadParams &p)
{
    const std::uint32_t users = scaled(8192, p.scale, 256);
    const std::uint32_t items = scaled(8192, p.scale, 256);
    const std::uint32_t ratings = scaled(131072, p.scale, 2048);
    constexpr std::uint32_t kRowBytes = 16; // K = 4 floats.

    Rng rng(p.seed);
    std::vector<std::uint32_t> uid(ratings), iid(ratings);
    for (std::uint32_t n = 0; n < ratings; ++n) {
        // Zipf-ish skew: popular users/items occur more often, like
        // real ratings data.
        std::uint64_t r1 = rng.below(users);
        std::uint64_t r2 = rng.below(users);
        uid[n] = static_cast<std::uint32_t>(std::min(r1, r2));
        r1 = rng.below(items);
        r2 = rng.below(items);
        iid[n] = static_cast<std::uint32_t>(std::min(r1, r2));
    }

    TraceBuilder tb(p.numCores);
    Addr uid_a = tb.putArray("uid", uid);
    Addr iid_a = tb.putArray("iid", iid);
    Addr rating_a = tb.allocArray("rating", std::uint64_t{ratings} * 4);
    Addr user_f =
        tb.allocArray("user_f", std::uint64_t{users} * kRowBytes);
    Addr item_f =
        tb.allocArray("item_f", std::uint64_t{items} * kRowBytes);

    enum : std::uint32_t {
        kPcUid = 0x5500,
        kPcIid,
        kPcRating,
        kPcUserLd,
        kPcItemLd,
        kPcUserSt,
        kPcItemSt,
        kPcUidPf,
        kPcIidPf,
        kPcPfU,
        kPcPfI,
    };

    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(ratings, p.numCores, c);
        // Seven accesses per rating, four more per prefetching one.
        tb.reserve(c, 7 * std::uint64_t{r.size()} +
                          (p.swPrefetch ? 4 * swPrefetchIters(r.size())
                                        : 0));
        for (std::uint32_t n = r.begin; n < r.end; ++n) {
            std::size_t up = tb.load(c, kPcUid, uid_a + n * 4ull, 4,
                                     AccessType::Stream, 2);
            std::size_t ip = tb.load(c, kPcIid, iid_a + n * 4ull, 4,
                                     AccessType::Stream, 1);
            tb.load(c, kPcRating, rating_a + n * 4ull, 4,
                    AccessType::Stream, 0);
            if (p.swPrefetch && n + kSwPrefetchDistance < r.end) {
                std::uint32_t nd = n + kSwPrefetchDistance;
                tb.load(c, kPcUidPf, uid_a + nd * 4ull, 4,
                        AccessType::Stream, 1);
                tb.swPrefetch(c, kPcPfU,
                              user_f + uid[nd] * std::uint64_t{kRowBytes},
                              2);
                tb.load(c, kPcIidPf, iid_a + nd * 4ull, 4,
                        AccessType::Stream, 1);
                tb.swPrefetch(c, kPcPfI,
                              item_f + iid[nd] * std::uint64_t{kRowBytes},
                              2);
            }
            Addr urow = user_f + uid[n] * std::uint64_t{kRowBytes};
            Addr irow = item_f + iid[n] * std::uint64_t{kRowBytes};
            std::size_t here = tb.position(c);
            tb.load(c, kPcUserLd, urow, 16, AccessType::Indirect, 1,
                    static_cast<std::uint32_t>(here - up));
            here = tb.position(c);
            tb.load(c, kPcItemLd, irow, 16, AccessType::Indirect, 1,
                    static_cast<std::uint32_t>(here - ip));
            // Dot product, error, gradient step (K fused
            // multiply-adds plus the least-squares update).
            here = tb.position(c);
            tb.store(c, kPcUserSt, urow, 16, AccessType::Indirect, 36,
                     static_cast<std::uint32_t>(here - up));
            here = tb.position(c);
            tb.store(c, kPcItemSt, irow, 16, AccessType::Indirect, 8,
                     static_cast<std::uint32_t>(here - ip));
        }
        tb.tail(c, 16);
    }

    Workload w;
    w.name = "sgd";
    w.traces = tb.take();
    w.mem = tb.memPtr();
    return w;
}

} // namespace impsim

// Collective-op tracing demo: a 12-rank, 3-ranks-per-node two-level world
// runs every collective schedule builder so that
//
//   MPICD_TRACE=1 MPICD_TRACE_FILE=coll_trace.json ./coll_trace_demo
//
// produces one Chrome trace containing ALL ranks' coll.op_begin /
// coll.round / coll.step_send / coll.step_recv / coll.op_end instants
// plus every point-to-point span they spawned — the input
// tools/coll_analyze.py needs to rebuild op -> round -> message trees and
// the cross-rank critical path (docs/OBSERVABILITY.md).
//
// Every op runs on the one collective executor (docs/COLLECTIVES.md §3);
// the mix covers every builder:
//   - ibarrier                 flat dissemination
//   - ibcast_bytes             hierarchical binomial (root -> leaders ->
//                              members), exercising the uplink serializer
//   - ibcast_custom            the same tree with a custom-datatype payload
//                              rooted at a non-leader rank
//   - iallreduce               hierarchical reduce+bcast over doubles
//   - igather_bytes            leader aggregation to a non-leader root
//   - allgatherv_bytes         leader aggregation with variable per-rank
//                              extents and superblock exchange
//   - gatherv_bytes / _custom  direct fan-in (bytes, custom objects)
//   - alltoallv_bytes / _custom direct pairwise exchange
// and then repeats bcast, gather, allreduce and allgatherv with the flat
// algorithm forced (coll::set_algo_override), so both builders of every
// topology-aware family appear in the trace.
#include <atomic>
#include <cstdio>
#include <vector>

#include "base/metrics.hpp"
#include "base/trace.hpp"
#include "core/paper_types.hpp"
#include "core/traits.hpp"
#include "p2p/coll/nonblocking.hpp"
#include "p2p/coll/vcoll.hpp"
#include "p2p/runner.hpp"

namespace {

using namespace mpicd;
using namespace mpicd::p2p;

constexpr int kRanks = 12;
constexpr int kRanksPerNode = 3;
constexpr std::size_t kBcastBytes = 32 * 1024;
constexpr std::size_t kReduceDoubles = 2048;
constexpr Count kGatherBytes = 512;
constexpr Count kCustomElems = 64;

std::byte pattern(int rank, std::size_t i) {
    return static_cast<std::byte>(rank * 17 + static_cast<int>(i));
}

core::StructSimple record(int rank, int i) {
    core::StructSimple s;
    s.a = rank;
    s.b = i;
    s.c = rank * 1000 + i;
    s.d = rank + 0.25 * i;
    return s;
}

bool same(const core::StructSimple& x, const core::StructSimple& y) {
    return x.a == y.a && x.b == y.b && x.c == y.c && x.d == y.d;
}

// The topology-aware families: bcast, allreduce, gather, allgatherv.
void run_tree_ops(Communicator& comm, std::atomic<int>& failures) {
    const int r = comm.rank();
    const int n = comm.size();

    // Broadcast of a 32 KiB block from rank 0.
    std::vector<std::byte> blob(kBcastBytes);
    if (r == 0) {
        for (std::size_t i = 0; i < blob.size(); ++i)
            blob[i] = static_cast<std::byte>(i * 131u);
    }
    if (coll::ibcast_bytes(comm, blob.data(), Count(blob.size()), 0).wait() !=
        Status::success)
        ++failures;
    for (std::size_t i = 0; i < blob.size(); ++i) {
        if (blob[i] != static_cast<std::byte>(i * 131u)) {
            ++failures;
            break;
        }
    }

    // Allreduce (sum) over doubles.
    std::vector<double> acc(kReduceDoubles);
    for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = static_cast<double>(r) + 0.5;
    if (coll::iallreduce(comm, acc.data(), Count(acc.size()), ReduceOp::sum)
            .wait() != Status::success)
        ++failures;
    const double expect = (n * (n - 1)) / 2.0 + 0.5 * n;
    if (acc[0] != expect || acc.back() != expect) ++failures;

    // Gather to rank 4, a plain member of its node.
    constexpr int kGatherRoot = 4;
    std::vector<std::byte> mine(static_cast<std::size_t>(kGatherBytes));
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = pattern(r, i);
    std::vector<std::byte> gathered(
        r == kGatherRoot ? static_cast<std::size_t>(kGatherBytes * n) : 0);
    if (coll::igather_bytes(comm, mine.data(), kGatherBytes,
                            r == kGatherRoot ? gathered.data() : nullptr,
                            kGatherRoot)
            .wait() != Status::success)
        ++failures;
    if (r == kGatherRoot) {
        for (int src = 0; src < n; ++src)
            for (Count i = 0; i < kGatherBytes; ++i)
                if (gathered[static_cast<std::size_t>(src * kGatherBytes + i)] !=
                    pattern(src, static_cast<std::size_t>(i))) {
                    ++failures;
                    src = n;
                    break;
                }
    }

    // Allgatherv with ragged per-rank extents (rank i contributes
    // (i+1)*64 bytes).
    std::vector<Count> counts(static_cast<std::size_t>(n));
    std::vector<Count> displs(static_cast<std::size_t>(n));
    Count total = 0;
    for (int i = 0; i < n; ++i) {
        counts[static_cast<std::size_t>(i)] = Count((i + 1) * 64);
        displs[static_cast<std::size_t>(i)] = total;
        total += counts[static_cast<std::size_t>(i)];
    }
    std::vector<std::byte> block(
        static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]));
    for (std::size_t i = 0; i < block.size(); ++i) block[i] = pattern(r, i);
    std::vector<std::byte> all(static_cast<std::size_t>(total));
    if (coll::allgatherv_bytes(comm, block.data(), Count(block.size()),
                               all.data(), counts, displs) != Status::success)
        ++failures;
    for (int i = 0; i < n; ++i) {
        const auto off =
            static_cast<std::size_t>(displs[static_cast<std::size_t>(i)]);
        const auto len =
            static_cast<std::size_t>(counts[static_cast<std::size_t>(i)]);
        for (std::size_t j = 0; j < len; ++j) {
            if (all[off + j] != pattern(i, j)) {
                ++failures;
                j = len;
                i = n - 1;
            }
        }
    }
}

// Custom-datatype broadcast and the direct-exchange v-variants.
void run_custom_and_v_ops(Communicator& comm, std::atomic<int>& failures) {
    const int r = comm.rank();
    const int n = comm.size();
    const auto& type = core::custom_datatype_of<core::StructSimple>();

    // Custom-datatype broadcast from rank 7 (a non-leader).
    constexpr int kBcastRoot = 7;
    std::vector<core::StructSimple> recs(static_cast<std::size_t>(kCustomElems));
    if (r == kBcastRoot)
        for (int i = 0; i < kCustomElems; ++i)
            recs[static_cast<std::size_t>(i)] = record(kBcastRoot, i);
    if (coll::ibcast_custom(comm, recs.data(), kCustomElems, type, kBcastRoot)
            .wait() != Status::success)
        ++failures;
    for (int i = 0; i < kCustomElems; ++i)
        if (!same(recs[static_cast<std::size_t>(i)], record(kBcastRoot, i))) {
            ++failures;
            break;
        }

    // gatherv_bytes to rank 2: rank i contributes (i % 4) * 32 bytes, so
    // some ranks send nothing.
    std::vector<Count> counts(static_cast<std::size_t>(n));
    std::vector<Count> displs(static_cast<std::size_t>(n));
    Count total = 0;
    for (int i = 0; i < n; ++i) {
        counts[static_cast<std::size_t>(i)] = Count((i % 4) * 32);
        displs[static_cast<std::size_t>(i)] = total;
        total += counts[static_cast<std::size_t>(i)];
    }
    std::vector<std::byte> mine(
        static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]));
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = pattern(r, i);
    std::vector<std::byte> gathered(static_cast<std::size_t>(total));
    if (coll::gatherv_bytes(comm, mine.data(), Count(mine.size()),
                            gathered.data(), counts, displs, 2) !=
        Status::success)
        ++failures;
    if (r == 2) {
        for (int i = 0; i < n; ++i)
            for (Count j = 0; j < counts[static_cast<std::size_t>(i)]; ++j)
                if (gathered[static_cast<std::size_t>(
                        displs[static_cast<std::size_t>(i)] + j)] !=
                    pattern(i, static_cast<std::size_t>(j))) {
                    ++failures;
                    i = n;
                    break;
                }
    }

    // alltoallv_bytes: rank s sends (s + d) % 3 * 16 bytes to rank d.
    auto a2a = [](int s, int d) { return Count(((s + d) % 3) * 16); };
    std::vector<Count> sc(static_cast<std::size_t>(n)), sd(sc.size());
    std::vector<Count> rc(sc.size()), rd(sc.size());
    Count stotal = 0, rtotal = 0;
    for (int p = 0; p < n; ++p) {
        const auto k = static_cast<std::size_t>(p);
        sc[k] = a2a(r, p);
        sd[k] = stotal;
        stotal += sc[k];
        rc[k] = a2a(p, r);
        rd[k] = rtotal;
        rtotal += rc[k];
    }
    std::vector<std::byte> sbuf(static_cast<std::size_t>(stotal));
    for (int p = 0; p < n; ++p)
        for (Count j = 0; j < sc[static_cast<std::size_t>(p)]; ++j)
            sbuf[static_cast<std::size_t>(sd[static_cast<std::size_t>(p)] + j)] =
                pattern(r * n + p, static_cast<std::size_t>(j));
    std::vector<std::byte> rbuf(static_cast<std::size_t>(rtotal));
    if (coll::alltoallv_bytes(comm, sbuf.data(), sc, sd, rbuf.data(), rc, rd) !=
        Status::success)
        ++failures;
    for (int p = 0; p < n; ++p)
        for (Count j = 0; j < rc[static_cast<std::size_t>(p)]; ++j)
            if (rbuf[static_cast<std::size_t>(rd[static_cast<std::size_t>(p)] +
                                              j)] !=
                pattern(p * n + r, static_cast<std::size_t>(j))) {
                ++failures;
                p = n;
                break;
            }

    // gatherv_custom to rank 5 and alltoallv_custom: one custom-typed
    // record per rank pair, received into pre-shaped objects.
    const core::StructSimple own = record(r, 0);
    std::vector<core::StructSimple> slots(static_cast<std::size_t>(n));
    std::vector<void*> slot_ptrs(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p)
        slot_ptrs[static_cast<std::size_t>(p)] = &slots[static_cast<std::size_t>(p)];
    if (coll::gatherv_custom(comm, &own, type, slot_ptrs, 5) != Status::success)
        ++failures;
    if (r == 5) {
        for (int p = 0; p < n; ++p)
            if (!same(slots[static_cast<std::size_t>(p)], record(p, 0))) {
                ++failures;
                break;
            }
    }

    std::vector<core::StructSimple> outgoing(static_cast<std::size_t>(n));
    std::vector<const void*> send_ptrs(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
        outgoing[static_cast<std::size_t>(p)] = record(r, p);
        send_ptrs[static_cast<std::size_t>(p)] = &outgoing[static_cast<std::size_t>(p)];
    }
    if (coll::alltoallv_custom(comm, send_ptrs, slot_ptrs, type) !=
        Status::success)
        ++failures;
    for (int p = 0; p < n; ++p)
        if (!same(slots[static_cast<std::size_t>(p)], record(p, r))) {
            ++failures;
            break;
        }
}

} // namespace

int main() {
    netsim::WireParams params;
    params.ranks_per_node = kRanksPerNode;

    std::atomic<int> failures{0};
    run_world(kRanks, [&](Communicator& comm) {
        // Everyone synchronizes (flat dissemination).
        if (coll::ibarrier(comm).wait() != Status::success) ++failures;

        // Pass 1: automatic selection picks the hierarchical builders.
        run_tree_ops(comm, failures);
        run_custom_and_v_ops(comm, failures);

        // Pass 2: the flat builders. Rank 0 forces the algorithm before it
        // enters the barrier, so every rank leaves the barrier seeing the
        // override.
        if (comm.rank() == 0) coll::set_algo_override(coll::Algo::flat);
        if (coll::ibarrier(comm).wait() != Status::success) ++failures;
        run_tree_ops(comm, failures);
    }, params);
    coll::set_algo_override(std::nullopt);

    const auto ts = trace::stats();
    std::printf("coll_trace_demo: ranks=%d failures=%d trace: enabled=%d "
                "recorded=%llu dropped=%llu\n",
                kRanks, failures.load(), trace::enabled() ? 1 : 0,
                static_cast<unsigned long long>(ts.recorded),
                static_cast<unsigned long long>(ts.dropped));

    std::printf("\n--- metrics snapshot ---\n");
    metrics().write_json(stdout, 0);
    std::printf("\n");
    return failures.load() == 0 ? 0 : 1;
}

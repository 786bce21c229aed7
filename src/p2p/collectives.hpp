// Collective operations — the paper's future-work extension (§VIII: "We
// also leave the integration with collective operations as future work").
//
// Blocking forms of the nonblocking collectives in p2p/coll/nonblocking.hpp
// (start, then wait); see that header (and docs/COLLECTIVES.md) for
// the algorithms and the topology-aware selection. The v-variants
// (per-rank variable counts) live in p2p/coll/vcoll.hpp.
//
// All collective traffic runs on a reserved tag context
// (kCollContextBit), so it can never collide with point-to-point
// traffic on ANY user tag — the tag parameters the historical API took
// (and the 0x7FFF0000-window convention they implied) are gone.
//
// Custom datatypes are supported for bcast (every non-root receives with
// its own custom type, so the receive-side size contract of §VI holds);
// reductions over custom types would need the predefined-type information
// the paper discusses in §VI and are intentionally not offered.
//
// All collectives here block until completion and must be entered by
// every rank of the universe in the same order (they progress the fabric
// internally).
#pragma once

#include "p2p/coll/nonblocking.hpp"

namespace mpicd::p2p {

// Synchronize all ranks (dissemination barrier).
[[nodiscard]] inline Status barrier(Communicator& comm) {
    return coll::ibarrier(comm).wait();
}

// Broadcast `n` raw bytes from `root` (binomial tree; hierarchical on
// two-level topologies).
[[nodiscard]] inline Status bcast_bytes(Communicator& comm, void* buf, Count n,
                                        int root) {
    return coll::ibcast_bytes(comm, buf, n, root).wait();
}

// Broadcast `count` elements of a committed derived datatype from `root`.
[[nodiscard]] inline Status bcast(Communicator& comm, void* buf, Count count,
                                  const dt::TypeRef& type, int root) {
    return coll::ibcast(comm, buf, count, type, root).wait();
}

// Broadcast a custom-datatype buffer from `root`. Every rank passes its
// own (pre-shaped) object; non-roots receive into it.
[[nodiscard]] inline Status bcast_custom(Communicator& comm, void* buf, Count count,
                                         const core::CustomDatatype& type, int root) {
    return coll::ibcast_custom(comm, buf, count, type, root).wait();
}

// Gather `n` bytes from every rank into `recv` (rank i's block at i*n) at
// the root; `recv` may be null on non-roots (and everywhere when n == 0).
[[nodiscard]] inline Status gather_bytes(Communicator& comm, const void* send,
                                         Count n, void* recv, int root) {
    return coll::igather_bytes(comm, send, n, recv, root).wait();
}

// Element-wise allreduce over doubles / int64 (binomial-tree reduction to
// rank 0 followed by a binomial broadcast — NOT recursive doubling; see
// docs/COLLECTIVES.md for the cost model and the NaN semantics of
// ReduceOp::min/max, which follow std::min/std::max).
[[nodiscard]] inline Status allreduce(Communicator& comm, double* data, Count count,
                                      ReduceOp op) {
    return coll::iallreduce(comm, data, count, op).wait();
}
[[nodiscard]] inline Status allreduce(Communicator& comm, std::int64_t* data,
                                      Count count, ReduceOp op) {
    return coll::iallreduce(comm, data, count, op).wait();
}

} // namespace mpicd::p2p

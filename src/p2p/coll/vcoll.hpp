// v-variant collectives: per-rank variable counts (MPI_Gatherv /
// MPI_Allgatherv / MPI_Alltoallv analogs) over raw bytes, derived
// datatypes, and custom datatypes.
//
// One front door per family: igatherv / iallgatherv / ialltoallv over
// Payload blocks (p2p/payload.hpp), one per peer, indexed by rank. They
// alone validate and launch; the per-kind forms below are forwards. The
// one validation, in order: the communicator status, the root, spans of
// comm.size() blocks (gatherv reads its receive blocks at the root only),
// Payload::check() on every block, a non-null object behind every custom
// block, and the self-block rule: this rank's own receive block is bytes
// exactly when its send is and has the same wire_bytes() (-1 for two
// custom blocks). All but the communicator status and err_not_committed
// are err_arg, and a rank that fails reserves no tag block.
//
// Byte and derived forms take per-rank counts and displacements (bytes for
// the _bytes family, elements of the receive type for the derived family),
// mirroring the MPI calling convention. The custom forms work at OBJECT
// granularity: every rank contributes one custom-typed object and
// receivers pass one pre-shaped object per source rank, whose own query
// callback sizes each incoming object (the §VI size contract).
//
// allgatherv is topology-aware (flat direct exchange vs node-leader
// aggregation, chosen by select_algo; docs/COLLECTIVES.md) exactly when
// every block is bytes. Every other v-collective is a direct
// point-to-point exchange on the collective tag plane. Empty blocks move
// no wire traffic on either side.
//
// The i-forms return a CollRequest run by the one collective executor
// (with its loss watchdog); the blocking forms wait on it. Payload, count,
// displacement and object-pointer spans are read only during the call;
// the buffers they describe follow the nonblocking buffer contract.
// Every rank must enter the collectives in the same order.
#pragma once

#include <span>

#include "p2p/coll/request.hpp"

namespace mpicd::p2p::coll {

// --- Payload blocks: the front door. `recv` (and alltoallv's `send`) hold
// one block per peer, indexed by rank. ------------------------------------
[[nodiscard]] CollRequest igatherv(Communicator& comm, const Payload& send,
                                   std::span<const Payload> recv, int root);
[[nodiscard]] CollRequest iallgatherv(Communicator& comm, const Payload& send,
                                      std::span<const Payload> recv);
[[nodiscard]] CollRequest ialltoallv(Communicator& comm,
                                     std::span<const Payload> send,
                                     std::span<const Payload> recv);

// --- Raw bytes (counts/displacements in bytes). ---------------------------
[[nodiscard]] CollRequest igatherv_bytes(Communicator& comm, const void* send,
                                         Count sendn, void* recv,
                                         std::span<const Count> recvcounts,
                                         std::span<const Count> displs, int root);
[[nodiscard]] CollRequest iallgatherv_bytes(Communicator& comm, const void* send,
                                            Count sendn, void* recv,
                                            std::span<const Count> counts,
                                            std::span<const Count> displs);
[[nodiscard]] CollRequest ialltoallv_bytes(Communicator& comm, const void* send,
                                           std::span<const Count> sendcounts,
                                           std::span<const Count> sdispls,
                                           void* recv,
                                           std::span<const Count> recvcounts,
                                           std::span<const Count> rdispls);

// --- Derived datatypes (counts in elements, displacements in elements of
// the receive type's extent, as in MPI). -----------------------------------
[[nodiscard]] CollRequest igatherv(Communicator& comm, const void* send,
                                   Count sendcount, const dt::TypeRef& sendtype,
                                   void* recv, std::span<const Count> recvcounts,
                                   std::span<const Count> displs,
                                   const dt::TypeRef& recvtype, int root);
[[nodiscard]] CollRequest iallgatherv(Communicator& comm, const void* send,
                                      Count sendcount, const dt::TypeRef& sendtype,
                                      void* recv, std::span<const Count> recvcounts,
                                      std::span<const Count> displs,
                                      const dt::TypeRef& recvtype);
[[nodiscard]] CollRequest ialltoallv(Communicator& comm, const void* send,
                                     std::span<const Count> sendcounts,
                                     std::span<const Count> sdispls,
                                     const dt::TypeRef& sendtype, void* recv,
                                     std::span<const Count> recvcounts,
                                     std::span<const Count> rdispls,
                                     const dt::TypeRef& recvtype);

// --- Custom datatypes (one object per rank pair; see the header note).
// gatherv_custom: `recv` holds comm.size() pre-shaped objects at the root
// (ignored elsewhere; recv[root] receives the root's own object through a
// loopback transfer so the pack/unpack callbacks run for it too).
[[nodiscard]] CollRequest igatherv_custom(Communicator& comm, const void* send,
                                          const core::CustomDatatype& type,
                                          std::span<void* const> recv, int root);
// allgatherv_custom: every rank passes comm.size() pre-shaped objects.
[[nodiscard]] CollRequest iallgatherv_custom(Communicator& comm, const void* send,
                                             const core::CustomDatatype& type,
                                             std::span<void* const> recv);
// alltoallv_custom: `send` holds one object per destination rank, `recv`
// one pre-shaped object per source rank.
[[nodiscard]] CollRequest ialltoallv_custom(Communicator& comm,
                                            std::span<const void* const> send,
                                            std::span<void* const> recv,
                                            const core::CustomDatatype& type);

// --- Blocking forms. -------------------------------------------------------
[[nodiscard]] inline Status gatherv_bytes(Communicator& comm, const void* send,
                                          Count sendn, void* recv,
                                          std::span<const Count> recvcounts,
                                          std::span<const Count> displs, int root) {
    return igatherv_bytes(comm, send, sendn, recv, recvcounts, displs, root).wait();
}
[[nodiscard]] inline Status allgatherv_bytes(Communicator& comm, const void* send,
                                             Count sendn, void* recv,
                                             std::span<const Count> counts,
                                             std::span<const Count> displs) {
    return iallgatherv_bytes(comm, send, sendn, recv, counts, displs).wait();
}
[[nodiscard]] inline Status alltoallv_bytes(Communicator& comm, const void* send,
                                            std::span<const Count> sendcounts,
                                            std::span<const Count> sdispls,
                                            void* recv,
                                            std::span<const Count> recvcounts,
                                            std::span<const Count> rdispls) {
    return ialltoallv_bytes(comm, send, sendcounts, sdispls, recv, recvcounts,
                            rdispls)
        .wait();
}
[[nodiscard]] inline Status gatherv(Communicator& comm, const void* send,
                                    Count sendcount, const dt::TypeRef& sendtype,
                                    void* recv, std::span<const Count> recvcounts,
                                    std::span<const Count> displs,
                                    const dt::TypeRef& recvtype, int root) {
    return igatherv(comm, send, sendcount, sendtype, recv, recvcounts, displs,
                    recvtype, root)
        .wait();
}
[[nodiscard]] inline Status allgatherv(Communicator& comm, const void* send,
                                       Count sendcount, const dt::TypeRef& sendtype,
                                       void* recv, std::span<const Count> recvcounts,
                                       std::span<const Count> displs,
                                       const dt::TypeRef& recvtype) {
    return iallgatherv(comm, send, sendcount, sendtype, recv, recvcounts, displs,
                       recvtype)
        .wait();
}
[[nodiscard]] inline Status alltoallv(Communicator& comm, const void* send,
                                      std::span<const Count> sendcounts,
                                      std::span<const Count> sdispls,
                                      const dt::TypeRef& sendtype, void* recv,
                                      std::span<const Count> recvcounts,
                                      std::span<const Count> rdispls,
                                      const dt::TypeRef& recvtype) {
    return ialltoallv(comm, send, sendcounts, sdispls, sendtype, recv, recvcounts,
                      rdispls, recvtype)
        .wait();
}
[[nodiscard]] inline Status gatherv_custom(Communicator& comm, const void* send,
                                           const core::CustomDatatype& type,
                                           std::span<void* const> recv, int root) {
    return igatherv_custom(comm, send, type, recv, root).wait();
}
[[nodiscard]] inline Status allgatherv_custom(Communicator& comm, const void* send,
                                              const core::CustomDatatype& type,
                                              std::span<void* const> recv) {
    return iallgatherv_custom(comm, send, type, recv).wait();
}
[[nodiscard]] inline Status alltoallv_custom(Communicator& comm,
                                             std::span<const void* const> send,
                                             std::span<void* const> recv,
                                             const core::CustomDatatype& type) {
    return ialltoallv_custom(comm, send, recv, type).wait();
}

} // namespace mpicd::p2p::coll

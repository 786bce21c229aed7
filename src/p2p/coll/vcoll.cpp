#include "p2p/coll/vcoll.hpp"

#include <algorithm>
#include <optional>
#include <vector>

namespace mpicd::p2p::coll {

namespace {

// Rules 4 and 5 of the validation below for one block: Payload::check(),
// then the null-object rule (a custom block's buffer is the object its
// callbacks run on).
Status block_status(const Payload& p, bool recv) {
    if (const Status st = p.check(recv); !ok(st)) return st;
    if (p.kind() == Payload::Kind::custom && p.buf == nullptr) return Status::err_arg;
    return Status::success;
}

// The one validation of the v-collectives, in order: (1) the communicator,
// (2) the root (rooted families only), (3) span coverage, (4, 5) every
// block, and (6) the self-block rule. `send` holds one block, or one per
// peer when `send_per_peer`; `recv` one per peer, read only when
// `reads_recv` (everywhere but at a gatherv non-root). Self-block rule:
// this rank's own receive block is bytes exactly when its send is, and has
// the same wire_bytes() (-1 for two custom blocks: each receiver's query
// callback sizes its own object).
Status validate(const Communicator& comm, std::optional<int> root,
                std::span<const Payload> send, bool send_per_peer,
                std::span<const Payload> recv, bool reads_recv) {
    if (!ok(comm.status())) return comm.status();
    if (root && (*root < 0 || *root >= comm.size())) return Status::err_arg;
    const auto n = static_cast<std::size_t>(comm.size());
    const std::size_t sends = send_per_peer ? n : 1;
    const std::size_t recvs = reads_recv ? n : 0;
    if (send.size() < sends || recv.size() < recvs) return Status::err_arg;
    for (const Payload& p : send.first(sends))
        if (const Status st = block_status(p, /*recv=*/false); !ok(st)) return st;
    for (const Payload& p : recv.first(recvs))
        if (const Status st = block_status(p, /*recv=*/true); !ok(st)) return st;
    if (!reads_recv) return Status::success;
    const auto r = static_cast<std::size_t>(comm.rank());
    const Payload& own = recv[r];
    const Payload& mine = send[send_per_peer ? r : 0];
    if (own.is_bytes() != mine.is_bytes() || own.wire_bytes() != mine.wire_bytes())
        return Status::err_arg;
    return Status::success;
}

// MPI convention: counts[i] units at displs[i] units into `base`, each
// block a copy of `unit` (bytes, or a derived type whose extent is the
// unit) with its buffer and count set. One block per entry both spans
// have. An empty block, or any block over a null base, gets a null buffer
// (no arithmetic on a null base), so check() rejects a nonzero one.
std::vector<Payload> blocks(const void* base, std::span<const Count> counts,
                            std::span<const Count> displs, const Payload& unit) {
    const Count stride = unit.type != nullptr ? unit.type->extent() : 1;
    std::vector<Payload> out(std::min(counts.size(), displs.size()), unit);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].count = counts[i];
        if (base != nullptr && counts[i] > 0)
            out[i].buf = const_cast<std::byte*>(static_cast<const std::byte*>(base)) +
                         displs[i] * stride;
    }
    return out;
}
const Payload kByteUnit = Payload::bytes(nullptr, 1);
Payload unit_of(const dt::TypeRef& type) { return Payload::derived(nullptr, 1, type); }

// One custom-typed object (one element of `type`) per entry.
template <typename Ptr>
std::vector<Payload> objects(std::span<Ptr const> objs,
                             const core::CustomDatatype& type) {
    std::vector<Payload> out;
    for (const void* obj : objs) out.push_back(Payload::custom_of(obj, 1, type));
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// The three entry points: validate, build the schedule, launch it.

CollRequest igatherv(Communicator& comm, const Payload& send,
                     std::span<const Payload> recv, int root) {
    if (const Status st = validate(comm, root, {&send, 1}, false, recv,
                                   comm.rank() == root);
        !ok(st))
        return error_request(st);
    return launch(comm, build_gatherv(TopologyMap::create(comm), root, send, recv));
}

CollRequest iallgatherv(Communicator& comm, const Payload& send,
                        std::span<const Payload> recv) {
    if (const Status st = validate(comm, std::nullopt, {&send, 1}, false, recv, true);
        !ok(st))
        return error_request(st);
    // Only byte payloads have a hierarchical algorithm (leaders aggregate
    // packed superblocks), so only they go through select_algo.
    recv = recv.first(static_cast<std::size_t>(comm.size()));
    const bool bytes = send.is_bytes() &&
                       std::all_of(recv.begin(), recv.end(),
                                   [](const Payload& p) { return p.is_bytes(); });
    const TopologyMap t = TopologyMap::create(comm);
    return launch(comm,
                  build_allgatherv(t, bytes ? select_algo(t) : Algo::flat, send, recv));
}

CollRequest ialltoallv(Communicator& comm, std::span<const Payload> send,
                       std::span<const Payload> recv) {
    if (const Status st = validate(comm, std::nullopt, send, true, recv, true); !ok(st))
        return error_request(st);
    return launch(comm, build_alltoallv(TopologyMap::create(comm), send, recv));
}

// ---------------------------------------------------------------------------
// Per-kind forwards. Typed self-delivery goes through the loopback link so
// the send/receive type pair (or the custom callbacks) run for this rank's
// own block like any other rank's.

CollRequest igatherv_bytes(Communicator& comm, const void* send, Count sendn,
                           void* recv, std::span<const Count> recvcounts,
                           std::span<const Count> displs, int root) {
    return igatherv(comm, Payload::bytes(send, sendn),
                    blocks(recv, recvcounts, displs, kByteUnit), root);
}

CollRequest iallgatherv_bytes(Communicator& comm, const void* send, Count sendn,
                              void* recv, std::span<const Count> counts,
                              std::span<const Count> displs) {
    return iallgatherv(comm, Payload::bytes(send, sendn),
                       blocks(recv, counts, displs, kByteUnit));
}

CollRequest ialltoallv_bytes(Communicator& comm, const void* send,
                             std::span<const Count> sendcounts,
                             std::span<const Count> sdispls, void* recv,
                             std::span<const Count> recvcounts,
                             std::span<const Count> rdispls) {
    return ialltoallv(comm, blocks(send, sendcounts, sdispls, kByteUnit),
                      blocks(recv, recvcounts, rdispls, kByteUnit));
}

CollRequest igatherv(Communicator& comm, const void* send, Count sendcount,
                     const dt::TypeRef& sendtype, void* recv,
                     std::span<const Count> recvcounts, std::span<const Count> displs,
                     const dt::TypeRef& recvtype, int root) {
    return igatherv(comm, Payload::derived(send, sendcount, sendtype),
                    blocks(recv, recvcounts, displs, unit_of(recvtype)), root);
}

CollRequest iallgatherv(Communicator& comm, const void* send, Count sendcount,
                        const dt::TypeRef& sendtype, void* recv,
                        std::span<const Count> recvcounts,
                        std::span<const Count> displs, const dt::TypeRef& recvtype) {
    return iallgatherv(comm, Payload::derived(send, sendcount, sendtype),
                       blocks(recv, recvcounts, displs, unit_of(recvtype)));
}

CollRequest ialltoallv(Communicator& comm, const void* send,
                       std::span<const Count> sendcounts, std::span<const Count> sdispls,
                       const dt::TypeRef& sendtype, void* recv,
                       std::span<const Count> recvcounts, std::span<const Count> rdispls,
                       const dt::TypeRef& recvtype) {
    return ialltoallv(comm, blocks(send, sendcounts, sdispls, unit_of(sendtype)),
                      blocks(recv, recvcounts, rdispls, unit_of(recvtype)));
}

CollRequest igatherv_custom(Communicator& comm, const void* send,
                            const core::CustomDatatype& type,
                            std::span<void* const> recv, int root) {
    return igatherv(comm, Payload::custom_of(send, 1, type), objects(recv, type), root);
}

CollRequest iallgatherv_custom(Communicator& comm, const void* send,
                               const core::CustomDatatype& type,
                               std::span<void* const> recv) {
    return iallgatherv(comm, Payload::custom_of(send, 1, type), objects(recv, type));
}

CollRequest ialltoallv_custom(Communicator& comm, std::span<const void* const> send,
                              std::span<void* const> recv,
                              const core::CustomDatatype& type) {
    return ialltoallv(comm, objects(send, type), objects(recv, type));
}

} // namespace mpicd::p2p::coll

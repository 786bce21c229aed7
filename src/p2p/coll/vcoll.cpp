#include "p2p/coll/vcoll.hpp"

#include <algorithm>
#include <vector>

namespace mpicd::p2p::coll {

namespace {

[[nodiscard]] std::byte* at(const void* base, Count off) noexcept {
    return static_cast<std::byte*>(const_cast<void*>(base)) + off;
}

[[nodiscard]] bool covers(const Communicator& comm, std::size_t entries) {
    return entries >= static_cast<std::size_t>(comm.size());
}

// Per-peer counts/displacements are well formed: comm.size() entries, no
// negative count, and a buffer behind any non-empty block.
[[nodiscard]] bool blocks_ok(const Communicator& comm, std::span<const Count> counts,
                             std::span<const Count> displs, const void* buf) {
    if (!covers(comm, counts.size()) || !covers(comm, displs.size())) return false;
    return std::none_of(counts.begin(), counts.begin() + comm.size(), [&](Count c) {
        return c < 0 || (c > 0 && buf == nullptr);
    });
}

// err_arg for a missing type, err_not_committed for an uncommitted one.
[[nodiscard]] Status type_status(const dt::TypeRef& type) {
    if (type == nullptr) return Status::err_arg;
    return type->committed() ? Status::success : Status::err_not_committed;
}

// comm.size() object pointers, none null.
template <typename Ptr>
[[nodiscard]] bool objects_ok(const Communicator& comm, std::span<Ptr const> objs) {
    return covers(comm, objs.size()) &&
           std::none_of(objs.begin(), objs.begin() + comm.size(),
                        [](const void* p) { return p == nullptr; });
}

// One block per peer: counts[i] units at displs[i] * unit bytes into
// `base`, typed by `type` (null: raw bytes).
std::vector<Payload> blocks(const Communicator& comm, const void* base,
                            std::span<const Count> counts,
                            std::span<const Count> displs, const dt::TypeRef& type) {
    const Count unit = type != nullptr ? type->extent() : 1;
    std::vector<Payload> out(static_cast<std::size_t>(comm.size()));
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = {counts[i] > 0 ? at(base, displs[i] * unit) : nullptr, counts[i],
                  type, nullptr};
    return out;
}

// One custom-typed object (one element of `type`), and one per peer.
Payload object(const void* obj, const core::CustomDatatype& type) {
    return {const_cast<void*>(obj), 1, nullptr, &type};
}
template <typename Ptr>
std::vector<Payload> objects(const Communicator& comm, std::span<Ptr const> objs,
                             const core::CustomDatatype& type) {
    std::vector<Payload> out;
    for (int i = 0; i < comm.size(); ++i)
        out.push_back(object(objs[static_cast<std::size_t>(i)], type));
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Raw bytes

CollRequest igatherv_bytes(Communicator& comm, const void* send, Count sendn,
                           void* recv, std::span<const Count> recvcounts,
                           std::span<const Count> displs, int root) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (root < 0 || root >= comm.size() || sendn < 0)
        return error_request(Status::err_arg);
    if (sendn > 0 && send == nullptr) return error_request(Status::err_arg);
    std::vector<Payload> in;
    if (comm.rank() == root) {
        if (!blocks_ok(comm, recvcounts, displs, recv) ||
            recvcounts[static_cast<std::size_t>(root)] != sendn)
            return error_request(Status::err_arg);
        in = blocks(comm, recv, recvcounts, displs, nullptr);
    }
    return launch(comm, build_gatherv(TopologyMap::create(comm), root,
                                      Payload::bytes(send, sendn), in));
}

CollRequest iallgatherv_bytes(Communicator& comm, const void* send, Count sendn,
                              void* recv, std::span<const Count> counts,
                              std::span<const Count> displs) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (!blocks_ok(comm, counts, displs, recv) || sendn < 0 ||
        (sendn > 0 && send == nullptr) ||
        counts[static_cast<std::size_t>(comm.rank())] != sendn)
        return error_request(Status::err_arg);
    const TopologyMap t = TopologyMap::create(comm);
    return launch(comm, build_allgatherv(t, select_algo(t), Payload::bytes(send, sendn),
                                         blocks(comm, recv, counts, displs, nullptr)));
}

CollRequest ialltoallv_bytes(Communicator& comm, const void* send,
                             std::span<const Count> sendcounts,
                             std::span<const Count> sdispls, void* recv,
                             std::span<const Count> recvcounts,
                             std::span<const Count> rdispls) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (!blocks_ok(comm, sendcounts, sdispls, send) ||
        !blocks_ok(comm, recvcounts, rdispls, recv))
        return error_request(Status::err_arg);
    const auto r = static_cast<std::size_t>(comm.rank());
    if (sendcounts[r] != recvcounts[r]) return error_request(Status::err_arg);
    return launch(comm, build_alltoallv(TopologyMap::create(comm),
                                        blocks(comm, send, sendcounts, sdispls, nullptr),
                                        blocks(comm, recv, recvcounts, rdispls, nullptr)));
}

// ---------------------------------------------------------------------------
// Derived datatypes. Typed self-delivery goes through the loopback link so
// the send/receive type pair is honored like any other rank's.

CollRequest igatherv(Communicator& comm, const void* send, Count sendcount,
                     const dt::TypeRef& sendtype, void* recv,
                     std::span<const Count> recvcounts, std::span<const Count> displs,
                     const dt::TypeRef& recvtype, int root) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (root < 0 || root >= comm.size()) return error_request(Status::err_arg);
    const Payload mine = Payload::derived(send, sendcount, sendtype);
    if (const Status st = mine.check(/*recv=*/false); !ok(st)) return error_request(st);
    std::vector<Payload> in;
    if (comm.rank() == root) {
        if (const Status st = type_status(recvtype); !ok(st)) return error_request(st);
        if (!blocks_ok(comm, recvcounts, displs, recv))
            return error_request(Status::err_arg);
        in = blocks(comm, recv, recvcounts, displs, recvtype);
    }
    return launch(comm, build_gatherv(TopologyMap::create(comm), root, mine, in));
}

CollRequest iallgatherv(Communicator& comm, const void* send, Count sendcount,
                        const dt::TypeRef& sendtype, void* recv,
                        std::span<const Count> recvcounts,
                        std::span<const Count> displs, const dt::TypeRef& recvtype) {
    if (!ok(comm.status())) return error_request(comm.status());
    const Payload mine = Payload::derived(send, sendcount, sendtype);
    if (const Status st = mine.check(/*recv=*/false); !ok(st)) return error_request(st);
    if (const Status st = type_status(recvtype); !ok(st)) return error_request(st);
    if (!blocks_ok(comm, recvcounts, displs, recv)) return error_request(Status::err_arg);
    return launch(comm, build_allgatherv(TopologyMap::create(comm), Algo::flat, mine,
                                         blocks(comm, recv, recvcounts, displs, recvtype)));
}

CollRequest ialltoallv(Communicator& comm, const void* send,
                       std::span<const Count> sendcounts, std::span<const Count> sdispls,
                       const dt::TypeRef& sendtype, void* recv,
                       std::span<const Count> recvcounts, std::span<const Count> rdispls,
                       const dt::TypeRef& recvtype) {
    if (!ok(comm.status())) return error_request(comm.status());
    for (const dt::TypeRef* type : {&sendtype, &recvtype})
        if (const Status st = type_status(*type); !ok(st)) return error_request(st);
    if (!blocks_ok(comm, sendcounts, sdispls, send) ||
        !blocks_ok(comm, recvcounts, rdispls, recv))
        return error_request(Status::err_arg);
    return launch(comm, build_alltoallv(TopologyMap::create(comm),
                                        blocks(comm, send, sendcounts, sdispls, sendtype),
                                        blocks(comm, recv, recvcounts, rdispls, recvtype)));
}

// ---------------------------------------------------------------------------
// Custom datatypes (object granularity; receiver-side §VI size contract)

CollRequest igatherv_custom(Communicator& comm, const void* send,
                            const core::CustomDatatype& type,
                            std::span<void* const> recv, int root) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (root < 0 || root >= comm.size() || send == nullptr)
        return error_request(Status::err_arg);
    std::vector<Payload> in;
    if (comm.rank() == root) {
        if (!objects_ok(comm, recv)) return error_request(Status::err_arg);
        in = objects(comm, recv, type);
    }
    // Every rank — including the root, via the loopback link, so the
    // pack/unpack callbacks run for its own object too — contributes one
    // object.
    return launch(comm, build_gatherv(TopologyMap::create(comm), root,
                                      object(send, type), in));
}

CollRequest iallgatherv_custom(Communicator& comm, const void* send,
                               const core::CustomDatatype& type,
                               std::span<void* const> recv) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (send == nullptr || !objects_ok(comm, recv)) return error_request(Status::err_arg);
    return launch(comm, build_allgatherv(TopologyMap::create(comm), Algo::flat,
                                         object(send, type), objects(comm, recv, type)));
}

CollRequest ialltoallv_custom(Communicator& comm, std::span<const void* const> send,
                              std::span<void* const> recv,
                              const core::CustomDatatype& type) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (!objects_ok(comm, send) || !objects_ok(comm, recv))
        return error_request(Status::err_arg);
    return launch(comm, build_alltoallv(TopologyMap::create(comm),
                                        objects(comm, send, type),
                                        objects(comm, recv, type)));
}

} // namespace mpicd::p2p::coll

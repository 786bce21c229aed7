#include "p2p/coll/nonblocking.hpp"

namespace mpicd::p2p::coll {

namespace {

Status validate_root(const Communicator& comm, int root) {
    if (!ok(comm.status())) return comm.status();
    if (root < 0 || root >= comm.size()) return Status::err_arg;
    return Status::success;
}

template <typename T>
CollRequest launch_allreduce(Communicator& comm, T* data, Count count, ReduceOp op) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (count < 0 || (count > 0 && data == nullptr))
        return error_request(Status::err_arg);
    const TopologyMap t = TopologyMap::create(comm);
    return launch(comm, build_allreduce(t, select_algo(t), data, count, op));
}

} // namespace

CollRequest ibarrier(Communicator& comm) {
    if (!ok(comm.status())) return error_request(comm.status());
    return launch(comm, build_barrier(TopologyMap::create(comm)));
}

CollRequest ibcast(Communicator& comm, const Payload& data, int root) {
    if (const Status st = validate_root(comm, root); !ok(st))
        return error_request(st);
    if (const Status st = data.check(/*recv=*/false); !ok(st)) return error_request(st);
    if (data.empty()) return error_request(Status::success);
    const TopologyMap t = TopologyMap::create(comm);
    return launch(comm, build_bcast(t, select_algo(t), root, data));
}

CollRequest igather_bytes(Communicator& comm, const void* send, Count n,
                          void* recv, int root) {
    if (const Status st = validate_root(comm, root); !ok(st))
        return error_request(st);
    if (n < 0 || (n > 0 && send == nullptr)) return error_request(Status::err_arg);
    if (comm.rank() == root && n > 0 && recv == nullptr)
        return error_request(Status::err_arg);
    const TopologyMap t = TopologyMap::create(comm);
    return launch(comm, build_gather(t, select_algo(t), root, send, n, recv));
}

CollRequest iallreduce(Communicator& comm, double* data, Count count,
                       ReduceOp op) {
    return launch_allreduce(comm, data, count, op);
}

CollRequest iallreduce(Communicator& comm, std::int64_t* data, Count count,
                       ReduceOp op) {
    return launch_allreduce(comm, data, count, op);
}

} // namespace mpicd::p2p::coll

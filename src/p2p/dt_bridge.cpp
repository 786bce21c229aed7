#include "p2p/dt_bridge.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "dt/convertor.hpp"
#include "dt/par_pack.hpp"

namespace mpicd::p2p {

namespace {

// Per-operation state. The callback context is the committed Datatype,
// kept alive by the descriptor's keepalive anchor; the state holds its own
// TypeRef for the parallel engine, which takes shared ownership.
struct DtState {
    dt::TypeRef type;
    std::optional<dt::Convertor> cv;
    void* buf = nullptr;
    Count count = 0;
};

// Finished states are recycled per thread, up to a bound, so a derived
// message allocates no state in steady state. A state started on one rank
// thread may finish on another; each thread keeps what it finishes. A
// parked state holds no type reference.
constexpr std::size_t kSpareStates = 64;
thread_local std::vector<std::unique_ptr<DtState>> t_spare_states;

DtState* new_state(void* ctx, void* buf, Count count) {
    std::unique_ptr<DtState> s;
    if (t_spare_states.empty()) {
        s = std::make_unique<DtState>();
    } else {
        s = std::move(t_spare_states.back());
        t_spare_states.pop_back();
    }
    s->type = static_cast<dt::Datatype*>(ctx)->shared_from_this();
    s->cv.emplace(s->type, buf, count);
    s->buf = buf;
    s->count = count;
    return s.release();
}

Status dt_start_pack(void* ctx, const void* buf, Count count, void** state) {
    *state = new_state(ctx, const_cast<void*>(buf), count);
    return Status::success;
}

Status dt_start_unpack(void* ctx, void* buf, Count count, void** state) {
    *state = new_state(ctx, buf, count);
    return Status::success;
}

Status dt_packed_size(void* state, Count* size) {
    *size = static_cast<DtState*>(state)->cv->total_packed();
    return Status::success;
}

Status dt_pack(void* state, Count offset, void* dst, Count dst_size, Count* used) {
    auto* s = static_cast<DtState*>(state);
    // A fragment at or above the parallel threshold goes through the
    // parallel engine (partitioned by packed offset, byte-identical to the
    // serial path); at the default wire parameters none is, since
    // fragments are 512 KiB and the threshold 2 MiB. The serial
    // convertor's cursor is left untouched; its next use re-seeks as needed.
    if (dt::par_pack_eligible(dst_size)) {
        return dt::parallel_pack_range(
            s->type, s->buf, s->count, offset,
            MutBytes(static_cast<std::byte*>(dst), static_cast<std::size_t>(dst_size)),
            used);
    }
    auto& cv = *s->cv;
    if (cv.position() != offset) cv.seek(offset);
    return cv.pack(MutBytes(static_cast<std::byte*>(dst),
                            static_cast<std::size_t>(dst_size)),
                   used);
}

Status dt_unpack(void* state, Count offset, const void* src, Count src_size) {
    auto* s = static_cast<DtState*>(state);
    if (dt::par_pack_eligible(src_size)) {
        return dt::parallel_unpack_range(
            s->type, s->buf, s->count, offset,
            ConstBytes(static_cast<const std::byte*>(src),
                       static_cast<std::size_t>(src_size)));
    }
    auto& cv = *s->cv;
    if (cv.position() != offset) cv.seek(offset);
    return cv.unpack(ConstBytes(static_cast<const std::byte*>(src),
                                static_cast<std::size_t>(src_size)));
}

void dt_finish(void* state) {
    std::unique_ptr<DtState> s(static_cast<DtState*>(state));
    if (t_spare_states.size() >= kSpareStates) return;
    s->cv.reset();
    s->type.reset();
    t_spare_states.push_back(std::move(s));
}

ucx::GenericDesc make_desc(const dt::TypeRef& type, Count count) {
    ucx::GenericDesc g;
    g.ops.start_pack = dt_start_pack;
    g.ops.start_unpack = dt_start_unpack;
    g.ops.packed_size = dt_packed_size;
    g.ops.pack = dt_pack;
    g.ops.unpack = dt_unpack;
    g.ops.finish = dt_finish;
    g.ops.ctx = type.get();
    g.ops.inorder = true; // the convertor is cheapest when driven in order
    g.count = count;
    g.keepalive = type;
    return g;
}

} // namespace

ucx::BufferDesc dt_send_desc(const dt::TypeRef& type, const void* buf, Count count) {
    auto g = make_desc(type, count);
    g.send_buf = buf;
    return g;
}

ucx::BufferDesc dt_recv_desc(const dt::TypeRef& type, void* buf, Count count) {
    auto g = make_desc(type, count);
    g.recv_buf = buf;
    return g;
}

} // namespace mpicd::p2p
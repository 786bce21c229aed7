#include "p2p/communicator.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "base/log.hpp"
#include "base/trace.hpp"
#include "core/traits.hpp"
#include "p2p/dt_bridge.hpp"
#include "p2p/universe.hpp"

namespace mpicd::p2p {

namespace {

// Wire tag layout: [16-bit context | 16-bit source rank | 32-bit user tag].
constexpr int kSrcShift = 32;
constexpr int kCtxShift = 48;
constexpr ucx::Tag kUserMask = 0xFFFFFFFFull;
constexpr ucx::Tag kSrcMask = 0xFFFFull << kSrcShift;
constexpr ucx::Tag kCtxMask = 0xFFFFull << kCtxShift;

ucx::Tag pack_tag(std::uint16_t ctx, int src, std::uint32_t user) noexcept {
    return (static_cast<ucx::Tag>(ctx) << kCtxShift) |
           (static_cast<ucx::Tag>(static_cast<std::uint16_t>(src)) << kSrcShift) |
           static_cast<ucx::Tag>(user);
}

// Wall-clock deadlock guard for wait() loops in test code.
constexpr auto kWaitDeadline = std::chrono::seconds(120);

// The one blocking loop: retry `done` until it returns true, yielding every
// 1024 tries. Aborts (naming `what`) when it has not returned true for
// kWaitDeadline — a deadlock in test code. The deadline is armed at the
// first yield, so a wait that completes within its first tries reads no
// clock.
template <typename Done>
void spin_until(Done&& done, const char* what) {
    std::optional<std::chrono::steady_clock::time_point> deadline;
    int idle = 0;
    while (!done()) {
        if (++idle <= 1024) continue;
        idle = 0;
        std::this_thread::yield();
        const auto now = std::chrono::steady_clock::now();
        if (!deadline) {
            deadline = now + kWaitDeadline;
        } else if (now > *deadline) {
            MPICD_LOG_ERROR(what << " deadlocked (no progress for 120 s)");
            std::abort();
        }
    }
}

} // namespace

int decode_tag_source(ucx::Tag t) noexcept {
    return static_cast<int>((t & kSrcMask) >> kSrcShift);
}

int decode_tag_user(ucx::Tag t) noexcept {
    return static_cast<int>(t & kUserMask);
}

// ---------------------------------------------------------------------------
// Request

bool Request::finalize_locked_completion(ucx::Completion&& comp, MsgStatus* out) {
    result_.status = comp.status;
    result_.bytes = comp.received_len;
    result_.source = decode_tag_source(comp.sender_tag);
    result_.tag = decode_tag_user(comp.sender_tag);
    result_.vtime = comp.vtime;
    if (custom_ != nullptr) {
        // Deferred custom unpack: run it under the message id the wire
        // events were attributed to, so the engine's custom_unpack span
        // lands in the same per-message trace group.
        const trace::MsgScope msg_scope(comp.msg_id);
        const Status st = custom_->finish(*worker_, comp.status, comp.received_len);
        if (ok(result_.status) && !ok(st)) result_.status = st;
        result_.vtime = worker_->now();
        custom_.reset();
    }
    done_ = true;
    if (out != nullptr) *out = result_;
    return true;
}

bool Request::poll(MsgStatus* out) {
    if (done_) {
        if (out != nullptr) *out = result_;
        return true;
    }
    if (!ok(early_error_)) {
        result_.status = early_error_;
        done_ = true;
        if (out != nullptr) *out = result_;
        return true;
    }
    if (!valid()) {
        result_.status = Status::err_arg;
        done_ = true;
        if (out != nullptr) *out = result_;
        return true;
    }
    if (!worker_->is_complete(id_)) return false;
    return finalize_locked_completion(worker_->take_completion(id_), out);
}

bool Request::test(MsgStatus* out) {
    if (poll(out)) return true;
    uni_->progress(worker_->endpoint());
    return poll(out);
}

bool Request::cancel() {
    if (done_ || !valid() || !worker_->cancel_recv(id_)) return false;
    custom_.reset(); // frees the custom state; the unpack never runs
    result_ = MsgStatus{};
    result_.cancelled = true;
    result_.vtime = worker_->now();
    done_ = true;
    return true;
}

MsgStatus Request::wait() {
    MsgStatus st;
    spin_until([&] { return test(&st); }, "Request::wait");
    return st;
}

// ---------------------------------------------------------------------------
// Communicator

Communicator::Communicator(Universe& uni, ucx::Worker& worker, int rank, int size,
                           std::uint16_t context)
    : uni_(uni), worker_(worker), rank_(rank), size_(size), context_(context) {
    // The 16-bit source field addresses ranks 0..65535; a wider world (or a
    // negative/out-of-world rank) would alias through the mask in
    // pack_tag. Mark the communicator invalid instead.
    if (rank < 0 || size <= 0 || rank >= size || size > kMaxWorldSize)
        ctor_status_ = Status::err_arg;
    // The top context bit selects the collective plane; a user context
    // carrying it would let point-to-point traffic alias collective
    // internals — the exact bug class the plane exists to prevent.
    if ((context & kCollContextBit) != 0) ctor_status_ = Status::err_arg;
}

Status Communicator::check_send(int dst, int tag) const {
    if (!ok(ctor_status_)) return ctor_status_;
    if (dst < 0 || dst >= size_) return Status::err_arg;
    // A negative user tag would alias a large positive one through the
    // 32-bit user field (kAnyTag is only meaningful on the receive side).
    if (tag < 0) return Status::err_arg;
    return Status::success;
}

Status Communicator::check_recv(int src, int tag) const {
    if (!ok(ctor_status_)) return ctor_status_;
    if (src != kAnySource && (src < 0 || src >= size_)) return Status::err_arg;
    if (tag != kAnyTag && tag < 0) return Status::err_arg;
    return Status::success;
}

void Communicator::encode_recv_tag(int src, int tag, ucx::Tag* t, ucx::Tag* mask) const {
    const bool any_src = src == kAnySource, any_tag = tag == kAnyTag;
    *t = pack_tag(context_, any_src ? 0 : src,
                  any_tag ? 0u : static_cast<std::uint32_t>(tag));
    *mask = kCtxMask | (any_src ? 0 : kSrcMask) | (any_tag ? 0 : kUserMask);
}

std::uint32_t Communicator::coll_reserve_tags(std::uint32_t n) {
    return coll_epoch_.fetch_add(n, std::memory_order_relaxed);
}

// Collective plane: context | kCollContextBit, the full 32-bit unsigned
// collective tag in the user field, and fully pinned receives (known
// source, known collective tag — wildcards have no business here), so a
// peer in either direction is checked like a send destination.
Request Communicator::coll_isend(const Payload& p, int dst, std::uint32_t ctag) {
    if (const Status st = check_send(dst, 0); !ok(st)) return make_error_request(st);
    return post_send(p, dst, pack_tag(context_ | kCollContextBit, rank_, ctag));
}

Request Communicator::coll_irecv(const Payload& p, int src, std::uint32_t ctag) {
    if (const Status st = check_send(src, 0); !ok(st)) return make_error_request(st);
    return post_recv(p, pack_tag(context_ | kCollContextBit, src, ctag),
                     kCtxMask | kSrcMask | kUserMask);
}

Request Communicator::isend(const Payload& p, int dst, int tag) {
    if (const Status st = check_send(dst, tag); !ok(st)) return make_error_request(st);
    return post_send(p, dst, pack_tag(context_, rank_, static_cast<std::uint32_t>(tag)));
}

Request Communicator::irecv(const Payload& p, int src, int tag) {
    if (const Status st = check_recv(src, tag); !ok(st)) return make_error_request(st);
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    return post_recv(p, t, mask);
}

Request Communicator::make_request(ucx::RequestId id) {
    Request rq;
    rq.uni_ = &uni_;
    rq.worker_ = &worker_;
    rq.id_ = id;
    return rq;
}

Request Communicator::make_error_request(Status st) {
    Request rq;
    rq.uni_ = &uni_;
    rq.worker_ = &worker_;
    rq.early_error_ = st;
    return rq;
}

// ---------------------------------------------------------------------------
// The one lowering (docs/API.md §3).

namespace {

constexpr Count kSizedHeaderBytes =
    static_cast<Count>(sizeof(std::uint64_t));

// Account a wire or sized operation to the fastpath/* counters; the other
// kinds are not fast-path operations.
void note_fastpath(const Payload& p, bool send) {
    const bool trivial = p.kind() == Payload::Kind::wire;
    if (!trivial && p.kind() != Payload::Kind::sized) return;
    auto& fp = core::fastpath_counters();
    (trivial ? fp.hits_trivial : fp.hits_resizable)
        .fetch_add(1, std::memory_order_relaxed);
    fp.bytes_bypassed.fetch_add(static_cast<std::uint64_t>(p.count),
                                std::memory_order_relaxed);
    // One lowering (state/query/pack plan work) skipped per operation.
    fp.plan_compiles_avoided.fetch_add(1, std::memory_order_relaxed);
    const core::WireClass cls = trivial ? core::WireClass::trivially_wireable
                                        : core::WireClass::contiguous_resizable;
    trace::instant("p2p", send ? "fastpath_send" : "fastpath_recv", -1.0, "class",
                   static_cast<std::uint64_t>(cls), "bytes",
                   static_cast<std::uint64_t>(p.count));
}

// The two-entry IOV of a sized payload: the 8-byte length header, then the
// payload itself, borrowed from the user buffer (zero send-side copies).
ucx::IovDesc sized_iov(std::shared_ptr<ByteVec> hdr, void* payload, Count n) {
    ucx::IovDesc iov;
    iov.entries.push_back({hdr->data(), kSizedHeaderBytes});
    iov.backing = std::move(hdr);
    if (n > 0) iov.entries.push_back({payload, n});
    return iov;
}

// Transport descriptors of a checked bytes, wire, derived or sized payload
// (custom payloads are lowered by the engine).
ucx::BufferDesc send_desc(const Payload& p) {
    if (p.kind() == Payload::Kind::sized) {
        auto hdr = std::make_shared<ByteVec>(static_cast<std::size_t>(kSizedHeaderBytes));
        const auto len = static_cast<std::uint64_t>(p.count);
        std::memcpy(hdr->data(), &len, sizeof len);
        return sized_iov(std::move(hdr), p.buf, p.count);
    }
    if (p.type != nullptr && !p.type->is_contiguous())
        return dt_send_desc(p.type, p.buf, p.count);
    return ucx::make_contig_send(p.buf, p.wire_bytes());
}

ucx::BufferDesc recv_desc(const Payload& p) {
    if (p.kind() == Payload::Kind::sized) {
        p.header->resize(static_cast<std::size_t>(kSizedHeaderBytes));
        return sized_iov(p.header, p.buf, p.count);
    }
    if (p.type != nullptr && !p.type->is_contiguous())
        return dt_recv_desc(p.type, p.buf, p.count);
    return ucx::make_contig_recv(p.buf, p.wire_bytes());
}

} // namespace

Request Communicator::post_send(const Payload& p, int dst, ucx::Tag wire_tag) {
    if (const Status st = p.check(/*recv=*/false); !ok(st)) return make_error_request(st);
    if (p.custom == nullptr) {
        note_fastpath(p, /*send=*/true);
        return make_request(worker_.tag_send(dst, wire_tag, send_desc(p)));
    }
    // A custom send fixes its message id before lowering, so the engine's
    // pack/lowering spans and the transport's wire events all carry one id
    // (tag_send adopts an open scope instead of allocating its own). A
    // caller's open scope (a collective step) names the message; otherwise
    // allocate one.
    const std::uint64_t open_msg = trace::current_msg();
    const trace::MsgScope msg_scope(open_msg != 0 ? open_msg : trace::next_msg_id());
    ucx::BufferDesc desc;
    const Status st =
        core::lower_custom_send(*p.custom, p.buf, p.count, worker_, &desc, p.lowering);
    if (!ok(st)) return make_error_request(st);
    return make_request(worker_.tag_send(dst, wire_tag, std::move(desc)));
}

Request Communicator::post_recv(const Payload& p, ucx::Tag t, ucx::Tag mask) {
    if (const Status st = p.check(/*recv=*/true); !ok(st)) return make_error_request(st);
    if (p.custom == nullptr) {
        note_fastpath(p, /*send=*/false);
        return make_request(worker_.tag_recv(t, mask, recv_desc(p)));
    }
    // A custom receive's op owns the staging its descriptor points into and
    // runs the deferred unpack when the request completes.
    auto op = std::make_shared<core::CustomRecvOp>();
    const Status st =
        core::lower_custom_recv(*p.custom, p.buf, p.count, worker_, op.get(), p.lowering);
    if (!ok(st)) return make_error_request(st);
    Request rq = make_request(worker_.tag_recv(t, mask, std::move(op->desc())));
    rq.custom_ = std::move(op);
    return rq;
}

MsgStatus Communicator::sendrecv_bytes(const void* sendbuf, Count sendn, int dst,
                                       int sendtag, void* recvbuf, Count recvn,
                                       int src, int recvtag) {
    Request rr = irecv_bytes(recvbuf, recvn, src, recvtag);
    Request rs = isend_bytes(sendbuf, sendn, dst, sendtag);
    const MsgStatus recv_st = rr.wait();
    const MsgStatus send_st = rs.wait();
    if (!ok(recv_st.status)) return recv_st;
    if (!ok(send_st.status)) {
        MsgStatus st = recv_st;
        st.status = send_st.status;
        return st;
    }
    return recv_st;
}

Status wait_all(std::span<Request> requests) {
    Status first = Status::success;
    for (auto& rq : requests) {
        const auto st = rq.wait();
        if (ok(first) && !ok(st.status)) first = st.status;
    }
    return first;
}

std::optional<ProbeResult> Communicator::iprobe(int src, int tag) {
    if (!ok(check_recv(src, tag))) return std::nullopt;
    uni_.progress(worker_.endpoint());
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    const auto info = worker_.probe(t, mask);
    if (!info) return std::nullopt;
    return ProbeResult{decode_tag_source(info->tag), decode_tag_user(info->tag),
                       info->total_len};
}

ProbeResult Communicator::probe(int src, int tag) {
    std::optional<ProbeResult> r;
    spin_until([&] { return (r = iprobe(src, tag)).has_value(); }, "probe");
    return *r;
}

std::optional<Message> Communicator::improbe(int src, int tag) {
    if (!ok(check_recv(src, tag))) return std::nullopt;
    uni_.progress(worker_.endpoint());
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    const auto handle = worker_.mprobe(t, mask);
    if (!handle) return std::nullopt;
    Message msg;
    msg.handle = *handle;
    msg.info = ProbeResult{decode_tag_source(handle->info.tag),
                           decode_tag_user(handle->info.tag), handle->info.total_len};
    return msg;
}

Message Communicator::mprobe(int src, int tag) {
    std::optional<Message> m;
    spin_until([&] { return (m = improbe(src, tag)).has_value(); }, "mprobe");
    return *m;
}

Request Communicator::imrecv(Message& msg, void* p, Count n) {
    if (!msg.valid()) return make_error_request(Status::err_arg);
    if (const Status st = Payload::bytes(p, n).check(/*recv=*/true); !ok(st))
        return make_error_request(st);
    const ucx::RequestId id = worker_.imrecv(msg.handle, ucx::make_contig_recv(p, n));
    msg.handle = ucx::MessageHandle{};
    if (id == ucx::kInvalidRequest) return make_error_request(Status::err_arg);
    return make_request(id);
}

} // namespace mpicd::p2p

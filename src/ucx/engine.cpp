#include "ucx/engine.hpp"

#include <algorithm>
#include <cstring>

#include "base/pool.hpp"

namespace mpicd::ucx {

namespace {

// Overload-set visitor helper.
template <class... Ts>
struct Overloaded : Ts... {
    using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

} // namespace

Status scatter_into_regions(std::span<const IovEntry> regions, Count offset,
                            ConstBytes src) {
    Count remaining = static_cast<Count>(src.size());
    std::size_t src_pos = 0;
    for (const auto& r : regions) {
        if (remaining == 0) return Status::success;
        if (offset >= r.len) {
            offset -= r.len;
            continue;
        }
        const Count space = r.len - offset;
        const Count n = std::min(space, remaining);
        std::memcpy(static_cast<std::byte*>(r.base) + offset, src.data() + src_pos,
                    static_cast<std::size_t>(n));
        src_pos += static_cast<std::size_t>(n);
        remaining -= n;
        offset = 0;
    }
    datapath::add_copied(static_cast<Count>(src.size()) - remaining);
    return remaining == 0 ? Status::success : Status::err_truncate;
}

namespace {

template <class Entry>
Status gather(std::span<const Entry> regions, Count offset, MutBytes dst,
              Count* used) {
    Count produced = 0;
    Count want = static_cast<Count>(dst.size());
    for (const auto& r : regions) {
        if (want == 0) break;
        if (offset >= r.len) {
            offset -= r.len;
            continue;
        }
        const Count avail = r.len - offset;
        const Count n = std::min(avail, want);
        std::memcpy(dst.data() + produced,
                    static_cast<const std::byte*>(r.base) + offset,
                    static_cast<std::size_t>(n));
        produced += n;
        want -= n;
        offset = 0;
    }
    *used = produced;
    datapath::add_copied(produced);
    return Status::success;
}

} // namespace

Status gather_from_regions(std::span<const ConstIovEntry> regions, Count offset,
                           MutBytes dst, Count* used) {
    return gather(regions, offset, dst, used);
}

Status gather_from_regions(std::span<const IovEntry> regions, Count offset,
                           MutBytes dst, Count* used) {
    return gather(regions, offset, dst, used);
}

Status dma_regions(std::span<const IovEntry> src, std::span<const IovEntry> dst,
                   Count offset, Count len, Count* moved) {
    *moved = 0;
    // Advance both cursors to the stream offset, then walk the two region
    // lists in lockstep copying the overlap of the current entries.
    std::size_t si = 0, di = 0;
    Count soff = offset, doff = offset;
    while (si < src.size() && soff >= src[si].len) soff -= src[si++].len;
    while (di < dst.size() && doff >= dst[di].len) doff -= dst[di++].len;
    Count remaining = len;
    while (remaining > 0 && si < src.size()) {
        if (di >= dst.size()) return Status::err_truncate;
        const Count n = std::min({remaining, src[si].len - soff, dst[di].len - doff});
        std::memcpy(static_cast<std::byte*>(dst[di].base) + doff,
                    static_cast<const std::byte*>(src[si].base) + soff,
                    static_cast<std::size_t>(n));
        *moved += n;
        remaining -= n;
        soff += n;
        doff += n;
        if (soff == src[si].len) {
            ++si;
            soff = 0;
        }
        if (doff == dst[di].len) {
            ++di;
            doff = 0;
        }
    }
    datapath::add_dma(*moved);
    return Status::success;
}

// ---------------------------------------------------------------------------
// SendSource

SendSource::SendSource(const BufferDesc& desc) : desc_(&desc) {
    std::visit(
        Overloaded{
            [&](const ContigDesc& c) {
                contig_ = {const_cast<void*>(c.send_ptr), c.len};
                regions_ = {&contig_, 1};
                total_ = c.len;
                total_known_ = true;
            },
            [&](const IovDesc& iov) {
                regions_ = iov.entries;
                total_ = iov_total(regions_);
                total_known_ = true;
            },
            [&](const GenericDesc& g) {
                generic_ = true;
                inorder_ = g.ops.inorder;
                init_status_ =
                    g.ops.start_pack(g.ops.ctx, g.send_buf, g.count, &generic_state_);
            },
        },
        *desc_);
}

SendSource::~SendSource() {
    if (generic_ && generic_state_ != nullptr) {
        const auto& g = std::get<GenericDesc>(*desc_);
        if (g.ops.finish != nullptr) g.ops.finish(generic_state_);
    }
}

Status SendSource::total_bytes(Count* out, SimTime& host_cost) {
    if (!ok(init_status_)) return init_status_;
    if (!total_known_) {
        const auto& g = std::get<GenericDesc>(*desc_);
        const ScopedMeasure measure(host_cost);
        MPICD_RETURN_IF_ERROR(g.ops.packed_size(generic_state_, &total_));
        total_known_ = true;
    }
    *out = total_;
    return Status::success;
}

bool SendSource::exposes_memory() const noexcept { return !generic_; }

Count SendSource::sg_entries() const noexcept {
    return generic_ ? 1 : static_cast<Count>(regions_.size());
}

bool SendSource::allows_out_of_order() const noexcept {
    return !generic_ || !inorder_;
}

Status SendSource::read(Count offset, MutBytes dst, Count* used, SimTime& host_cost) {
    if (!ok(init_status_)) return init_status_;
    if (generic_) {
        const auto& g = std::get<GenericDesc>(*desc_);
        Status st;
        {
            const ScopedMeasure measure(host_cost);
            st = g.ops.pack(generic_state_, offset, dst.data(),
                            static_cast<Count>(dst.size()), used);
        }
        // The pack callback materialized *used bytes into dst.
        if (ok(st)) datapath::add_copied(*used);
        return st;
    }
    return gather_from_regions(regions_, offset, dst, used);
}

// ---------------------------------------------------------------------------
// RecvSink

RecvSink::RecvSink(BufferDesc& desc) : desc_(&desc) {
    std::visit(
        Overloaded{
            [&](ContigDesc& c) {
                contig_ = {c.recv_ptr, c.len};
                regions_ = {&contig_, 1};
                capacity_ = c.len;
            },
            [&](IovDesc& iov) {
                regions_ = iov.entries;
                capacity_ = iov_total(regions_);
            },
            [&](GenericDesc& g) {
                generic_ = true;
                inorder_ = g.ops.inorder;
                // The receive capacity of a generic sink is queried from
                // its own callbacks after start_unpack; the paper requires
                // the receive side to know the expected sizes in advance.
                init_status_ =
                    g.ops.start_unpack(g.ops.ctx, g.recv_buf, g.count, &generic_state_);
                if (ok(init_status_) && g.ops.packed_size != nullptr) {
                    init_status_ = g.ops.packed_size(generic_state_, &capacity_);
                }
            },
        },
        *desc_);
}

RecvSink::~RecvSink() {
    if (generic_ && generic_state_ != nullptr) {
        const auto& g = std::get<GenericDesc>(*desc_);
        if (g.ops.finish != nullptr) g.ops.finish(generic_state_);
    }
}

bool RecvSink::exposes_memory() const noexcept { return !generic_; }

Count RecvSink::sg_entries() const noexcept {
    return generic_ ? 1 : static_cast<Count>(regions_.size());
}

bool RecvSink::allows_out_of_order() const noexcept {
    return !generic_ || !inorder_;
}

Status RecvSink::write(Count offset, ConstBytes src, SimTime& host_cost) {
    if (!ok(init_status_)) return init_status_;
    if (generic_) {
        const auto& g = std::get<GenericDesc>(*desc_);
        Status st;
        {
            const ScopedMeasure measure(host_cost);
            st = g.ops.unpack(generic_state_, offset, src.data(),
                              static_cast<Count>(src.size()));
        }
        // The unpack callback consumed src into user memory.
        if (ok(st)) datapath::add_copied(static_cast<Count>(src.size()));
        return st;
    }
    return scatter_into_regions(regions_, offset, src);
}

} // namespace mpicd::ucx

// SendSource / RecvSink: protocol-agnostic adapters over BufferDesc.
//
// The worker's protocol code never switches on descriptor kind; it talks to
// these two interfaces instead:
//  - a SendSource yields bytes (gather / pack) and may expose raw memory
//    regions for zero-copy rendezvous;
//  - a RecvSink absorbs bytes (scatter / unpack) and may expose raw memory
//    regions for RDMA writes.
// Host CPU cost: user/datatype pack callbacks are *measured* (HostTimer);
// plain gather/scatter copies that stand in for NIC DMA are *modeled* by
// the caller through the wire model (see DESIGN.md §5).
#pragma once

#include <span>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "ucx/datatype.hpp"

namespace mpicd::ucx {

class SendSource {
public:
    explicit SendSource(const BufferDesc& desc);
    ~SendSource();
    SendSource(const SendSource&) = delete;
    SendSource& operator=(const SendSource&) = delete;
    SendSource(SendSource&&) = delete;
    SendSource& operator=(SendSource&&) = delete;

    // Total bytes this source will produce on the wire. For generic
    // sources this calls the packed_size callback (measured).
    [[nodiscard]] Status total_bytes(Count* out, SimTime& host_cost);

    // True when the underlying memory can be handed to the NIC directly
    // (contiguous buffer or iovec) — enables zero-copy rendezvous.
    [[nodiscard]] bool exposes_memory() const noexcept;

    // Raw regions, valid only when exposes_memory(): the descriptor's own
    // entries, read in place (a contiguous buffer is one entry).
    [[nodiscard]] std::span<const IovEntry> regions() const noexcept {
        return regions_;
    }

    [[nodiscard]] Count sg_entries() const noexcept;

    // Whether fragments may be produced out of offset order (generic
    // sources with inorder=false; memory sources are always random-access).
    [[nodiscard]] bool allows_out_of_order() const noexcept;

    // Produce up to dst.size() bytes at virtual offset `offset`.
    // For memory-backed sources this is a gather copy (host cost not
    // charged here — caller models it); for generic sources the pack
    // callback runs and its real duration is added to `host_cost`.
    [[nodiscard]] Status read(Count offset, MutBytes dst, Count* used, SimTime& host_cost);

    [[nodiscard]] Status init_error() const noexcept { return init_status_; }

private:
    const BufferDesc* desc_ = nullptr;
    // Memory view (non-generic): the IOV descriptor's entries, or contig_.
    std::span<const IovEntry> regions_;
    // A contiguous buffer as one entry. The source only ever reads through
    // it, so the non-const base it needs to share IovEntry is never written.
    IovEntry contig_;
    void* generic_state_ = nullptr;
    bool generic_ = false;
    bool inorder_ = true;
    Status init_status_ = Status::success;
    Count total_ = 0;
    bool total_known_ = false;
};

class RecvSink {
public:
    explicit RecvSink(BufferDesc& desc);
    ~RecvSink();
    RecvSink(const RecvSink&) = delete;
    RecvSink& operator=(const RecvSink&) = delete;
    RecvSink(RecvSink&&) = delete;
    RecvSink& operator=(RecvSink&&) = delete;

    // Maximum bytes this sink can absorb (receive-buffer capacity).
    [[nodiscard]] Count capacity() const noexcept { return capacity_; }

    [[nodiscard]] bool exposes_memory() const noexcept;
    // Raw regions, valid only when exposes_memory(): the descriptor's own
    // entries, read in place (a contiguous buffer is one entry).
    [[nodiscard]] std::span<const IovEntry> regions() const noexcept {
        return regions_;
    }
    [[nodiscard]] Count sg_entries() const noexcept;
    [[nodiscard]] bool allows_out_of_order() const noexcept;

    // Absorb `src` at virtual offset `offset` (scatter copy or unpack
    // callback; callback duration added to host_cost).
    [[nodiscard]] Status write(Count offset, ConstBytes src, SimTime& host_cost);

    [[nodiscard]] Status init_error() const noexcept { return init_status_; }

private:
    BufferDesc* desc_ = nullptr;
    std::span<const IovEntry> regions_; // the IOV entries, or contig_
    IovEntry contig_;
    void* generic_state_ = nullptr;
    bool generic_ = false;
    bool inorder_ = true;
    Status init_status_ = Status::success;
    Count capacity_ = 0;
};

// Scatter `src` into `regions` starting at byte offset `offset` within the
// concatenated region layout. Returns err_truncate when src overruns.
[[nodiscard]] Status scatter_into_regions(std::span<const IovEntry> regions,
                                          Count offset, ConstBytes src);

// Gather bytes [offset, offset+dst.size()) of the concatenated region
// layout into dst; *used receives the bytes produced (may be short at end).
[[nodiscard]] Status gather_from_regions(std::span<const ConstIovEntry> regions,
                                         Count offset, MutBytes dst, Count* used);
[[nodiscard]] Status gather_from_regions(std::span<const IovEntry> regions,
                                         Count offset, MutBytes dst, Count* used);

// Move up to `len` bytes at stream offset `offset` directly from the
// source region layout into the destination region layout — the simulated
// NIC's scatter-gather DMA for the zero-copy rendezvous path. No bounce
// buffer, no host copy: the moved bytes count toward datapath::bytes_dma,
// not bytes_copied. *moved may be short when the source is exhausted;
// err_truncate when the destination cannot hold the source bytes.
[[nodiscard]] Status dma_regions(std::span<const IovEntry> src,
                                 std::span<const IovEntry> dst, Count offset,
                                 Count len, Count* moved);

} // namespace mpicd::ucx

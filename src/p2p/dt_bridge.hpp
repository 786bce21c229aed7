// Bridge from the derived-datatype engine (dt::Convertor) to the
// transport's generic-datatype callbacks. This is how "Open MPI style"
// derived-datatype sends work in this library: non-contiguous types are
// packed/unpacked through the convertor, pipelined by the transport — the
// baseline the paper's custom API is compared against.
#pragma once

#include "dt/datatype.hpp"
#include "ucx/datatype.hpp"

namespace mpicd::p2p {

// Descriptors carry no per-message context beyond the committed type: the
// callback context is the Datatype itself (its pack plan lives on it), and
// the descriptor's keepalive anchor holds a TypeRef, so the caller may drop
// its own reference while the operation is in flight. Building one costs
// O(1) host work regardless of how many segments the type has.

// Build a generic send descriptor over (buf, count, type).
[[nodiscard]] ucx::BufferDesc dt_send_desc(const dt::TypeRef& type, const void* buf,
                                           Count count);

// Build a generic receive descriptor over (buf, count, type).
[[nodiscard]] ucx::BufferDesc dt_recv_desc(const dt::TypeRef& type, void* buf,
                                           Count count);

} // namespace mpicd::p2p

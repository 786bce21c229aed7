// Parallel pack engine: a persistent worker pool that partitions the
// packed stream by offset and packs/unpacks the partitions concurrently.
//
// Partition boundaries are exact byte offsets into the packed stream —
// each worker constructs a plain Convertor and seek()s to its start (an
// O(log segments) operation over the committed prefix sums), so the result
// is byte-identical to a serial pack regardless of worker count or
// scheduling. Chunks are rounded up to whole elements when possible so the
// workers spend their time in the compiled-plan kernels, not in partial
// head/tail handling.
//
// Knobs:
//  - MPICD_PAR_PACK_THRESHOLD: packed-byte floor below which the auto path
//    stays serial (default 2 MiB; <= 0 disables the parallel auto path).
//  - MPICD_PAR_PACK_THREADS: pool width including the calling thread
//    (default min(4, hardware_concurrency)).
//
// Host time spent here is whatever the caller measures around the call, so
// virtual-time charging in the engine sees the parallel speedup for free.
#pragma once

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "dt/datatype.hpp"

namespace mpicd::dt {

// Packed-byte floor for the auto path; <= 0 means "never parallel".
[[nodiscard]] Count par_pack_threshold() noexcept;

// Pool width including the calling thread (>= 1).
[[nodiscard]] int par_pack_workers() noexcept;

// Uncached env reads behind the two getters above. The cached getters
// latch these at first use; tests call them directly to cover the
// clamping rules (THREADS <= 0 -> 1 serial worker, never a pool sized
// from a non-positive count; THRESHOLD <= 0 -> 0, parallel path off).
[[nodiscard]] Count par_pack_threshold_from_env() noexcept;
[[nodiscard]] int par_pack_workers_from_env() noexcept;

// True when an auto-mode pack of `total` packed bytes should go parallel:
// plans enabled, threshold reached, and more than one worker available.
[[nodiscard]] bool par_pack_eligible(Count total) noexcept;

// Pack/unpack all `count` elements, partitioning [0, size*count) among the
// pool. dst must hold (src must be exactly) size*count bytes.
[[nodiscard]] Status parallel_pack(const TypeRef& type, const void* buf, Count count,
                                   MutBytes dst, Count* used);
[[nodiscard]] Status parallel_unpack(const TypeRef& type, void* buf, Count count,
                                     ConstBytes src);

// Window variants over the packed-stream range [offset, offset + span)
// where span = min(dst/src.size(), total - offset). These serve the
// transport's fragment path, which packs at arbitrary stream offsets. At
// the default wire parameters no fragment reaches the threshold
// (rendezvous fragments are 512 KiB, the threshold is 2 MiB), so a
// transfer packs serially unless the fragment size is raised or the
// threshold lowered.
[[nodiscard]] Status parallel_pack_range(const TypeRef& type, const void* buf,
                                         Count count, Count offset, MutBytes dst,
                                         Count* used);
[[nodiscard]] Status parallel_unpack_range(const TypeRef& type, void* buf,
                                           Count count, Count offset,
                                           ConstBytes src);

} // namespace mpicd::dt

// Pack-plan compiler: lowers a committed datatype's flattened segment list
// into a compact *pack program* executed by specialized copy kernels,
// following TEMPI's canonical-representation idea (Pearson et al.) and the
// Träff et al. guideline that a derived datatype should never lose to
// manual packing.
//
// IR: a plan is an ordered list of PackInstr, each describing `reps` copies
// of `len` bytes read from `offset + k*stride` (relative to the element
// origin) and written densely to the packed stream, in type-map order.
// Runs of equal-length, constant-stride segments collapse into a single
// instruction; 4/8/16-byte (and a few other common) widths dispatch to
// fixed-size copy kernels the compiler can inline into plain loads/stores
// instead of opaque memcpy calls.
//
// A plan packs whole elements. Partial elements (fragment boundaries that
// split an element) are handled by the Convertor's generic segment loop;
// the plan fast path covers every fully-contained element in a fragment,
// which is where virtually all bytes live.
//
// A plan is compiled once, at commit, and lives on the Datatype; every
// message of that type reuses it, so there is no per-message plan lookup.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "base/bytes.hpp"
#include "dt/datatype.hpp"

namespace mpicd::dt {

enum class PackOp : std::uint8_t {
    copy,   // generic width (memcpy of `len` per rep)
    copy4,  // fixed 4-byte kernel
    copy8,  // fixed 8-byte kernel
    copy16, // fixed 16-byte kernel
};

struct PackInstr {
    PackOp op = PackOp::copy;
    Count offset = 0; // first source byte, relative to the element origin
    Count len = 0;    // bytes per rep
    Count stride = 0; // source distance between reps
    Count reps = 1;
};

struct PackPlan {
    std::vector<PackInstr> instrs;
    Count elem_size = 0; // packed bytes per element
    Count extent = 0;    // element-origin stride
    // True when the plan is a single instruction whose rep pattern
    // continues seamlessly across element boundaries
    // (stride * reps == extent): n elements then execute as ONE fused run
    // with n*reps reps — the big win for vector-like types.
    bool collapsible = false;

    [[nodiscard]] std::size_t instr_count() const noexcept { return instrs.size(); }
};

// Compile the segment list of one committed element. Returns nullptr for
// empty types (size 0), which have nothing to pack.
[[nodiscard]] std::shared_ptr<const PackPlan>
compile_plan(std::span<const Segment> segments, Count extent);

// Execute `nelems` whole elements: gather (pack) from `base` (the address
// of element 0's origin) into `dst`, or scatter (unpack) from `src`.
void plan_pack(const PackPlan& plan, const std::byte* base, Count nelems,
               std::byte* dst) noexcept;
void plan_unpack(const PackPlan& plan, std::byte* base, Count nelems,
                 const std::byte* src) noexcept;

// Master switch for the compiled path: MPICD_PACK_PLAN (default 1).
// With MPICD_PACK_PLAN=0 every consumer falls back to the generic
// segment-by-segment loop and the seed's lowering behaviour, preserving
// the paper-reproduction baselines byte for byte.
[[nodiscard]] bool pack_plan_enabled() noexcept;

} // namespace mpicd::dt

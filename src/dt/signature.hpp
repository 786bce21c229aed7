// Type signatures and datatype equivalence (cf. Kimpe et al., EuroMPI'10,
// discussed in the paper's related work). Two datatypes are
// signature-equivalent when they describe the same ordered sequence of
// predefined types — the condition under which a send with one type may be
// received with the other.
#pragma once

#include <vector>

#include "base/bytes.hpp"
#include "dt/datatype.hpp"

namespace mpicd::dt {

// Run-length-encoded signature entry.
struct SigRun {
    Predef kind;
    Count count;
    friend bool operator==(const SigRun&, const SigRun&) = default;
};

// Compute the RLE signature of `count` elements of `type`.
[[nodiscard]] std::vector<SigRun> signature(const TypeRef& type, Count count = 1);

// True when the signatures of (a, na) and (b, nb) are identical.
[[nodiscard]] bool signature_equivalent(const TypeRef& a, Count na, const TypeRef& b,
                                        Count nb);

// A stable byte serialization of a signature (for hashing / transmission).
[[nodiscard]] ByteVec signature_bytes(const TypeRef& type, Count count = 1);

} // namespace mpicd::dt

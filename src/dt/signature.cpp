#include "dt/signature.hpp"

#include <cstring>

namespace mpicd::dt {

std::vector<SigRun> signature(const TypeRef& type, Count count) {
    std::vector<SigRun> out;
    if (type == nullptr || count <= 0) return out;
    std::vector<Predef> leaves;
    type->append_signature(leaves);
    if (leaves.empty()) return out;
    // RLE one element, then scale: the per-element sequence repeats, but a
    // trailing run may merge with the next element's leading run.
    std::vector<SigRun> one;
    for (const Predef p : leaves) {
        if (!one.empty() && one.back().kind == p) {
            ++one.back().count;
        } else {
            one.push_back({p, 1});
        }
    }
    if (one.size() == 1) {
        out.push_back({one[0].kind, one[0].count * count});
        return out;
    }
    for (Count i = 0; i < count; ++i) {
        for (const auto& run : one) {
            if (!out.empty() && out.back().kind == run.kind) {
                out.back().count += run.count;
            } else {
                out.push_back(run);
            }
        }
    }
    return out;
}

bool signature_equivalent(const TypeRef& a, Count na, const TypeRef& b, Count nb) {
    return signature(a, na) == signature(b, nb);
}

ByteVec signature_bytes(const TypeRef& type, Count count) {
    const auto sig = signature(type, count);
    ByteVec out(sig.size() * (sizeof(Predef) + sizeof(Count)));
    std::size_t pos = 0;
    for (const auto& run : sig) {
        std::memcpy(out.data() + pos, &run.kind, sizeof(Predef));
        pos += sizeof(Predef);
        std::memcpy(out.data() + pos, &run.count, sizeof(Count));
        pos += sizeof(Count);
    }
    return out;
}

} // namespace mpicd::dt

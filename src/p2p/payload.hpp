// Payload: the one description of what a message carries, shared by the
// point-to-point entry points and the collective schedules. Communicator
// lowers it to a transport descriptor in one place for both tag planes
// (docs/API.md §3).
#pragma once

#include <cstdint>
#include <memory>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "core/engine.hpp"
#include "dt/datatype.hpp"

namespace mpicd::p2p {

// `count` units at `buf`. Units are raw bytes unless `type` (elements of a
// committed derived datatype) or `custom` (elements of a custom datatype)
// is set. The zero-serialization fast path (docs/API.md §7) adds two byte
// kinds: wire (one CONTIG transfer) and sized (a two-entry IOV: the u64
// payload length, then the payload itself).
struct Payload {
    enum class Kind : std::uint8_t { bytes, derived, custom, wire, sized };

    void* buf = nullptr;
    Count count = 0;
    dt::TypeRef type = nullptr;
    const core::CustomDatatype* custom = nullptr;
    // How a custom payload is lowered.
    core::CustomLowering lowering = core::CustomLowering::iov;
    // The kind when neither `type` nor `custom` names it: bytes, wire,
    // sized — or derived for a derived payload built from a null TypeRef,
    // so check() rejects it instead of sending raw bytes.
    Kind untyped = Kind::bytes;
    // Receive side of a sized payload: resized to and filled with the
    // sender's 8-byte length header, which the caller validates after
    // completion.
    std::shared_ptr<ByteVec> header = nullptr;

    [[nodiscard]] static Payload bytes(const void* p, Count n) {
        return {.buf = const_cast<void*>(p), .count = n};
    }
    [[nodiscard]] static Payload derived(const void* buf, Count count,
                                         dt::TypeRef type) {
        return {.buf = const_cast<void*>(buf), .count = count, .type = std::move(type),
                .untyped = Kind::derived};
    }
    [[nodiscard]] static Payload custom_of(const void* buf, Count count,
                                           const core::CustomDatatype& type,
                                           core::CustomLowering lowering =
                                               core::CustomLowering::iov) {
        return {.buf = const_cast<void*>(buf), .count = count, .custom = &type,
                .lowering = lowering};
    }
    [[nodiscard]] static Payload wire(const void* p, Count n) {
        return {.buf = const_cast<void*>(p), .count = n, .untyped = Kind::wire};
    }
    [[nodiscard]] static Payload sized(const void* p, Count n,
                                       std::shared_ptr<ByteVec> header = nullptr) {
        return {.buf = const_cast<void*>(p), .count = n, .untyped = Kind::sized,
                .header = std::move(header)};
    }

    [[nodiscard]] Kind kind() const noexcept {
        if (custom != nullptr) return Kind::custom;
        return type != nullptr ? Kind::derived : untyped;
    }
    [[nodiscard]] bool is_bytes() const noexcept { return kind() == Kind::bytes; }
    // Custom payloads always move (their size is the sender's query
    // callback's answer), and so does a sized one (its header); the others
    // move only when non-empty.
    [[nodiscard]] bool empty() const noexcept {
        return custom == nullptr && untyped != Kind::sized && count == 0;
    }
    // Packed bytes on the wire (a sized payload's header not counted); -1
    // for custom payloads.
    [[nodiscard]] Count wire_bytes() const noexcept {
        if (custom != nullptr) return -1;
        return type != nullptr ? count * type->size() : count;
    }

    // All payload validation, for either direction. err_arg for a negative
    // count, a derived payload without a type, a sized receive without its
    // header, or a null buffer behind a nonzero packed size; a custom
    // payload's buffer goes to the user callbacks unchecked.
    // err_not_committed for an uncommitted derived type.
    [[nodiscard]] Status check(bool recv) const noexcept {
        if (count < 0) return Status::err_arg;
        const Kind k = kind();
        if (k == Kind::custom) return Status::success;
        if (k == Kind::derived) {
            if (type == nullptr) return Status::err_arg;
            if (!type->committed()) return Status::err_not_committed;
        }
        if (k == Kind::sized && recv && header == nullptr) return Status::err_arg;
        if (buf == nullptr && wire_bytes() > 0) return Status::err_arg;
        return Status::success;
    }
};

} // namespace mpicd::p2p

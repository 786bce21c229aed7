// Heap allocations per steady-state eager message.
//
// This binary replaces the global operator new with a counting one, so it
// is its own test target. Each case drives windows of 256-byte eager
// messages between two ranks of one Universe (single thread, lossless
// fabric), warms up, and then counts the operator new calls over many
// windows. A "message" is one send and its matching receive.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <ostream>
#include <string>

#include "test_util.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace mpicd::p2p {
namespace {

constexpr int kWindow = 16;
constexpr Count kBytes = 256;
constexpr int kWarmupWindows = 64;
constexpr int kCountedWindows = 256;

enum class PayloadKind { bytes, wire, derived_vector };
enum class Order { posted_first, unexpected };

struct Record {
    double x, y, z, w;
};
static_assert(sizeof(Record) * 8 == kBytes);

struct Buffers {
    std::array<ByteVec, kWindow> send, recv;
    Buffers() {
        for (int k = 0; k < kWindow; ++k) {
            send[k] = test::pattern_bytes(2 * kBytes, static_cast<std::uint32_t>(k + 1));
            recv[k].assign(2 * kBytes, std::byte{0});
        }
    }
};

Request post_send(Communicator& c, PayloadKind kind, const dt::TypeRef& vec,
                  const ByteVec& buf, int tag) {
    switch (kind) {
        case PayloadKind::wire: return c.isend_wire(buf.data(), kBytes, 1, tag);
        case PayloadKind::derived_vector: return c.isend(buf.data(), 1, vec, 1, tag);
        case PayloadKind::bytes: break;
    }
    return c.isend_bytes(buf.data(), kBytes, 1, tag);
}

Request post_recv(Communicator& c, PayloadKind kind, const dt::TypeRef& vec,
                  ByteVec& buf, int tag) {
    switch (kind) {
        case PayloadKind::wire: return c.irecv_wire(buf.data(), kBytes, 0, tag);
        case PayloadKind::derived_vector: return c.irecv(buf.data(), 1, vec, 0, tag);
        case PayloadKind::bytes: break;
    }
    return c.irecv_bytes(buf.data(), kBytes, 0, tag);
}

// One window of kWindow messages from rank 0 to rank 1; every receive is
// checked for status and size.
void run_window(Universe& uni, PayloadKind kind, Order order, const dt::TypeRef& vec,
                Buffers& b) {
    auto& c0 = uni.comm(0);
    auto& c1 = uni.comm(1);
    std::array<Request, kWindow> rs, rr;
    if (order == Order::posted_first) {
        for (int k = 0; k < kWindow; ++k) rr[k] = post_recv(c1, kind, vec, b.recv[k], k);
        for (int k = 0; k < kWindow; ++k) rs[k] = post_send(c0, kind, vec, b.send[k], k);
    } else {
        for (int k = 0; k < kWindow; ++k) rs[k] = post_send(c0, kind, vec, b.send[k], k);
        // Every message sits in the unexpected queue before its receive.
        while (!c1.iprobe(0, kWindow - 1)) {}
        for (int k = 0; k < kWindow; ++k) rr[k] = post_recv(c1, kind, vec, b.recv[k], k);
    }
    for (int k = 0; k < kWindow; ++k) {
        const MsgStatus st = rr[k].wait();
        ASSERT_EQ(st.status, Status::success);
        ASSERT_EQ(st.bytes, kBytes);
        ASSERT_EQ(rs[k].wait().status, Status::success);
    }
}

double allocs_per_message(PayloadKind kind, Order order) {
    Universe uni(2, test::test_params(), netsim::FaultConfig{});
    const dt::TypeRef vec = dt::Datatype::vector(kBytes / 8, 1, 2, dt::type_double());
    EXPECT_EQ(vec->commit(), Status::success);
    Buffers b;
    for (int w = 0; w < kWarmupWindows; ++w) run_window(uni, kind, order, vec, b);
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int w = 0; w < kCountedWindows; ++w) run_window(uni, kind, order, vec, b);
    const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
    // The last window's payloads arrived intact.
    for (int k = 0; k < kWindow; ++k) {
        const ByteVec& s = b.send[k];
        const ByteVec& r = b.recv[k];
        if (kind == PayloadKind::derived_vector) {
            for (Count e = 0; e < kBytes / 8; ++e)
                EXPECT_EQ(std::memcmp(r.data() + 16 * e, s.data() + 16 * e, 8), 0);
        } else {
            EXPECT_EQ(std::memcmp(r.data(), s.data(), kBytes), 0);
        }
    }
    return static_cast<double>(allocs) / (kCountedWindows * kWindow);
}

struct AllocCase {
    PayloadKind kind;
    Order order;
    const char* name;
};

void PrintTo(const AllocCase& c, std::ostream* os) { *os << c.name; }

class EagerAllocs : public ::testing::TestWithParam<AllocCase> {};

TEST_P(EagerAllocs, AtMostOneAllocationPerMessage) {
    const AllocCase& c = GetParam();
    const double per_msg = allocs_per_message(c.kind, c.order);
    std::printf("%s: %.2f operator new calls per message\n", c.name, per_msg);
    EXPECT_LE(per_msg, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SteadyState, EagerAllocs,
    ::testing::Values(
        AllocCase{PayloadKind::bytes, Order::posted_first, "bytes_posted_first"},
        AllocCase{PayloadKind::bytes, Order::unexpected, "bytes_unexpected"},
        AllocCase{PayloadKind::wire, Order::posted_first, "wire_posted_first"},
        AllocCase{PayloadKind::wire, Order::unexpected, "wire_unexpected"},
        AllocCase{PayloadKind::derived_vector, Order::posted_first,
                  "derived_vector_posted_first"},
        AllocCase{PayloadKind::derived_vector, Order::unexpected,
                  "derived_vector_unexpected"}),
    [](const ::testing::TestParamInfo<AllocCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace mpicd::p2p

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hpp"
#include "core/paper_types.hpp"
#include "dt/par_pack.hpp"
#include "p2p/coll/schedule.hpp"
#include "p2p/runner.hpp"
#include "test_util.hpp"

namespace mpicd::p2p {
namespace {

struct P2P : ::testing::Test {
    P2P() : uni(2, test::test_params()) {}
    Universe uni;
};

TEST_F(P2P, BytesRoundTrip) {
    const ByteVec src = test::pattern_bytes(512);
    ByteVec dst(512);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 512, 0, 7);
    auto rs = uni.comm(0).isend_bytes(src.data(), 512, 1, 7);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 7);
    EXPECT_EQ(st.bytes, 512);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(src, dst);
}

TEST_F(P2P, SourceFilteringInThreeRankWorld) {
    Universe uni3(3, test::test_params());
    std::int32_t v1 = 111, v2 = 222, got = 0;
    // Rank 2 wants a message specifically from rank 1.
    auto rs1 = uni3.comm(0).isend_bytes(&v1, 4, 2, 5);
    auto rs2 = uni3.comm(1).isend_bytes(&v2, 4, 2, 5);
    auto rr = uni3.comm(2).irecv_bytes(&got, 4, /*src=*/1, 5);
    const auto st = rr.wait();
    EXPECT_EQ(st.source, 1);
    EXPECT_EQ(got, 222);
    (void)rs1.wait();
    (void)rs2.wait();
    // Drain the rank-0 message too.
    auto rr2 = uni3.comm(2).irecv_bytes(&got, 4, 0, 5);
    EXPECT_EQ(rr2.wait().source, 0);
    EXPECT_EQ(got, 111);
}

TEST_F(P2P, AnySourceAnyTag) {
    std::int32_t v = 321, got = 0;
    auto rs = uni.comm(0).isend_bytes(&v, 4, 1, 1234);
    auto rr = uni.comm(1).irecv_bytes(&got, 4, kAnySource, kAnyTag);
    const auto st = rr.wait();
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 1234);
    EXPECT_EQ(got, 321);
    (void)rs.wait();
}

TEST_F(P2P, TagSelectivity) {
    std::int32_t a = 1, b = 2, got_a = 0, got_b = 0;
    auto s1 = uni.comm(0).isend_bytes(&a, 4, 1, 10);
    auto s2 = uni.comm(0).isend_bytes(&b, 4, 1, 20);
    // Receive tag 20 first even though tag 10 arrived earlier.
    auto r2 = uni.comm(1).irecv_bytes(&got_b, 4, 0, 20);
    EXPECT_EQ(r2.wait().tag, 20);
    EXPECT_EQ(got_b, 2);
    auto r1 = uni.comm(1).irecv_bytes(&got_a, 4, 0, 10);
    EXPECT_EQ(r1.wait().tag, 10);
    EXPECT_EQ(got_a, 1);
    (void)s1.wait();
    (void)s2.wait();
}

TEST_F(P2P, DerivedDatatypeGappedStructTransfersFieldsOnly) {
    struct Gapped {
        std::int32_t a, b, c;
        double d;
    };
    const Count blocklens[] = {3, 1};
    const Count displs[] = {0, 16};
    const dt::TypeRef types[] = {dt::type_int32(), dt::type_double()};
    auto s = dt::Datatype::struct_(blocklens, displs, types);
    auto t = dt::Datatype::resized(s, 0, 24);
    ASSERT_EQ(t->commit(), Status::success);

    std::vector<Gapped> send(64), recv(64);
    for (int i = 0; i < 64; ++i)
        send[static_cast<std::size_t>(i)] = {i, i + 1, i + 2, i * 2.0};
    auto rr = uni.comm(1).irecv(recv.data(), 64, t, 0, 3);
    auto rs = uni.comm(0).isend(send.data(), 64, t, 1, 3);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, 64 * 20); // the gap never hits the wire
    EXPECT_EQ(rs.wait().status, Status::success);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(i)].a, i);
        EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(i)].d, i * 2.0);
    }
}

TEST_F(P2P, DerivedContiguousUsesZeroCopyPath) {
    auto t = dt::Datatype::contiguous(1024, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    std::vector<double> send(1024), recv(1024);
    for (int i = 0; i < 1024; ++i) send[static_cast<std::size_t>(i)] = i * 0.5;
    auto rr = uni.comm(1).irecv(recv.data(), 1, t, 0, 1);
    auto rs = uni.comm(0).isend(send.data(), 1, t, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(send, recv);
}

TEST_F(P2P, DerivedDatatypeRendezvous) {
    // Non-contiguous type big enough for the pipelined rendezvous path.
    auto col = dt::Datatype::vector(64 * 1024, 1, 2, dt::type_double());
    ASSERT_EQ(col->commit(), Status::success);
    std::vector<double> send(2 * 64 * 1024), recv(2 * 64 * 1024, 0.0);
    for (std::size_t i = 0; i < send.size(); ++i) send[i] = static_cast<double>(i);
    auto rr = uni.comm(1).irecv(recv.data(), 1, col, 0, 1);
    auto rs = uni.comm(0).isend(send.data(), 1, col, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    for (std::size_t i = 0; i < recv.size(); ++i) {
        if (i % 2 == 0) {
            EXPECT_EQ(recv[i], static_cast<double>(i)) << i;
        } else {
            EXPECT_EQ(recv[i], 0.0) << i; // strided holes untouched
        }
    }
}

TEST_F(P2P, UncommittedDatatypeRejected) {
    auto t = dt::Datatype::contiguous(4, dt::type_int32()); // no commit
    std::int32_t buf[4] = {};
    auto rq = uni.comm(0).isend(buf, 1, t, 1, 0);
    EXPECT_EQ(rq.wait().status, Status::err_not_committed);
}

TEST_F(P2P, InvalidDestinationRejected) {
    std::int32_t v = 0;
    auto rq = uni.comm(0).isend_bytes(&v, 4, 7, 0);
    EXPECT_EQ(rq.wait().status, Status::err_arg);
}

// --- Wire tag layout boundary regressions (the [16-bit ctx | 16-bit src |
// 32-bit user tag] fields used to truncate silently; see docs/MATCHING.md).

TEST_F(P2P, NegativeTagRejected) {
    std::int32_t v = 0;
    // A negative user tag would sign-extend / alias through the 32-bit
    // user field; both directions must fail fast with err_arg.
    EXPECT_EQ(uni.comm(0).isend_bytes(&v, 4, 1, -1).wait().status,
              Status::err_arg);
    EXPECT_EQ(uni.comm(1).irecv_bytes(&v, 4, 0, -7).wait().status,
              Status::err_arg);
    // kAnyTag is the sanctioned wildcard, not an error.
    EXPECT_FALSE(uni.comm(1).iprobe(0, kAnyTag).has_value());
}

TEST_F(P2P, SourceOutOfRangeRejected) {
    std::int32_t v = 0;
    EXPECT_EQ(uni.comm(1).irecv_bytes(&v, 4, /*src=*/5, 0).wait().status,
              Status::err_arg);
    EXPECT_EQ(uni.comm(1).irecv_bytes(&v, 4, /*src=*/-2, 0).wait().status,
              Status::err_arg);
    EXPECT_FALSE(uni.comm(1).iprobe(/*src=*/99, 0).has_value());
}

TEST_F(P2P, MaxUserTagRoundTrip) {
    // INT_MAX occupies all 31 value bits of the user field: must traverse
    // encode -> wire -> decode unchanged.
    constexpr int kTag = std::numeric_limits<int>::max();
    std::int32_t v = 4242, got = 0;
    auto rr = uni.comm(1).irecv_bytes(&got, 4, 0, kTag);
    auto rs = uni.comm(0).isend_bytes(&v, 4, 1, kTag);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.tag, kTag);
    EXPECT_EQ(got, 4242);
    (void)rs.wait();
}

TEST_F(P2P, OversizedWorldRejectedAtConstruction) {
    // Rank 70000 would alias to rank 70000 - 65536 = 4464 in the 16-bit
    // source field; the communicator must refuse rather than truncate.
    Communicator big(uni, uni.worker(0), /*rank=*/70000, /*size=*/70001,
                     /*context=*/9);
    EXPECT_EQ(big.status(), Status::err_arg);
    std::int32_t v = 0;
    EXPECT_EQ(big.isend_bytes(&v, 4, 0, 5).wait().status, Status::err_arg);
    EXPECT_EQ(big.irecv_bytes(&v, 4, 0, 5).wait().status, Status::err_arg);
    EXPECT_FALSE(big.iprobe(0, 5).has_value());

    Communicator neg(uni, uni.worker(0), /*rank=*/-1, /*size=*/2, 9);
    EXPECT_EQ(neg.status(), Status::err_arg);
    Communicator empty(uni, uni.worker(0), /*rank=*/0, /*size=*/0, 9);
    EXPECT_EQ(empty.status(), Status::err_arg);
}

TEST_F(P2P, WorldSizeBoundaryAccepted) {
    // 65536 ranks is exactly addressable (source field 0..65535): the
    // boundary itself is legal, one past it is not.
    Communicator edge(uni, uni.worker(0), /*rank=*/65535, /*size=*/65536, 9);
    EXPECT_EQ(edge.status(), Status::success);
    Communicator over(uni, uni.worker(0), /*rank=*/0, /*size=*/65537, 9);
    EXPECT_EQ(over.status(), Status::err_arg);
    // Decode of a wire tag carrying the max source rank round-trips.
    const ucx::Tag t = (ucx::Tag{0x7} << 48) | (ucx::Tag{65535} << 32) |
                       ucx::Tag{0x12345678};
    EXPECT_EQ(decode_tag_source(t), 65535);
    EXPECT_EQ(decode_tag_user(t), 0x12345678);
}

TEST_F(P2P, ProbeThenRecv) {
    const ByteVec src = test::pattern_bytes(96);
    auto rs = uni.comm(0).isend_bytes(src.data(), 96, 1, 33);
    const auto info = uni.comm(1).probe(0, 33);
    EXPECT_EQ(info.bytes, 96);
    EXPECT_EQ(info.source, 0);
    ByteVec dst(static_cast<std::size_t>(info.bytes));
    auto rr = uni.comm(1).irecv_bytes(dst.data(), info.bytes, info.source, info.tag);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(src, dst);
    (void)rs.wait();
}

TEST_F(P2P, IprobeReturnsNulloptWhenNothingPending) {
    EXPECT_FALSE(uni.comm(1).iprobe(0, 5).has_value());
}

TEST_F(P2P, MprobeImrecvFlow) {
    const ByteVec src = test::pattern_bytes(70);
    auto rs = uni.comm(0).isend_bytes(src.data(), 70, 1, 8);
    auto msg = uni.comm(1).mprobe(0, 8);
    ASSERT_TRUE(msg.valid());
    EXPECT_EQ(msg.info.bytes, 70);
    // The matched message is invisible to further probes.
    EXPECT_FALSE(uni.comm(1).iprobe(0, 8).has_value());
    ByteVec dst(70);
    auto rr = uni.comm(1).imrecv(msg, dst.data(), 70);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(src, dst);
    (void)rs.wait();
}

TEST_F(P2P, VirtualTimePingPongSymmetry) {
    // One ping-pong: both clocks should advance by comparable amounts and
    // include at least two wire latencies at the originating rank.
    const auto params = test::test_params();
    ByteVec buf(1024), tmp(1024);
    auto r1 = uni.comm(1).irecv_bytes(tmp.data(), 1024, 0, 1);
    auto s1 = uni.comm(0).isend_bytes(buf.data(), 1024, 1, 1);
    (void)r1.wait();
    (void)s1.wait();
    auto r2 = uni.comm(0).irecv_bytes(buf.data(), 1024, 1, 2);
    auto s2 = uni.comm(1).isend_bytes(tmp.data(), 1024, 0, 2);
    const auto st = r2.wait();
    (void)s2.wait();
    EXPECT_GE(st.vtime, 2 * params.latency_us);
}

TEST_F(P2P, AdvanceTimeChargesTheClock) {
    const SimTime before = uni.comm(0).now();
    uni.comm(0).advance_time(12.5);
    EXPECT_DOUBLE_EQ(uni.comm(0).now(), before + 12.5);
}

TEST(P2PThreaded, RunWorldPingPong) {
    std::atomic<int> checks{0};
    p2p::run_world(2, [&](Communicator& comm) {
        ByteVec data = test::pattern_bytes(200 * 1024, 4); // rendezvous-sized
        if (comm.rank() == 0) {
            EXPECT_EQ(comm.send_bytes(data.data(), Count(data.size()), 1, 1).status,
                      Status::success);
            ByteVec back(data.size());
            EXPECT_EQ(comm.recv_bytes(back.data(), Count(back.size()), 1, 2).status,
                      Status::success);
            EXPECT_EQ(back, data);
            ++checks;
        } else {
            ByteVec got(data.size());
            EXPECT_EQ(comm.recv_bytes(got.data(), Count(got.size()), 0, 1).status,
                      Status::success);
            EXPECT_EQ(got, data);
            EXPECT_EQ(comm.send_bytes(got.data(), Count(got.size()), 0, 2).status,
                      Status::success);
            ++checks;
        }
    }, test::test_params());
    EXPECT_EQ(checks.load(), 2);
}

TEST(P2PThreaded, ManyRanksAllToOne) {
    constexpr int n = 5;
    std::atomic<int> sum{0};
    p2p::run_world(n, [&](Communicator& comm) {
        if (comm.rank() == 0) {
            for (int i = 1; i < n; ++i) {
                std::int32_t v = 0;
                const auto st = comm.recv_bytes(&v, 4, kAnySource, 9);
                EXPECT_EQ(st.status, Status::success);
                sum += v;
            }
        } else {
            const std::int32_t v = comm.rank() * 10;
            EXPECT_EQ(comm.send_bytes(&v, 4, 0, 9).status, Status::success);
        }
    }, test::test_params());
    EXPECT_EQ(sum.load(), 10 + 20 + 30 + 40);
}

} // namespace
} // namespace mpicd::p2p

namespace mpicd::p2p {
namespace {

TEST(P2PExtras, SendrecvBytesIsDeadlockFreeOnACycle) {
    std::atomic<int> ok_count{0};
    run_world(3, [&](Communicator& comm) {
        const int right = (comm.rank() + 1) % comm.size();
        const int left = (comm.rank() + comm.size() - 1) % comm.size();
        std::int32_t out = comm.rank() * 7;
        std::int32_t in = -1;
        const auto st = comm.sendrecv_bytes(&out, 4, right, 5, &in, 4, left, 5);
        EXPECT_EQ(st.status, Status::success);
        EXPECT_EQ(st.source, left);
        if (in == left * 7) ++ok_count;
    }, test::test_params());
    EXPECT_EQ(ok_count.load(), 3);
}

TEST(P2PExtras, WaitAllCollectsEveryRequest) {
    Universe uni(2, test::test_params());
    constexpr int kMsgs = 6;
    std::int32_t out[kMsgs], in[kMsgs];
    std::vector<Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
        in[i] = -1;
        reqs.push_back(uni.comm(1).irecv_bytes(&in[i], 4, 0, i));
    }
    for (int i = 0; i < kMsgs; ++i) {
        out[i] = i * 3;
        reqs.push_back(uni.comm(0).isend_bytes(&out[i], 4, 1, i));
    }
    EXPECT_EQ(wait_all(reqs), Status::success);
    for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(in[i], i * 3);
}

TEST(P2PExtras, WaitAllReportsFirstError) {
    Universe uni(2, test::test_params());
    std::int32_t v = 0;
    std::vector<Request> reqs;
    reqs.push_back(uni.comm(0).isend_bytes(&v, 4, 9, 0)); // invalid dest
    EXPECT_EQ(wait_all(reqs), Status::err_arg);
}

// --- Argument validation ----------------------------------------------------

// The per-kind entry points of Communicator, addressed by one table.
enum class Kind { bytes, wire, sized, derived_contig, derived_vector, custom };

const char* kind_name(Kind k) {
    switch (k) {
    case Kind::bytes: return "bytes";
    case Kind::wire: return "wire";
    case Kind::sized: return "sized";
    case Kind::derived_contig: return "derived_contig";
    case Kind::derived_vector: return "derived_vector";
    case Kind::custom: return "custom";
    }
    return "?";
}

bool is_derived(Kind k) { return k == Kind::derived_contig || k == Kind::derived_vector; }

// A committed 16-byte type of the given kind (contiguous or strided).
dt::TypeRef committed_type(Kind k) {
    auto t = k == Kind::derived_vector ? dt::Datatype::vector(2, 1, 2, dt::type_int32())
                                       : dt::Datatype::contiguous(4, dt::type_int32());
    EXPECT_EQ(t->commit(), Status::success);
    return t;
}

Request post(Communicator& c, Kind k, bool send, void* buf, Count count, int peer,
             int tag, const dt::TypeRef& type) {
    const auto& custom = core::custom_datatype_of<core::StructSimple>();
    switch (k) {
    case Kind::bytes:
        return send ? c.isend_bytes(buf, count, peer, tag)
                    : c.irecv_bytes(buf, count, peer, tag);
    case Kind::wire:
        return send ? c.isend_wire(buf, count, peer, tag)
                    : c.irecv_wire(buf, count, peer, tag);
    case Kind::sized:
        return send ? c.isend_sized(buf, count, peer, tag)
                    : c.irecv_sized(std::make_shared<ByteVec>(), buf, count, peer, tag);
    case Kind::derived_contig:
    case Kind::derived_vector:
        return send ? c.isend(buf, count, type, peer, tag)
                    : c.irecv(buf, count, type, peer, tag);
    case Kind::custom:
        return send ? c.isend_custom(buf, count, custom, peer, tag)
                    : c.irecv_custom(buf, count, custom, peer, tag);
    }
    return {};
}

constexpr Kind kAllKinds[] = {Kind::bytes,          Kind::wire,
                              Kind::sized,          Kind::derived_contig,
                              Kind::derived_vector, Kind::custom};

// Every payload kind against every bad argument, in both directions: each
// row pins the status the entry point returns, and nothing is posted.
TEST(P2PValidation, EveryKindRejectsEveryBadArgument) {
    Universe uni(2, test::test_params());
    // Rank 5 of a 2-rank world: the communicator is invalid from birth.
    Communicator invalid(uni, uni.worker(0), 5, 2, 0);
    ASSERT_EQ(invalid.status(), Status::err_arg);
    alignas(8) std::byte buf[256] = {};

    enum class TypeArg { good, uncommitted, null };
    struct Bad {
        const char* name;
        Count count;
        int peer;
        int tag;
        TypeArg type;
        bool invalid_comm;
        bool derived_only;
        Status expect;
    };
    const Bad rows[] = {
        {"negative_count", -1, 1, 3, TypeArg::good, false, false, Status::err_arg},
        {"peer_past_world", 1, 2, 3, TypeArg::good, false, false, Status::err_arg},
        {"peer_negative", 1, -2, 3, TypeArg::good, false, false, Status::err_arg},
        {"negative_tag", 1, 1, -7, TypeArg::good, false, false, Status::err_arg},
        {"uncommitted_type", 1, 1, 3, TypeArg::uncommitted, false, true,
         Status::err_not_committed},
        {"null_type", 1, 1, 3, TypeArg::null, false, true, Status::err_arg},
        {"invalid_comm", 1, 1, 3, TypeArg::good, true, false, Status::err_arg},
    };
    for (const Kind k : kAllKinds) {
        for (const Bad& row : rows) {
            if (row.derived_only && !is_derived(k)) continue;
            dt::TypeRef type;
            if (row.type == TypeArg::good) type = committed_type(k);
            if (row.type == TypeArg::uncommitted)
                type = dt::Datatype::vector(2, 1, 2, dt::type_int32());
            for (const bool send : {true, false}) {
                Communicator& c = row.invalid_comm ? invalid : uni.comm(0);
                const Status st =
                    post(c, k, send, buf, row.count, row.peer, row.tag, type).wait().status;
                EXPECT_EQ(st, row.expect) << kind_name(k) << " " << row.name
                                          << (send ? " send" : " recv");
            }
        }
    }
    // The collective plane checks its peer the same way.
    {
        using namespace coll;
        for (const int peer : {-1, 2}) {
            EXPECT_EQ(uni.comm(0).coll_isend(Payload::bytes(buf, 8), peer, 0).wait().status,
                      Status::err_arg);
            EXPECT_EQ(uni.comm(0).coll_irecv(Payload::bytes(buf, 8), peer, 0).wait().status,
                      Status::err_arg);
        }
        EXPECT_EQ(invalid.coll_isend(Payload::bytes(buf, 8), 1, 0).wait().status,
                  Status::err_arg);
    }
    EXPECT_TRUE(uni.worker(0).idle());
    EXPECT_TRUE(uni.worker(1).idle());
}

// A null buffer behind a nonzero packed size is err_arg on every non-custom
// kind, in both directions and on both tag planes, and posts nothing.
TEST_F(P2P, NullBufferIsErrArg) {
    const Kind kinds[] = {Kind::bytes, Kind::wire, Kind::sized, Kind::derived_contig,
                          Kind::derived_vector};
    for (const Kind k : kinds) {
        const dt::TypeRef type = committed_type(k);
        const Count count = is_derived(k) ? 1 : 64;
        Payload p = Payload::bytes(nullptr, count);
        if (k == Kind::wire) p = Payload::wire(nullptr, count);
        if (k == Kind::sized) p = Payload::sized(nullptr, count, std::make_shared<ByteVec>());
        if (is_derived(k)) p = Payload::derived(nullptr, count, type);
        for (const bool send : {true, false}) {
            const char* dir = send ? " send" : " recv";
            EXPECT_EQ(post(uni.comm(0), k, send, nullptr, count, 1, 3, type).wait().status,
                      Status::err_arg)
                << kind_name(k) << dir;
            Communicator& c = uni.comm(0);
            Request rq = send ? c.coll_isend(p, 1, 0) : c.coll_irecv(p, 1, 0);
            EXPECT_EQ(rq.wait().status, Status::err_arg)
                << kind_name(k) << dir << " (collective plane)";
            EXPECT_TRUE(uni.worker(0).idle()) << kind_name(k) << dir;
            EXPECT_TRUE(uni.worker(1).idle()) << kind_name(k) << dir;
        }
    }

    // A matched message is not consumed by a rejected imrecv.
    const ByteVec src = test::pattern_bytes(16);
    auto rs = uni.comm(0).isend_bytes(src.data(), 16, 1, 4);
    Message msg = uni.comm(1).mprobe(0, 4);
    EXPECT_EQ(uni.comm(1).imrecv(msg, nullptr, 16).wait().status, Status::err_arg);
    ByteVec dst(16);
    EXPECT_EQ(uni.comm(1).imrecv(msg, dst.data(), 16).wait().status, Status::success);
    EXPECT_EQ(src, dst);
    EXPECT_EQ(rs.wait().status, Status::success);

    // Zero-size null stays legal.
    auto rr = uni.comm(1).irecv_bytes(nullptr, 0, 0, 9);
    EXPECT_EQ(uni.comm(0).isend_bytes(nullptr, 0, 1, 9).wait().status, Status::success);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_TRUE(uni.worker(0).idle());
    EXPECT_TRUE(uni.worker(1).idle());
}

// sendrecv_bytes reports a failed send on the receive's completion record.
TEST(P2PValidation, SendrecvFailedSendKeepsReceiveResult) {
    Universe uni(2, test::test_params());
    std::int32_t out = 11, in = -1, theirs = 42;
    auto rs = uni.comm(1).isend_bytes(&theirs, 4, 0, 5);
    const MsgStatus st = uni.comm(0).sendrecv_bytes(&out, 4, /*dst=*/-1, 5, &in, 4, 1, 5);
    EXPECT_EQ(st.status, Status::err_arg);
    EXPECT_EQ(st.source, 1);
    EXPECT_EQ(st.tag, 5);
    EXPECT_EQ(st.bytes, 4);
    EXPECT_EQ(in, 42);
    EXPECT_EQ(rs.wait().status, Status::success);
}

// A custom type over one int64 that counts its live states.
std::atomic<int> g_live_states{0};
std::atomic<int> g_states_made{0};
core::CustomDatatype counted_int64() {
    core::CustomCallbacks cb;
    cb.state = [](void*, const void*, Count, void** state) {
        ++g_live_states;
        ++g_states_made;
        *state = &g_live_states;
        return Status::success;
    };
    cb.state_free = [](void*) {
        --g_live_states;
        return Status::success;
    };
    cb.query = [](void*, const void*, Count count, Count* size) {
        *size = 8 * count;
        return Status::success;
    };
    cb.pack = [](void*, const void* buf, Count count, Count offset, void* dst,
                 Count dst_size, Count* used) {
        *used = std::min(dst_size, 8 * count - offset);
        std::memcpy(dst, static_cast<const std::byte*>(buf) + offset,
                    static_cast<std::size_t>(*used));
        return Status::success;
    };
    cb.unpack = [](void*, void* buf, Count, Count offset, const void* src, Count n) {
        std::memcpy(static_cast<std::byte*>(buf) + offset, src,
                    static_cast<std::size_t>(n));
        return Status::success;
    };
    core::CustomDatatype type;
    EXPECT_EQ(core::CustomDatatype::create(cb, &type), Status::success);
    return type;
}

// A successful cancel completes the request: test() and wait() return at
// once with no bytes and the request reported cancelled; a custom receive
// frees its state exactly once; a later message goes to a later receive.
TEST_F(P2P, CancelledReceiveCompletes) {
    const dt::TypeRef vec = committed_type(Kind::derived_vector);
    const core::CustomDatatype custom = counted_int64();
    const Kind kinds[] = {Kind::bytes, Kind::derived_vector, Kind::custom};
    for (const Kind k : kinds) {
        g_live_states = 0;
        g_states_made = 0;
        std::int64_t buf[4] = {-1, -1, -1, -1};
        {
            Communicator& c = uni.comm(1);
            Request rq = k == Kind::bytes ? c.irecv_bytes(buf, 8, 0, 21)
                         : k == Kind::custom ? c.irecv_custom(buf, 1, custom, 0, 21)
                                             : c.irecv(buf, 1, vec, 0, 21);
            ASSERT_TRUE(rq.cancel()) << kind_name(k);
            MsgStatus st;
            bool done = false;
            for (int i = 0; i < 1000 && !done; ++i) done = rq.test(&st);
            ASSERT_TRUE(done) << kind_name(k);
            EXPECT_TRUE(st.cancelled) << kind_name(k);
            EXPECT_EQ(st.status, Status::success) << kind_name(k);
            EXPECT_EQ(st.bytes, 0) << kind_name(k);
            EXPECT_TRUE(rq.wait().cancelled) << kind_name(k);
            EXPECT_FALSE(rq.cancel()) << kind_name(k);
            if (k == Kind::custom) {
                EXPECT_EQ(g_live_states.load(), 0);
            }
        }
        if (k == Kind::custom) {
            EXPECT_EQ(g_states_made.load(), 1);
            EXPECT_EQ(g_live_states.load(), 0);
        }
        EXPECT_EQ(buf[0], -1) << kind_name(k);
        // The tag is free again: a later pair matches normally.
        const std::int64_t v = 77;
        std::int64_t got = 0;
        auto rr = uni.comm(1).irecv_bytes(&got, 8, 0, 21);
        EXPECT_EQ(uni.comm(0).isend_bytes(&v, 8, 1, 21).wait().status, Status::success);
        const MsgStatus st = rr.wait();
        EXPECT_FALSE(st.cancelled);
        EXPECT_EQ(st.bytes, 8);
        EXPECT_EQ(got, 77) << kind_name(k);
    }
    EXPECT_TRUE(uni.worker(0).idle());
    EXPECT_TRUE(uni.worker(1).idle());
}

// The transport packs a derived rendezvous message per fragment, and at
// the default wire parameters every fragment (512 KiB) is below the
// parallel pool's threshold (2 MiB): even a 4 MiB message packs and
// unpacks serially, through the compiled plan.
TEST(DtBridge, DefaultTransfersPackSerially) {
    if (std::getenv("MPICD_PAR_PACK_THRESHOLD") != nullptr)
        GTEST_SKIP() << "MPICD_PAR_PACK_THRESHOLD overrides the default threshold";
    Universe uni(2, test::test_params());
    const netsim::WireParams& wp = uni.fabric().params();
    ASSERT_LT(wp.rndv_frag_size, dt::par_pack_threshold());
    const auto type = core::struct_simple_dt();
    const Count count = (4 << 20) / core::kScalarPack;
    std::vector<core::StructSimple> src(static_cast<std::size_t>(count)), dst(src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = {static_cast<std::int32_t>(i), 2, -static_cast<std::int32_t>(i), 0.5 * i};
    const auto before = pack_stats().snapshot();
    auto rr = uni.comm(1).irecv(dst.data(), count, type, 0, 3);
    auto rs = uni.comm(0).isend(src.data(), count, type, 1, 3);
    const MsgStatus st = rr.wait();
    ASSERT_EQ(rs.wait().status, Status::success);
    ASSERT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, count * core::kScalarPack);
    const auto after = pack_stats().snapshot();
    EXPECT_EQ(after.parallel_packs, before.parallel_packs);
    for (std::size_t i = 0; i < src.size(); ++i) {
        ASSERT_EQ(dst[i].a, src[i].a) << "element " << i;
        ASSERT_EQ(dst[i].c, src[i].c) << "element " << i;
        ASSERT_EQ(dst[i].d, src[i].d) << "element " << i;
    }
}

} // namespace
} // namespace mpicd::p2p

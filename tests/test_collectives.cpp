// Tests for the collectives extension (the paper's §VIII future work).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>

#include "core/builtin_serialize.hpp"
#include "core/paper_types.hpp"
#include "p2p/coll/vcoll.hpp"
#include "p2p/collectives.hpp"
#include "p2p/runner.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd::p2p {
namespace {

class CollectiveWorld : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWorld, BarrierCompletesEverywhere) {
    const int n = GetParam();
    std::atomic<int> done{0};
    run_world(n, [&](Communicator& comm) {
        EXPECT_EQ(barrier(comm), Status::success);
        EXPECT_EQ(barrier(comm), Status::success); // back-to-back
        ++done;
    }, test::test_params());
    EXPECT_EQ(done.load(), n);
}

TEST_P(CollectiveWorld, BcastBytesFromEveryRoot) {
    const int n = GetParam();
    for (int root = 0; root < n; ++root) {
        std::atomic<int> correct{0};
        run_world(n, [&](Communicator& comm) {
            ByteVec buf(4096);
            if (comm.rank() == root) buf = test::pattern_bytes(4096, 42);
            ASSERT_EQ(bcast_bytes(comm, buf.data(), 4096, root), Status::success);
            if (buf == test::pattern_bytes(4096, 42)) ++correct;
        }, test::test_params());
        EXPECT_EQ(correct.load(), n) << "root=" << root;
    }
}

TEST_P(CollectiveWorld, BcastLargeGoesRendezvous) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    const std::size_t big = 256 * 1024;
    run_world(n, [&](Communicator& comm) {
        ByteVec buf(big);
        if (comm.rank() == 0) buf = test::pattern_bytes(big, 7);
        ASSERT_EQ(bcast_bytes(comm, buf.data(), Count(big), 0), Status::success);
        if (buf == test::pattern_bytes(big, 7)) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST_P(CollectiveWorld, BcastDerivedDatatype) {
    const int n = GetParam();
    auto t = dt::Datatype::vector(64, 1, 2, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        std::vector<double> grid(128, 0.0);
        if (comm.rank() == 0) {
            for (int i = 0; i < 128; i += 2) grid[static_cast<std::size_t>(i)] = i;
        }
        ASSERT_EQ(bcast(comm, grid.data(), 1, t, 0), Status::success);
        bool good = true;
        for (int i = 0; i < 128; ++i) {
            const double expect = i % 2 == 0 ? i : 0.0;
            if (grid[static_cast<std::size_t>(i)] != expect) good = false;
        }
        if (good) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST_P(CollectiveWorld, BcastCustomDatatype) {
    const int n = GetParam();
    using Sub = std::vector<std::int32_t>;
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        std::vector<Sub> obj(3);
        for (std::size_t i = 0; i < 3; ++i) obj[i].resize(200 * (i + 1));
        if (comm.rank() == 1) {
            for (std::size_t i = 0; i < 3; ++i) {
                std::iota(obj[i].begin(), obj[i].end(), int(i) * 1000);
            }
        }
        ASSERT_EQ(bcast_custom(comm, obj.data(), 3, core::custom_datatype_of<Sub>(),
                               /*root=*/1),
                  Status::success);
        bool good = true;
        for (std::size_t i = 0; i < 3; ++i) {
            if (obj[i][0] != int(i) * 1000 || obj[i].back() !=
                int(i) * 1000 + static_cast<int>(obj[i].size()) - 1)
                good = false;
        }
        if (good) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST_P(CollectiveWorld, GatherBytesAssemblesBlocks) {
    const int n = GetParam();
    std::atomic<bool> root_ok{false};
    run_world(n, [&](Communicator& comm) {
        std::int32_t mine = comm.rank() * 11;
        std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
        ASSERT_EQ(gather_bytes(comm, &mine, 4,
                               comm.rank() == 0 ? all.data() : nullptr, 0),
                  Status::success);
        if (comm.rank() == 0) {
            bool good = true;
            for (int i = 0; i < n; ++i) {
                if (all[static_cast<std::size_t>(i)] != i * 11) good = false;
            }
            root_ok = good;
        }
    }, test::test_params());
    EXPECT_TRUE(root_ok.load());
}

TEST_P(CollectiveWorld, AllreduceSumDoubles) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        double vals[3] = {1.0 * comm.rank(), 2.0, -1.0 * comm.rank()};
        ASSERT_EQ(allreduce(comm, vals, 3, ReduceOp::sum), Status::success);
        const double ranksum = n * (n - 1) / 2.0;
        if (vals[0] == ranksum && vals[1] == 2.0 * n && vals[2] == -ranksum)
            ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST_P(CollectiveWorld, AllreduceMinMaxInt64) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        std::int64_t mn = 100 + comm.rank();
        std::int64_t mx = 100 + comm.rank();
        ASSERT_EQ(allreduce(comm, &mn, 1, ReduceOp::min), Status::success);
        ASSERT_EQ(allreduce(comm, &mx, 1, ReduceOp::max), Status::success);
        if (mn == 100 && mx == 100 + n - 1) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

// Power-of-two and straggler world sizes.
INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveWorld, ::testing::Values(2, 3, 4, 5, 8));

TEST(Collectives, BcastUncommittedTypeRejected) {
    run_world(2, [&](Communicator& comm) {
        auto t = dt::Datatype::contiguous(4, dt::type_int32()); // not committed
        std::int32_t buf[4] = {};
        EXPECT_EQ(bcast(comm, buf, 1, t, 0), Status::err_not_committed);
    }, test::test_params());
}

// --- Regressions: the tag-space collision / aliasing bug class. -----------

// Pre-fix, the collectives rode user tags in the 0x7FFF0000 window: the
// double allreduce's internal bcast used 0x7FFF0006 — the int64
// allreduce's base tag — and any user message there was fair game for the
// collective's matcher (and vice versa). The reserved collective context
// (kCollContextBit) makes that structurally impossible: user traffic on
// exactly those tags must pass through untouched while allreduces of both
// element types run.
TEST(CollTagIsolation, UserTrafficOnHistoricalCollisionTags) {
    run_world(2, [&](Communicator& comm) {
        const int peer = 1 - comm.rank();
        const ByteVec expect = test::pattern_bytes(512, 77);
        ByteVec in(512);
        auto rr = comm.irecv_bytes(in.data(), 512, peer, 0x7FFF0006);
        double d[2] = {1.0 + comm.rank(), -2.0};
        std::int64_t q[2] = {10 + comm.rank(), 5};
        ASSERT_EQ(allreduce(comm, d, 2, ReduceOp::sum), Status::success);
        ASSERT_EQ(allreduce(comm, q, 2, ReduceOp::sum), Status::success);
        const ByteVec out = test::pattern_bytes(512, 77);
        ASSERT_EQ(comm.send_bytes(out.data(), 512, peer, 0x7FFF0006).status,
                  Status::success);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(in, expect);
        EXPECT_EQ(d[0], 3.0);
        EXPECT_EQ(d[1], -4.0);
        EXPECT_EQ(q[0], 21);
        EXPECT_EQ(q[1], 10);
    }, test::test_params());
}

// Double and int64 allreduces in flight CONCURRENTLY: pre-fix their
// internal rounds shared the same user-tag window and cross-matched.
TEST_P(CollectiveWorld, InterleavedDoubleAndInt64Allreduces) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        double d = 1.5 * (comm.rank() + 1);
        std::int64_t q = 100 + comm.rank();
        coll::CollRequest reqs[2] = {
            coll::iallreduce(comm, &d, 1, ReduceOp::sum),
            coll::iallreduce(comm, &q, 1, ReduceOp::max),
        };
        ASSERT_EQ(coll::wait_all(reqs), Status::success);
        const double sum = 1.5 * n * (n + 1) / 2.0;
        if (d == sum && q == 100 + n - 1) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

// Pre-fix, barrier posted irecv and isend on the SAME token byte — a
// send/recv race on one address. Back-to-back barriers across many ranks
// exercise the separated-token dissemination rounds (also replayed under
// TSan by tools/run_faults_matrix.sh).
TEST(CollStress, BackToBackBarriers) {
    run_world(5, [&](Communicator& comm) {
        for (int i = 0; i < 25; ++i)
            ASSERT_EQ(barrier(comm), Status::success) << "iteration " << i;
    }, test::test_params());
}

// Pre-fix, gather_bytes memcpy'd the root's own block even when n == 0
// and send == nullptr (UB). Zero-byte and single-rank gathers must be
// clean no-ops.
TEST(CollEdge, GatherZeroBytesAndSingleRank) {
    run_world(3, [&](Communicator& comm) {
        EXPECT_EQ(gather_bytes(comm, nullptr, 0, nullptr, 0), Status::success);
    }, test::test_params());
    run_world(1, [&](Communicator& comm) {
        std::int32_t v = 7, out = -1;
        EXPECT_EQ(gather_bytes(comm, &v, 4, &out, 0), Status::success);
        EXPECT_EQ(out, 7);
        EXPECT_EQ(gather_bytes(comm, nullptr, 0, nullptr, 0), Status::success);
        EXPECT_EQ(bcast_bytes(comm, nullptr, 0, 0), Status::success);
        double d = 2.5;
        EXPECT_EQ(allreduce(comm, &d, 1, ReduceOp::sum), Status::success);
        EXPECT_EQ(d, 2.5);
        EXPECT_EQ(allreduce(comm, static_cast<double*>(nullptr), 0, ReduceOp::sum),
                  Status::success);
    }, test::test_params());
}

// The collective plane is reserved: a user-supplied communicator context
// carrying kCollContextBit is rejected at construction.
TEST(CollContext, UserContextWithCollBitRejected) {
    Universe uni(2, test::test_params());
    Communicator bad(uni, uni.worker(0), 0, 2,
                     static_cast<std::uint16_t>(kCollContextBit | 0x12));
    EXPECT_EQ(bad.status(), Status::err_arg);
    std::byte b{};
    EXPECT_EQ(bad.isend_bytes(&b, 1, 1, 0).wait().status, Status::err_arg);
}

// A rank failing LOCAL validation must not consume a tag block (the epoch
// counter stays in lockstep), so later collectives still pair up.
TEST(CollValidation, LocalErrorDoesNotDesyncTagEpoch) {
    run_world(2, [&](Communicator& comm) {
        double d = comm.rank();
        EXPECT_EQ(allreduce(comm, static_cast<double*>(nullptr), 3, ReduceOp::sum),
                  Status::err_arg);
        EXPECT_EQ(allreduce(comm, &d, -1, ReduceOp::sum), Status::err_arg);
        EXPECT_EQ(bcast_bytes(comm, &d, 8, 5), Status::err_arg); // root range
        ASSERT_EQ(allreduce(comm, &d, 1, ReduceOp::sum), Status::success);
        EXPECT_EQ(d, 1.0);
    }, test::test_params());
}

// CollRequest::test() progresses the universe once per call, so polling it
// alone drives a collective to completion; it stays true once complete and
// is true at once for a request that failed validation.
TEST(CollRequestPoll, TestAloneDrivesBarrierAndAllreduce) {
    run_world(4, [&](Communicator& comm) {
        double d = comm.rank() + 1.0;
        std::int64_t q = 10 * comm.rank();
        coll::CollRequest reqs[3] = {
            coll::ibarrier(comm),
            coll::iallreduce(comm, &d, 1, ReduceOp::sum),
            coll::iallreduce(comm, &q, 1, ReduceOp::max),
        };
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        for (auto& r : reqs) {
            while (!r.test())
                ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                    << "test() never reported completion";
            EXPECT_TRUE(r.test()); // sticky once complete
            EXPECT_EQ(r.wait(), Status::success);
        }
        EXPECT_EQ(d, 10.0);
        EXPECT_EQ(q, 30);

        coll::CollRequest bad =
            coll::iallreduce(comm, static_cast<double*>(nullptr), 3, ReduceOp::sum);
        EXPECT_TRUE(bad.test());
        EXPECT_EQ(bad.wait(), Status::err_arg);
    }, test::test_params());
}

// --- Nonblocking overlap with point-to-point traffic. ---------------------

// A collective stays in flight while the same ranks run a p2p ring on
// tags inside the historical collision window; both complete and neither
// steals the other's messages.
TEST(CollOverlap, NonblockingCollectiveOverlapsP2P) {
    run_world(4, [&](Communicator& comm) {
        double d = comm.rank() + 1.0;
        auto cr = coll::iallreduce(comm, &d, 1, ReduceOp::sum);
        // A v-variant in flight alongside: rank i contributes i+1 int32s.
        // Counts and displacements are read only during the call.
        const std::vector<Count> counts = {1, 2, 3, 4}, displs = {0, 1, 3, 6};
        const std::vector<std::int32_t> mine(
            static_cast<std::size_t>(comm.rank() + 1), comm.rank() * 7);
        std::vector<std::int32_t> all(10, -1);
        coll::CollRequest vr;
        {
            const std::vector<Count> bytes = {4, 8, 12, 16}, offs = {0, 4, 12, 24};
            vr = coll::iallgatherv_bytes(comm, mine.data(), 4 * (comm.rank() + 1),
                                         all.data(), bytes, offs);
        }
        const int next = (comm.rank() + 1) % 4;
        const int prev = (comm.rank() + 3) % 4;
        for (int i = 0; i < 8; ++i) {
            std::int32_t out = comm.rank() * 100 + i, in = -1;
            auto rr = comm.irecv_bytes(&in, 4, prev, 0x7FFF0000 + i);
            auto rs = comm.isend_bytes(&out, 4, next, 0x7FFF0000 + i);
            EXPECT_EQ(rs.wait().status, Status::success);
            EXPECT_EQ(rr.wait().status, Status::success);
            EXPECT_EQ(in, prev * 100 + i);
        }
        EXPECT_EQ(cr.wait(), Status::success);
        EXPECT_DOUBLE_EQ(d, 10.0);
        EXPECT_EQ(vr.wait(), Status::success);
        for (int i = 0; i < 4; ++i)
            for (Count j = 0; j < counts[static_cast<std::size_t>(i)]; ++j)
                EXPECT_EQ(all[static_cast<std::size_t>(displs[static_cast<std::size_t>(i)] + j)],
                          i * 7);
    }, test::test_params());
}

// --- v-variants. ----------------------------------------------------------

TEST_P(CollectiveWorld, GathervBytesVariableBlocks) {
    const int n = GetParam();
    std::atomic<bool> root_ok{false};
    run_world(n, [&](Communicator& comm) {
        const Count mine = comm.rank() + 1;
        const ByteVec send =
            test::pattern_bytes(static_cast<std::size_t>(mine),
                                static_cast<std::uint32_t>(comm.rank() + 1));
        std::vector<Count> counts(static_cast<std::size_t>(n));
        std::vector<Count> displs(static_cast<std::size_t>(n));
        Count off = 0;
        for (int i = 0; i < n; ++i) {
            counts[static_cast<std::size_t>(i)] = i + 1;
            displs[static_cast<std::size_t>(i)] = off;
            off += i + 1;
        }
        ByteVec recv(static_cast<std::size_t>(off));
        ASSERT_EQ(coll::gatherv_bytes(comm, send.data(), mine,
                                      comm.rank() == 0 ? recv.data() : nullptr,
                                      counts, displs, 0),
                  Status::success);
        if (comm.rank() == 0) {
            bool good = true;
            for (int i = 0; i < n; ++i) {
                const ByteVec expect = test::pattern_bytes(
                    static_cast<std::size_t>(i + 1),
                    static_cast<std::uint32_t>(i + 1));
                if (!std::equal(expect.begin(), expect.end(),
                                recv.begin() + displs[static_cast<std::size_t>(i)]))
                    good = false;
            }
            root_ok = good;
        }
    }, test::test_params());
    EXPECT_TRUE(root_ok.load());
}

TEST_P(CollectiveWorld, AllgathervBytesEveryRankAssembles) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        const Count mine = 3 * (comm.rank() + 1);
        const ByteVec send =
            test::pattern_bytes(static_cast<std::size_t>(mine),
                                static_cast<std::uint32_t>(comm.rank() + 50));
        std::vector<Count> counts(static_cast<std::size_t>(n));
        std::vector<Count> displs(static_cast<std::size_t>(n));
        Count off = 0;
        for (int i = 0; i < n; ++i) {
            counts[static_cast<std::size_t>(i)] = 3 * (i + 1);
            displs[static_cast<std::size_t>(i)] = off;
            off += 3 * (i + 1);
        }
        ByteVec recv(static_cast<std::size_t>(off));
        ASSERT_EQ(coll::allgatherv_bytes(comm, send.data(), mine, recv.data(),
                                         counts, displs),
                  Status::success);
        bool good = true;
        for (int i = 0; i < n; ++i) {
            const ByteVec expect = test::pattern_bytes(
                static_cast<std::size_t>(3 * (i + 1)),
                static_cast<std::uint32_t>(i + 50));
            if (!std::equal(expect.begin(), expect.end(),
                            recv.begin() + displs[static_cast<std::size_t>(i)]))
                good = false;
        }
        if (good) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST_P(CollectiveWorld, AlltoallvBytesExchangesBlocks) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        const int r = comm.rank();
        // Block r->p holds r+p+1 bytes seeded by (r, p); the count formula
        // is symmetric, so rank p's recvcounts[r] matches automatically.
        std::vector<Count> scounts(static_cast<std::size_t>(n));
        std::vector<Count> sdispls(static_cast<std::size_t>(n));
        Count soff = 0;
        for (int p = 0; p < n; ++p) {
            scounts[static_cast<std::size_t>(p)] = r + p + 1;
            sdispls[static_cast<std::size_t>(p)] = soff;
            soff += r + p + 1;
        }
        ByteVec send(static_cast<std::size_t>(soff));
        for (int p = 0; p < n; ++p) {
            const ByteVec blk = test::pattern_bytes(
                static_cast<std::size_t>(r + p + 1),
                static_cast<std::uint32_t>(r * 100 + p + 1));
            std::copy(blk.begin(), blk.end(),
                      send.begin() + sdispls[static_cast<std::size_t>(p)]);
        }
        ByteVec recv(static_cast<std::size_t>(soff)); // same total by symmetry
        ASSERT_EQ(coll::alltoallv_bytes(comm, send.data(), scounts, sdispls,
                                        recv.data(), scounts, sdispls),
                  Status::success);
        bool good = true;
        for (int p = 0; p < n; ++p) {
            const ByteVec expect = test::pattern_bytes(
                static_cast<std::size_t>(r + p + 1),
                static_cast<std::uint32_t>(p * 100 + r + 1));
            if (!std::equal(expect.begin(), expect.end(),
                            recv.begin() + sdispls[static_cast<std::size_t>(p)]))
                good = false;
        }
        if (good) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST(CollV, DerivedGathervAndAllgatherv) {
    const int n = 3;
    run_world(n, [&](Communicator& comm) {
        const int r = comm.rank();
        const Count mine = r + 1; // elements
        std::vector<std::int32_t> send(static_cast<std::size_t>(mine));
        for (Count i = 0; i < mine; ++i)
            send[static_cast<std::size_t>(i)] =
                r * 1000 + static_cast<std::int32_t>(i);
        std::vector<Count> counts = {1, 2, 3};
        std::vector<Count> displs = {0, 1, 3}; // element displacements
        const auto t = dt::type_int32();
        // gatherv to root 1.
        std::vector<std::int32_t> g(6, -1);
        ASSERT_EQ(coll::gatherv(comm, send.data(), mine, t,
                                r == 1 ? g.data() : nullptr, counts, displs, t,
                                /*root=*/1),
                  Status::success);
        if (r == 1) {
            const std::vector<std::int32_t> expect = {0, 1000, 1001,
                                                      2000, 2001, 2002};
            EXPECT_EQ(g, expect);
        }
        // allgatherv: every rank assembles the same vector.
        std::vector<std::int32_t> all(6, -1);
        ASSERT_EQ(coll::allgatherv(comm, send.data(), mine, t, all.data(),
                                   counts, displs, t),
                  Status::success);
        const std::vector<std::int32_t> expect = {0, 1000, 1001,
                                                  2000, 2001, 2002};
        EXPECT_EQ(all, expect);
    }, test::test_params());
}

TEST(CollV, DerivedAlltoallv) {
    const int n = 3;
    run_world(n, [&](Communicator& comm) {
        const int r = comm.rank();
        const auto t = dt::type_int32();
        // One element to every peer: element r*10+p goes r -> p.
        std::vector<Count> ones = {1, 1, 1};
        std::vector<Count> displs = {0, 1, 2};
        std::vector<std::int32_t> send(3), recv(3, -1);
        for (int p = 0; p < n; ++p)
            send[static_cast<std::size_t>(p)] = r * 10 + p;
        ASSERT_EQ(coll::alltoallv(comm, send.data(), ones, displs, t,
                                  recv.data(), ones, displs, t),
                  Status::success);
        for (int p = 0; p < n; ++p)
            EXPECT_EQ(recv[static_cast<std::size_t>(p)], p * 10 + r);
    }, test::test_params());
}

TEST(CollVCustom, GathervAndAllgathervCustomVariableSizes) {
    using Sub = std::vector<std::int32_t>;
    const int n = 3;
    run_world(n, [&](Communicator& comm) {
        const int r = comm.rank();
        Sub mine(static_cast<std::size_t>(100 * (r + 1)));
        std::iota(mine.begin(), mine.end(), r * 1000);
        // Pre-shaped receive objects: the receiver's own query callback
        // sets the expected packed size per source (§VI size contract).
        std::vector<Sub> recv(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            recv[static_cast<std::size_t>(i)].resize(
                static_cast<std::size_t>(100 * (i + 1)));
        std::vector<void*> ptrs;
        for (auto& s : recv) ptrs.push_back(&s);
        const auto check = [&](const char* what) {
            for (int i = 0; i < n; ++i) {
                const Sub& s = recv[static_cast<std::size_t>(i)];
                EXPECT_EQ(s.front(), i * 1000) << what;
                EXPECT_EQ(s.back(), i * 1000 + 100 * (i + 1) - 1) << what;
            }
        };
        ASSERT_EQ(coll::gatherv_custom(comm, &mine,
                                       core::custom_datatype_of<Sub>(),
                                       std::span<void* const>(ptrs), /*root=*/2),
                  Status::success);
        if (r == 2) check("gatherv_custom");
        for (auto& s : recv) std::fill(s.begin(), s.end(), -1);
        ASSERT_EQ(coll::allgatherv_custom(comm, &mine,
                                          core::custom_datatype_of<Sub>(),
                                          std::span<void* const>(ptrs)),
                  Status::success);
        check("allgatherv_custom");
    }, test::test_params());
}

TEST(CollVCustom, AlltoallvCustomVariableSizes) {
    using Sub = std::vector<std::int32_t>;
    const int n = 3;
    run_world(n, [&](Communicator& comm) {
        const int r = comm.rank();
        // r sends p a vector of 10*(r+p+1) elements starting at r*100+p.
        std::vector<Sub> send(static_cast<std::size_t>(n));
        std::vector<Sub> recv(static_cast<std::size_t>(n));
        std::vector<const void*> sptrs;
        std::vector<void*> rptrs;
        for (int p = 0; p < n; ++p) {
            auto& s = send[static_cast<std::size_t>(p)];
            s.resize(static_cast<std::size_t>(10 * (r + p + 1)));
            std::iota(s.begin(), s.end(), r * 100 + p);
            recv[static_cast<std::size_t>(p)].resize(
                static_cast<std::size_t>(10 * (r + p + 1)));
            sptrs.push_back(&s);
            rptrs.push_back(&recv[static_cast<std::size_t>(p)]);
        }
        ASSERT_EQ(coll::alltoallv_custom(comm,
                                         std::span<const void* const>(sptrs),
                                         std::span<void* const>(rptrs),
                                         core::custom_datatype_of<Sub>()),
                  Status::success);
        for (int p = 0; p < n; ++p) {
            const Sub& got = recv[static_cast<std::size_t>(p)];
            ASSERT_EQ(got.size(), static_cast<std::size_t>(10 * (r + p + 1)));
            EXPECT_EQ(got.front(), p * 100 + r);
        }
    }, test::test_params());
}

// --- Hierarchical algorithms on a two-level topology. ---------------------

netsim::WireParams two_level_params() {
    netsim::WireParams p = test::test_params();
    p.ranks_per_node = 2;
    p.inter_latency_us = 10.0;
    p.inter_bandwidth_Bpus = 1250.0; // 10x slower than the intra plane
    return p;
}

TEST(CollHier, CollectivesCorrectOnTwoLevelTopology) {
    const int n = 6; // three nodes of two
    const auto hier_before = coll::coll_counters().hier_selected.load();
    run_world(n, [&](Communicator& comm) {
        // bcast from a non-leader root.
        ByteVec buf(2048);
        if (comm.rank() == 3) buf = test::pattern_bytes(2048, 9);
        ASSERT_EQ(bcast_bytes(comm, buf.data(), 2048, 3), Status::success);
        EXPECT_EQ(buf, test::pattern_bytes(2048, 9));
        // gather to a member (non-leader) root.
        std::int32_t mine = comm.rank() * 3;
        std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
        ASSERT_EQ(gather_bytes(comm, &mine, 4,
                               comm.rank() == 5 ? all.data() : nullptr, 5),
                  Status::success);
        if (comm.rank() == 5)
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 3);
        // allreduce.
        double d = comm.rank() + 0.5;
        ASSERT_EQ(allreduce(comm, &d, 1, ReduceOp::sum), Status::success);
        EXPECT_DOUBLE_EQ(d, 18.0);
        // allgatherv (leader-aggregated superblocks).
        const Count mybytes = 4 * (comm.rank() + 1);
        const ByteVec send = test::pattern_bytes(
            static_cast<std::size_t>(mybytes),
            static_cast<std::uint32_t>(comm.rank() + 7));
        std::vector<Count> counts(static_cast<std::size_t>(n));
        std::vector<Count> displs(static_cast<std::size_t>(n));
        Count off = 0;
        for (int i = 0; i < n; ++i) {
            counts[static_cast<std::size_t>(i)] = 4 * (i + 1);
            displs[static_cast<std::size_t>(i)] = off;
            off += 4 * (i + 1);
        }
        ByteVec recv(static_cast<std::size_t>(off));
        ASSERT_EQ(coll::allgatherv_bytes(comm, send.data(), mybytes, recv.data(),
                                         counts, displs),
                  Status::success);
        for (int i = 0; i < n; ++i) {
            const ByteVec expect = test::pattern_bytes(
                static_cast<std::size_t>(4 * (i + 1)),
                static_cast<std::uint32_t>(i + 7));
            EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                   recv.begin() +
                                       displs[static_cast<std::size_t>(i)]))
                << "source rank " << i;
        }
    }, two_level_params());
    // auto-selection must have picked the hierarchical family here.
    EXPECT_GT(coll::coll_counters().hier_selected.load(), hier_before);
}

// coll/leader_bytes counts what hierarchical ops actually moved between
// nodes, whatever the payload kind: a custom-datatype bcast on 4 nodes of
// 3 crosses the inter-node plane once per non-root node with the packed
// size (20 bytes per StructSimple).
TEST(CollHier, LeaderBytesCountPackedCustomBcast) {
    netsim::WireParams p = test::test_params();
    p.ranks_per_node = 3;
    constexpr Count kElems = 100;
    const auto before = coll::coll_counters().leader_bytes.load();
    run_world(12, [&](Communicator& comm) {
        std::vector<core::StructSimple> v(kElems);
        if (comm.rank() == 4)
            for (Count i = 0; i < kElems; ++i)
                v[static_cast<std::size_t>(i)].c = static_cast<std::int32_t>(i);
        ASSERT_EQ(bcast_custom(comm, v.data(), kElems,
                               core::custom_datatype_of<core::StructSimple>(), 4),
                  Status::success);
        EXPECT_EQ(v.back().c, kElems - 1);
    }, p);
    EXPECT_EQ(coll::coll_counters().leader_bytes.load() - before,
              static_cast<std::uint64_t>((4 - 1) * kElems * core::kScalarPack));
}

// Flat and hierarchical algorithms must be observationally identical;
// force each in turn on the same two-level world (ragged last node).
TEST(CollHier, ForcedFlatAndHierAgree) {
    for (const auto algo : {coll::Algo::flat, coll::Algo::hier}) {
        coll::set_algo_override(algo);
        const int n = 5; // nodes {0,1}, {2,3}, {4} — ragged
        run_world(n, [&](Communicator& comm) {
            ByteVec buf(256);
            if (comm.rank() == 0) buf = test::pattern_bytes(256, 4);
            ASSERT_EQ(bcast_bytes(comm, buf.data(), 256, 0), Status::success);
            EXPECT_EQ(buf, test::pattern_bytes(256, 4));
            std::int64_t v = comm.rank();
            ASSERT_EQ(allreduce(comm, &v, 1, ReduceOp::sum), Status::success);
            EXPECT_EQ(v, 10);
            std::int32_t mine = comm.rank() + 1;
            std::vector<std::int32_t> g(static_cast<std::size_t>(n), -1);
            ASSERT_EQ(gather_bytes(comm, &mine, 4,
                                   comm.rank() == 2 ? g.data() : nullptr, 2),
                      Status::success);
            if (comm.rank() == 2)
                for (int i = 0; i < n; ++i)
                    EXPECT_EQ(g[static_cast<std::size_t>(i)], i + 1);
        }, two_level_params());
    }
    coll::set_algo_override(std::nullopt);
}

} // namespace
} // namespace mpicd::p2p

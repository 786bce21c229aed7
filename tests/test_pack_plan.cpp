// Pack-plan compiler, parallel pack engine, iovec coalescing, and the
// derived-datatype descriptors: the compiled fast paths must be
// byte-identical to the generic per-segment convertor on every datatype
// shape, cursor position, and fragment boundary.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "base/stats.hpp"
#include "core/paper_types.hpp"
#include "ddtbench/kernel.hpp"
#include "dt/convertor.hpp"
#include "dt/pack_plan.hpp"
#include "dt/par_pack.hpp"
#include "dt/signature.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd {
namespace {

// Force a multi-thread pool even on single-core CI hosts so the parallel
// determinism tests actually partition work. Runs before main(), i.e.
// before par_pack_workers() caches the env; overwrite=0 keeps an external
// override in charge.
struct EnvInit {
    EnvInit() { ::setenv("MPICD_PAR_PACK_THREADS", "3", 0); }
};
const EnvInit env_init;

// Same random tree shape as test_property, plus negative-stride hvectors
// (address order != pack order) to stress the plan compiler's stride runs.
dt::TypeRef random_type(std::mt19937& rng, int depth) {
    std::uniform_int_distribution<int> leaf_pick(0, 3);
    if (depth == 0) {
        switch (leaf_pick(rng)) {
            case 0: return dt::type_int32();
            case 1: return dt::type_double();
            case 2: return dt::type_byte();
            default: return dt::type_int64();
        }
    }
    std::uniform_int_distribution<int> kind_pick(0, 5);
    std::uniform_int_distribution<Count> small(1, 4);
    auto base = random_type(rng, depth - 1);
    switch (kind_pick(rng)) {
        case 0: return dt::Datatype::contiguous(small(rng), base);
        case 1: {
            const Count blocklen = small(rng);
            const Count stride = blocklen + small(rng); // positive gap
            return dt::Datatype::vector(small(rng), blocklen, stride, base);
        }
        case 2: {
            const Count nblocks = small(rng);
            std::vector<Count> blocklens, displs;
            Count at = 0;
            for (Count b = 0; b < nblocks; ++b) {
                const Count len = small(rng);
                blocklens.push_back(len);
                displs.push_back(at);
                at += len + small(rng);
            }
            return dt::Datatype::indexed(blocklens, displs, base);
        }
        case 3: {
            const Count blocklens[] = {1, 1};
            const Count displs[] = {0, base->ub() + 4};
            const dt::TypeRef types[] = {base, dt::type_int32()};
            return dt::Datatype::struct_(blocklens, displs, types);
        }
        case 4: {
            // Reversed blocks: pack order walks addresses downward.
            const Count bytes = base->extent() + small(rng) * 2;
            return dt::Datatype::hvector(small(rng) + 1, 1, -bytes, base);
        }
        default:
            return dt::Datatype::resized(base, base->lb(),
                                         base->extent() + 8 * small(rng));
    }
}

struct Harness {
    dt::TypeRef type;
    Count count = 0;
    Count anchor = 0;
    ByteVec buf; // pattern-filled user buffer
    [[nodiscard]] Count total() const { return type->size() * count; }
    [[nodiscard]] std::byte* base() { return buf.data() + anchor; }
};

Harness make_harness(unsigned seed, int depth) {
    std::mt19937 rng(seed * 6151u + 3u);
    Harness h;
    h.type = random_type(rng, depth);
    EXPECT_NE(h.type, nullptr);
    EXPECT_EQ(h.type->commit(), Status::success);
    h.count = 1 + static_cast<Count>(seed % 4);
    // hvector children can push true_lb negative in either direction;
    // anchor generously on both sides.
    const Count pad = h.type->true_extent() + 64;
    h.anchor = std::max<Count>(0, -h.type->true_lb()) + pad;
    const Count span = h.type->extent() * h.count + 2 * pad + h.anchor;
    h.buf = test::pattern_bytes(static_cast<std::size_t>(span), seed);
    return h;
}

class PlanVsGeneric : public ::testing::TestWithParam<int> {};

TEST_P(PlanVsGeneric, PackIsByteIdentical) {
    auto h = make_harness(static_cast<unsigned>(GetParam()), 3);
    ByteVec generic(static_cast<std::size_t>(h.total()));
    ByteVec plan(generic.size());
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, generic, &used,
                                      dt::PackMode::generic),
              Status::success);
    ASSERT_EQ(used, h.total());
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, plan, &used,
                                      dt::PackMode::plan),
              Status::success);
    ASSERT_EQ(used, h.total());
    EXPECT_EQ(generic, plan);
}

TEST_P(PlanVsGeneric, UnpackIsByteIdentical) {
    auto h = make_harness(static_cast<unsigned>(GetParam()) + 1000u, 3);
    ByteVec packed(static_cast<std::size_t>(h.total()));
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, packed, &used,
                                      dt::PackMode::generic),
              Status::success);
    ByteVec via_generic(h.buf.size(), std::byte{0});
    ByteVec via_plan(h.buf.size(), std::byte{0});
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, via_generic.data() + h.anchor,
                                        h.count, packed, dt::PackMode::generic),
              Status::success);
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, via_plan.data() + h.anchor, h.count,
                                        packed, dt::PackMode::plan),
              Status::success);
    EXPECT_EQ(via_generic, via_plan);
}

TEST_P(PlanVsGeneric, RandomFragmentBoundariesMatchMonolithic) {
    auto h = make_harness(static_cast<unsigned>(GetParam()) + 2000u, 2);
    if (h.total() == 0) GTEST_SKIP();
    ByteVec whole(static_cast<std::size_t>(h.total()));
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, whole, &used,
                                      dt::PackMode::generic),
              Status::success);

    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31u + 5u);
    std::uniform_int_distribution<Count> frag(1, std::max<Count>(1, h.total() / 3));
    ByteVec pieced(whole.size(), std::byte{0});
    dt::Convertor cv(h.type, h.base(), h.count, dt::PackMode::plan);
    Count at = 0;
    while (at < h.total()) {
        const Count want = std::min(frag(rng), h.total() - at);
        Count got = 0;
        ASSERT_EQ(cv.pack(MutBytes(pieced.data() + at,
                                   static_cast<std::size_t>(want)),
                          &got),
                  Status::success);
        ASSERT_EQ(got, want);
        at += got;
    }
    EXPECT_EQ(whole, pieced);

    // Scatter the stream back through random fragments + plan unpack.
    ByteVec out(h.buf.size(), std::byte{0});
    dt::Convertor ucv(h.type, out.data() + h.anchor, h.count, dt::PackMode::plan);
    at = 0;
    while (at < h.total()) {
        const Count want = std::min(frag(rng), h.total() - at);
        ASSERT_EQ(ucv.unpack(ConstBytes(whole.data() + at,
                                        static_cast<std::size_t>(want))),
                  Status::success);
        at += want;
    }
    ByteVec ref(h.buf.size(), std::byte{0});
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, ref.data() + h.anchor, h.count,
                                        whole, dt::PackMode::generic),
              Status::success);
    EXPECT_EQ(ref, out);
}

TEST_P(PlanVsGeneric, ParallelMatchesSerial) {
    auto h = make_harness(static_cast<unsigned>(GetParam()) + 3000u, 3);
    ByteVec serial(static_cast<std::size_t>(h.total()));
    ByteVec par(serial.size());
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, serial, &used,
                                      dt::PackMode::generic),
              Status::success);
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, par, &used,
                                      dt::PackMode::parallel),
              Status::success);
    EXPECT_EQ(serial, par);

    ByteVec out_serial(h.buf.size(), std::byte{0});
    ByteVec out_par(h.buf.size(), std::byte{0});
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, out_serial.data() + h.anchor,
                                        h.count, serial, dt::PackMode::generic),
              Status::success);
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, out_par.data() + h.anchor, h.count,
                                        serial, dt::PackMode::parallel),
              Status::success);
    EXPECT_EQ(out_serial, out_par);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanVsGeneric, ::testing::Range(0, 24));

// --- Edge cases ----------------------------------------------------------

TEST(PackPlan, ZeroCountAndEmptyBuffers) {
    const auto& t = dt::type_int32();
    ByteVec empty;
    Count used = 123;
    EXPECT_EQ(dt::Convertor::pack_all(t, nullptr, 0, empty, &used,
                                      dt::PackMode::plan),
              Status::success);
    EXPECT_EQ(used, 0);
    EXPECT_EQ(dt::Convertor::unpack_all(t, nullptr, 0, empty, dt::PackMode::plan),
              Status::success);
    EXPECT_EQ(dt::Convertor::pack_all(t, nullptr, 0, empty, &used,
                                      dt::PackMode::parallel),
              Status::success);
    EXPECT_EQ(used, 0);
}

TEST(PackPlan, CompilerFusesConstantStrideRuns) {
    // NAS_LU_y shape: constant-stride equal-length runs collapse to one
    // instruction that also fuses across elements.
    auto t = dt::Datatype::vector(16, 5, 20, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    const auto& plan = t->plan();
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->instrs.size(), 1u);
    EXPECT_EQ(plan->instrs[0].len, 40);
    EXPECT_EQ(plan->instrs[0].stride, 160);
    EXPECT_EQ(plan->instrs[0].reps, 16);
    EXPECT_EQ(plan->elem_size, t->size());
    // The raw vector's extent ends at the last block (2440 != 16*160), so
    // back-to-back elements do NOT continue the stride pattern...
    EXPECT_FALSE(plan->collapsible);
    // ...but resizing the extent to one full stride period makes the run
    // fuse across elements into a single kernel dispatch.
    auto padded = dt::Datatype::resized(t, 0, 16 * 160);
    ASSERT_EQ(padded->commit(), Status::success);
    ASSERT_NE(padded->plan(), nullptr);
    EXPECT_TRUE(padded->plan()->collapsible);
}

TEST(PackPlan, StructSimpleCompilesToTwoInstructions) {
    const auto t = core::struct_simple_dt();
    const auto& plan = t->plan();
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->instrs.size(), 2u);
    EXPECT_EQ(plan->instrs[0].len, 12);
    EXPECT_EQ(plan->instrs[1].len, 8);
    EXPECT_FALSE(plan->collapsible);
}

TEST(PackPlan, SignatureEquivalenceIgnoresLayout) {
    // Same leaf signature (8 doubles), different layouts: equivalent for
    // matching, yet they pack differently, so each type keeps its own plan.
    auto contig = dt::Datatype::contiguous(8, dt::type_double());
    auto strided = dt::Datatype::vector(8, 1, 2, dt::type_double());
    ASSERT_EQ(contig->commit(), Status::success);
    ASSERT_EQ(strided->commit(), Status::success);
    EXPECT_TRUE(dt::signature_equivalent(contig, 1, strided, 1));
}

// --- Iovec coalescing ----------------------------------------------------

TEST(CoalesceIov, MergesOnlyExactAdjacency) {
    alignas(8) std::byte mem[64];
    std::vector<IovEntry> v = {
        {mem, 8},      {mem + 8, 8},  // adjacent: merge
        {mem + 24, 8},                // gap: keep
        {mem + 16, 8},                // out of order: keep
        {mem + 26, 4},                // gap after previous end: keep
    };
    const Count before = iov_total(v);
    const std::size_t removed = coalesce_iov(v);
    EXPECT_EQ(removed, 1u);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0].base, mem);
    EXPECT_EQ(v[0].len, 16);
    EXPECT_EQ(iov_total(v), before);
}

TEST(CoalesceIov, FromIndexLeavesPrefixAlone) {
    alignas(8) std::byte mem[64];
    std::vector<IovEntry> v = {{mem, 8}, {mem + 8, 8}, {mem + 16, 8}};
    EXPECT_EQ(coalesce_iov(v, 1), 1u);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].len, 8);
    EXPECT_EQ(v[1].len, 16);
}

TEST(CoalesceIov, MilcFineRegionsCoalesceToCoarse) {
    auto kernel = ddtbench::make_kernel("MILC_su3_zd");
    ASSERT_NE(kernel, nullptr);
    kernel->resize(64 * 1024);
    const Count coarse = kernel->region_count();
    kernel->set_fine_regions(true);
    const Count fine = kernel->region_count();
    EXPECT_GT(fine, coarse);
    std::vector<IovEntry> entries(static_cast<std::size_t>(fine));
    kernel->regions(entries.data());
    const Count bytes = iov_total(entries);
    EXPECT_EQ(bytes, kernel->payload_bytes());
    coalesce_iov(entries);
    EXPECT_EQ(static_cast<Count>(entries.size()), coarse);
    EXPECT_EQ(iov_total(entries), bytes);
}

TEST(CoalesceIov, MilcFineRegionTransferDeliversIdenticalBytes) {
    auto send = ddtbench::make_kernel("MILC_su3_zd");
    auto recv = ddtbench::make_kernel("MILC_su3_zd");
    send->resize(64 * 1024);
    recv->resize(64 * 1024);
    send->fill(21);
    recv->clear();
    send->set_fine_regions(true);
    recv->set_fine_regions(true);
    const auto before = pack_stats().snapshot();
    p2p::Universe uni(2, test::test_params());
    const auto& type = ddtbench::kernel_region_type();
    auto rr = uni.comm(1).irecv_custom(recv.get(), 1, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send.get(), 1, type, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_TRUE(recv->verify(*send));
    if (dt::pack_plan_enabled()) {
        const auto after = pack_stats().snapshot();
        EXPECT_GT(after.iov_entries_before - before.iov_entries_before,
                  after.iov_entries_after - before.iov_entries_after);
    }
}

// --- Derived-datatype descriptors -----------------------------------------

TEST(DtBridge, SameLayoutTypesTransferCorrectly) {
    // Two transfers with independently built same-layout types: each
    // descriptor packs through its own type and delivers correct bytes.
    for (int round = 0; round < 2; ++round) {
        auto t = dt::Datatype::vector(64, 3, 5, dt::type_double());
        ASSERT_EQ(t->commit(), Status::success);
        const Count n = 64 * 5;
        std::vector<double> src(static_cast<std::size_t>(n)),
            dst(static_cast<std::size_t>(n), 0.0);
        for (std::size_t i = 0; i < src.size(); ++i)
            src[i] = static_cast<double>(i) + round * 1000.0;
        p2p::Universe uni(2, test::test_params());
        auto rr = uni.comm(1).irecv(dst.data(), 1, t, 0, 7);
        auto rs = uni.comm(0).isend(src.data(), 1, t, 1, 7);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(rs.wait().status, Status::success);
        for (Count i = 0; i < 64; ++i) {
            for (Count j = 0; j < 3; ++j) {
                const auto idx = static_cast<std::size_t>(i * 5 + j);
                EXPECT_EQ(dst[idx], src[idx]) << idx;
            }
        }
    }
}

TEST(DtBridge, DescriptorKeepsTypeAlive) {
    // The caller drops its TypeRef right after posting: the descriptors'
    // keepalive anchors must hold the type until both operations finish.
    // One eager-sized and one rendezvous-sized message.
    for (const Count blocks : {Count{64}, Count{8192}}) {
        const Count n = blocks * 5;
        std::vector<double> src(static_cast<std::size_t>(n)),
            dst(static_cast<std::size_t>(n), -1.0);
        for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<double>(i);
        p2p::Universe uni(2, test::test_params());
        auto t = dt::Datatype::vector(blocks, 3, 5, dt::type_double());
        ASSERT_EQ(t->commit(), Status::success);
        const std::weak_ptr<dt::Datatype> watch = t;
        auto rr = uni.comm(1).irecv(dst.data(), 1, t, 0, 7);
        auto rs = uni.comm(0).isend(src.data(), 1, t, 1, 7);
        t.reset();
        EXPECT_FALSE(watch.expired());
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(rs.wait().status, Status::success);
        for (Count i = 0; i < n; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            ASSERT_EQ(dst[idx], i % 5 < 3 ? src[idx] : -1.0) << blocks << "/" << idx;
        }
    }
}

// --- Stats ---------------------------------------------------------------

TEST(PackStats, KernelBytesAccumulateOnPlanPath) {
    auto t = dt::Datatype::vector(32, 2, 4, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    ByteVec buf(static_cast<std::size_t>(t->extent()), std::byte{1});
    ByteVec packed(static_cast<std::size_t>(t->size()));
    Count used = 0;
    const auto before = pack_stats().snapshot();
    ASSERT_EQ(dt::Convertor::pack_all(t, buf.data(), 1, packed, &used,
                                      dt::PackMode::plan),
              Status::success);
    ASSERT_EQ(dt::Convertor::pack_all(t, buf.data(), 1, packed, &used,
                                      dt::PackMode::generic),
              Status::success);
    const auto after = pack_stats().snapshot();
    EXPECT_GE(after.kernel_bytes - before.kernel_bytes,
              static_cast<std::uint64_t>(t->size()));
    EXPECT_GE(after.generic_bytes - before.generic_bytes,
              static_cast<std::uint64_t>(t->size()));
}

} // namespace
} // namespace mpicd

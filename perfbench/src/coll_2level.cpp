// coll_2level: nonblocking collectives on a two-level fabric.
//
// 12 ranks, 3 per node, inter-node links at 15 us and 1.25 GB/s (the
// topology of bench/ablation_collectives), all driven from one thread: for
// each operation the thread posts it on every rank, then waits on every
// rank. A step is iallreduce (sum of doubles, 8 B - 256 KiB), ibcast_custom
// of a struct-simple array, igather_bytes (8 B - 16 KiB per rank) and
// ibarrier; sizes and roots are drawn from the seed. Every result is
// checked: the allreduce against its closed-form sum, the broadcast and the
// gathered blocks against what the senders wrote.
#include <cstring>

#include "core/paper_types.hpp"
#include "dt/convertor.hpp"
#include "harness.hpp"
#include "p2p/coll/nonblocking.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace perfbench {
namespace {

using namespace mpicd;

constexpr int kRanks = 12;
constexpr int kPerNode = 3;
constexpr Count kMaxReduceDoubles = 256 * 1024 / 8;
constexpr Count kMaxBcastElems = 256 * 1024 / core::kScalarPack;
constexpr Count kMaxGatherBytes = 16 * 1024;
enum Op { kAllreduce, kBcast, kGather, kBarrier, kOps };
constexpr const char* kVtimeMetric[kOps] = {"coll.vtime_us_allreduce",
                                            "coll.vtime_us_bcast", "coll.vtime_us_gather",
                                            "coll.vtime_us_barrier"};

// Value rank r contributes at element j in step i; the sum over ranks is
// kRankSum * term(i, j), exact in doubles.
double term(std::uint64_t i, Count j) {
    return static_cast<double>((static_cast<std::uint64_t>(j) + i) % 7 + 1);
}
constexpr double kRankSum = kRanks * (kRanks + 1) / 2;

std::byte gather_byte(int r, std::uint64_t i, Count k) {
    return static_cast<std::byte>((static_cast<std::uint64_t>(r) * 31 + i * 7 +
                                   static_cast<std::uint64_t>(k)) &
                                  0xFF);
}

class Coll2Level final : public Workload {
public:
    explicit Coll2Level(std::uint64_t seed) : rng_(derive_seed(seed, 4)) {}

    bool host_timed_vtime() const override { return false; }
    netsim::WireParams params() const override {
        netsim::WireParams p;
        p.ranks_per_node = kPerNode;
        p.inter_latency_us = 15.0;
        p.inter_bandwidth_Bpus = 1250.0;
        return p;
    }

    void build(double* commit_us) override {
        const Count bl[] = {3, 1};
        const Count dp[] = {0, 16};
        const dt::TypeRef ty[] = {dt::type_int32(), dt::type_double()};
        type_ = dt::Datatype::resized(dt::Datatype::struct_(bl, dp, ty), 0,
                                      static_cast<Count>(sizeof(core::StructSimple)));
        const std::uint64_t t0 = wall_ns();
        (void)type_->commit();
        *commit_us += static_cast<double>(wall_ns() - t0) / 1000.0;
        for (int r = 0; r < kRanks; ++r) {
            reduce_[r].resize(static_cast<std::size_t>(kMaxReduceDoubles));
            bcast_[r].resize(static_cast<std::size_t>(kMaxBcastElems));
            gsend_[r].resize(static_cast<std::size_t>(kMaxGatherBytes));
        }
        grecv_.resize(static_cast<std::size_t>(kMaxGatherBytes * kRanks));
    }

    void open() override {
        uni_ = std::make_unique<p2p::Universe>(kRanks, params(), netsim::FaultConfig{});
        std::fill(std::begin(vt_sum_), std::end(vt_sum_), 0.0);
        std::fill(std::begin(vt_n_), std::end(vt_n_), 0.0);
    }
    void close() override { uni_.reset(); }
    int warmup_steps() const override { return 20; }
    void reseed(std::uint64_t seed) override { rng_ = Rng(derive_seed(seed, 4)); }

    StepOut step(std::uint64_t i) override {
        // Draw this step's sizes and roots and write the inputs.
        const Count nred = rng_.log_uniform(8, 256 * 1024) / 8;
        const Count nbc = rng_.log_uniform(1, kMaxBcastElems);
        const int bc_root = static_cast<int>(rng_.uniform(0, kRanks - 1));
        const Count ng = rng_.log_uniform(8, kMaxGatherBytes);
        const int g_root = static_cast<int>(rng_.uniform(0, kRanks - 1));
        for (int r = 0; r < kRanks; ++r) {
            for (Count j = 0; j < nred; ++j)
                reduce_[r][static_cast<std::size_t>(j)] = (r + 1) * term(i, j);
            for (Count k = 0; k < ng; ++k)
                gsend_[r][static_cast<std::size_t>(k)] = gather_byte(r, i, k);
        }
        for (Count e = 0; e < nbc; ++e) {
            auto& s = bcast_[bc_root][static_cast<std::size_t>(e)];
            s.a = static_cast<std::int32_t>(rng_.next());
            s.b = static_cast<std::int32_t>(i);
            s.c = static_cast<std::int32_t>(e);
            s.d = static_cast<double>(rng_.next() >> 11);
        }
        const Count bytes[kOps] = {nred * 8, nbc * core::kScalarPack, ng, 0};

        StepOut out;
        const SimTime v_start = latest_clock();
        for (int op = 0; op < kOps; ++op) {
            const SimTime v0 = latest_clock();
            const std::uint64_t t0 = wall_ns();
            std::vector<p2p::coll::CollRequest> reqs(kRanks);
            for (int r = 0; r < kRanks; ++r) {
                const Span s("coll.post");
                reqs[r] = post(op, r, nred, nbc, bc_root, ng, g_root);
            }
            bool good = true;
            for (auto& q : reqs) {
                const Span s("coll.wait");
                good = ok(q.wait()) && good;
            }
            out.stack_ns += wall_ns() - t0;
            const SimTime dv = latest_clock() - v0;
            vt_sum_[op] += dv;
            ++vt_n_[op];
            good = good && check(op, i, nred, nbc, bc_root, ng);
            out.attempted += 1;
            out.failed += good ? 0 : 1;
            // Payload delivered: every rank's result or block.
            out.payload_bytes += good ? static_cast<std::uint64_t>(bytes[op]) * kRanks : 0;
            const netsim::WireParams wp = params();
            out.floor_us += wp.effective_inter_latency() +
                            static_cast<double>(bytes[op]) / wp.effective_inter_bandwidth();
        }
        out.vtime_us = latest_clock() - v_start;
        last_bcast_ = nbc;
        last_reduce_ = nred;
        return out;
    }

    void probe(std::vector<Metric>* out) override {
        constexpr int kIters = 200;
        for (int op = 0; op < kOps; ++op)
            out->push_back({kVtimeMetric[op], ratio(vt_sum_[op], vt_n_[op]), ""});
        // The dt and core layers on the last broadcast array: derived-type
        // pack/unpack, the field-by-field hand pack, and one custom-datatype
        // send lowering on a fresh two-rank universe.
        const Count n = last_bcast_;
        const auto* src = bcast_[0].data();
        ByteVec buf(static_cast<std::size_t>(n * core::kScalarPack));
        std::vector<core::StructSimple> dst(static_cast<std::size_t>(n));
        double pack_ns = 0, unpack_ns = 0, manual_ns = 0, bytes = 0;
        for (int it = 0; it < kIters; ++it) {
            Count used = 0;
            std::uint64_t t0 = wall_ns();
            {
                const Span s("dt.pack");
                (void)dt::Convertor::pack_all(type_, src, n, buf, &used);
            }
            pack_ns += static_cast<double>(wall_ns() - t0);
            t0 = wall_ns();
            {
                const Span s("dt.unpack");
                (void)dt::Convertor::unpack_all(type_, dst.data(), n, buf);
            }
            unpack_ns += static_cast<double>(wall_ns() - t0);
            t0 = wall_ns();
            {
                const Span s("ddtbench.manual_pack");
                std::byte* p = buf.data();
                for (Count e = 0; e < n; ++e, p += core::kScalarPack) {
                    std::memcpy(p, &src[e].a, 12);
                    std::memcpy(p + 12, &src[e].d, 8);
                }
            }
            manual_ns += static_cast<double>(wall_ns() - t0);
            bytes += static_cast<double>(n * core::kScalarPack);
        }
        out->push_back({"dt.pack_ns_per_B", ratio(pack_ns, bytes), ""});
        out->push_back({"dt.unpack_ns_per_B", ratio(unpack_ns, bytes), ""});
        out->push_back({"ddtbench.manual_pack_ns_per_B", ratio(manual_ns, bytes), ""});

        p2p::Universe uni(2, params(), netsim::FaultConfig{});
        for (int it = 0; it < kIters / 10; ++it) {
            p2p::Request r = uni.comm(1).irecv_custom(
                dst.data(), n, core::custom_datatype_of<core::StructSimple>(), 0, 7);
            p2p::Request s;
            {
                const Span span("core.lower_send");
                s = uni.comm(0).isend_custom(
                    src, n, core::custom_datatype_of<core::StructSimple>(), 1, 7);
            }
            (void)s.wait();
            (void)r.wait();
        }
        probe_p2p_bytes(params(), last_reduce_ * 8, kIters / 10);

        // Matching: one receive per rank per operation of a step.
        std::vector<std::uint64_t> tags;
        for (int op = 0; op < kOps; ++op)
            for (int r = 0; r < kRanks; ++r)
                tags.push_back((static_cast<std::uint64_t>(op) << 16) |
                               static_cast<std::uint64_t>(r));
        out->push_back({"ucx.match_ns_per_op", probe_match_ns(tags, 5000), ""});
    }

private:
    SimTime latest_clock() {
        SimTime t = 0.0;
        for (int r = 0; r < kRanks; ++r) t = std::max(t, uni_->worker(r).now());
        return t;
    }

    p2p::coll::CollRequest post(int op, int r, Count nred, Count nbc, int bc_root,
                                Count ng, int g_root) {
        auto& c = uni_->comm(r);
        switch (op) {
            case kAllreduce:
                return p2p::coll::iallreduce(c, reduce_[r].data(), nred, p2p::ReduceOp::sum);
            case kBcast:
                return p2p::coll::ibcast_custom(
                    c, bcast_[r].data(), nbc, core::custom_datatype_of<core::StructSimple>(),
                    bc_root);
            case kGather:
                return p2p::coll::igather_bytes(c, gsend_[r].data(), ng,
                                                r == g_root ? grecv_.data() : nullptr,
                                                g_root);
            default: return p2p::coll::ibarrier(c);
        }
    }

    bool check(int op, std::uint64_t i, Count nred, Count nbc, int bc_root, Count ng) {
        switch (op) {
            case kAllreduce:
                for (int r = 0; r < kRanks; ++r)
                    for (Count j = 0; j < nred; ++j)
                        if (reduce_[r][static_cast<std::size_t>(j)] != kRankSum * term(i, j))
                            return false;
                return true;
            case kBcast: {
                const auto& root = bcast_[bc_root];
                for (int r = 0; r < kRanks; ++r) {
                    const auto& v = bcast_[r];
                    for (Count e = 0; e < nbc; ++e) {
                        const auto k = static_cast<std::size_t>(e);
                        if (v[k].a != root[k].a || v[k].b != root[k].b ||
                            v[k].c != root[k].c ||
                            std::memcmp(&v[k].d, &root[k].d, sizeof(double)) != 0)
                            return false;
                    }
                }
                return true;
            }
            case kGather:
                for (int r = 0; r < kRanks; ++r)
                    for (Count k = 0; k < ng; ++k)
                        if (grecv_[static_cast<std::size_t>(r * ng + k)] != gather_byte(r, i, k))
                            return false;
                return true;
            default: return true;
        }
    }

    Rng rng_;
    dt::TypeRef type_;
    std::vector<double> reduce_[kRanks];
    std::vector<core::StructSimple> bcast_[kRanks];
    std::vector<std::byte> gsend_[kRanks];
    std::vector<std::byte> grecv_;
    double vt_sum_[kOps] = {};
    double vt_n_[kOps] = {};
    Count last_bcast_ = 1;
    Count last_reduce_ = 1;
    std::unique_ptr<p2p::Universe> uni_;
};

} // namespace

std::unique_ptr<Workload> make_coll_2level(std::uint64_t seed) {
    return std::make_unique<Coll2Level>(seed);
}

} // namespace perfbench

// pyobj_rpc: Python-object round trips through the mpi4py-style layer.
//
// Two ranks on two threads, because the pysim API blocks. A step is one
// object drawn from the seed (a small request dict plus a metadata dict
// holding 1-32 ndarrays of 4 KiB - 256 KiB from a seeded pool) sent from
// rank 0 to rank 1 and echoed back under each of pickle-basic, pickle-oob
// and pickle-oob-cdt.
// Rank 0 checks every echo for deep equality with what it sent. A raw
// 8-byte control message opens each step (the step id, or kStop).
#include <cmath>
#include <thread>

#include "harness.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "pysim/mpi4py_sim.hpp"

namespace perfbench {
namespace {

using namespace mpicd;
using pysim::PyValue;

constexpr int kCtlTag = 1;
constexpr int kTagBase = 100; // strategy s sends on kTagBase + 2s, echoes on +1
constexpr std::uint64_t kStop = ~std::uint64_t{0};
constexpr int kPool = 128;
constexpr pysim::PyXfer kStrategies[] = {pysim::PyXfer::basic, pysim::PyXfer::oob_multi,
                                         pysim::PyXfer::oob_cdt};
constexpr const char* kMsgsMetric[] = {"pysim.msgs_per_obj_basic",
                                       "pysim.msgs_per_obj_oob",
                                       "pysim.msgs_per_obj_oob_cdt"};

class PyobjRpc final : public Workload {
public:
    explicit PyobjRpc(std::uint64_t seed) : seed_(seed), rng_(derive_seed(seed, 3)) {}
    ~PyobjRpc() override { close(); }

    bool host_timed_vtime() const override { return true; }
    netsim::WireParams params() const override { return {}; }

    // A pool of ndarrays that step objects draw from. Sizes are the kPool
    // quantiles of the log-uniform distribution over 4 KiB - 256 KiB, so
    // every seed sees the same sizes; dtype (float64/float32/int32), shape
    // (1-D or 2-D) and contents come from the seed.
    void build(double* /*commit_us*/) override {
        static constexpr pysim::DType kTypes[] = {pysim::DType::f64, pysim::DType::f32,
                                                  pysim::DType::i32};
        Rng rng(derive_seed(seed_, 30));
        pool_.clear();
        for (int k = 0; k < kPool; ++k) {
            const auto dtype = kTypes[rng.uniform(0, 2)];
            const auto es = static_cast<Count>(pysim::dtype_size(dtype));
            const double q = (k + 0.5) / kPool;
            const Count elems = static_cast<Count>(4096.0 * std::pow(64.0, q)) / es;
            std::vector<Count> shape{elems};
            if (elems % 16 == 0 && rng.uniform(0, 1) == 1) shape = {16, elems / 16};
            pool_.push_back(pysim::NdArray::pattern(dtype, std::move(shape),
                                                    static_cast<std::uint32_t>(rng.next())));
        }
    }

    void open() override {
        uni_ = std::make_unique<p2p::Universe>(2, params(), netsim::FaultConfig{});
        server_ = std::thread([this] { serve(); });
    }

    void close() override {
        if (!uni_) return;
        std::uint64_t stop = kStop;
        (void)uni_->comm(0).send_bytes(&stop, sizeof stop, 1, kCtlTag);
        server_.join();
        uni_.reset();
    }

    int warmup_steps() const override { return 5; }
    void reseed(std::uint64_t seed) override { rng_ = Rng(derive_seed(seed, 3)); }

    StepOut step(std::uint64_t i) override {
        obj_ = generate(i);
        auto& c0 = uni_->comm(0);
        StepOut out;
        const bool count_msgs = tracer::enabled();
        const SimTime v0 = c0.now();
        std::uint64_t t0 = wall_ns();
        {
            const Span s("p2p.post");
            std::uint64_t ctl = i;
            (void)c0.send_bytes(&ctl, sizeof ctl, 1, kCtlTag);
        }
        const auto payload = static_cast<std::uint64_t>(obj_.payload_bytes());
        for (int s = 0; s < 3; ++s) {
            const pysim::PyXferOptions opts{kStrategies[s], 4096};
            const std::uint64_t sent_before = count_msgs ? sends(0) : 0;
            Status st;
            {
                const Span span("pysim.send");
                st = pysim::send_pyobj(c0, obj_, 1, kTagBase + 2 * s, opts);
            }
            if (count_msgs) {
                msgs_[s] += static_cast<double>(sends(0) - sent_before);
                ++objs_[s];
            }
            PyValue back;
            Status rt;
            {
                const Span span("pysim.recv");
                rt = pysim::recv_pyobj(c0, &back, 1, kTagBase + 2 * s + 1, opts);
            }
            out.stack_ns += wall_ns() - t0;
            out.attempted += 2;
            // A correct echo proves both legs.
            const bool good = ok(st) && ok(rt) && back == obj_;
            out.failed += good ? 0 : 2;
            out.payload_bytes += good ? 2 * payload : 0;
            t0 = wall_ns();
        }
        out.vtime_us = c0.now() - v0;
        out.floor_us = floor_us();
        return out;
    }

    void probe(std::vector<Metric>* out) override {
        constexpr int kIters = 20;
        std::vector<std::uint64_t> tags{kCtlTag};
        const auto& arrays = obj_.as_dict()[1].second.as_dict();
        for (int s = 0; s < 3; ++s) {
            const pysim::DumpOptions dopts{kStrategies[s] != pysim::PyXfer::basic, 4096};
            for (int it = 0; it < kIters; ++it) {
                pysim::Pickled p;
                {
                    const Span span("pysim.dumps");
                    (void)pysim::dumps(obj_, dopts, &p);
                }
                PyValue v;
                std::vector<IovEntry> fill;
                const Span span("pysim.loads");
                (void)pysim::loads_alloc(p.stream, &v, &fill);
            }
            // Receive-side tags of one step: the stream plus, for pickle-oob,
            // a lengths message and one message per array.
            const auto t = static_cast<std::uint64_t>(kTagBase + 2 * s);
            const std::size_t n = kStrategies[s] == pysim::PyXfer::oob_multi
                                      ? arrays.size() + 1
                                      : kStrategies[s] == pysim::PyXfer::oob_cdt ? 2 : 1;
            tags.insert(tags.end(), n, t);
            tags.insert(tags.end(), n, t + 1);
        }
        for (int s = 0; s < 3; ++s)
            out->push_back({kMsgsMetric[s], ratio(msgs_[s], objs_[s]), ""});
        out->push_back({"ucx.match_ns_per_op", probe_match_ns(tags, 5000), ""});

        // The p2p and core layers sit under the blocking pysim calls; probe
        // them on this object: the basic stream as raw bytes, and the arrays
        // as one region-list custom datatype (the oob-cdt lowering).
        pysim::Pickled basic;
        (void)pysim::dumps(obj_, {false, 4096}, &basic);
        probe_p2p_bytes(params(), static_cast<Count>(basic.stream.size()), kIters);
        p2p::Universe uni(2, params(), netsim::FaultConfig{});
        pysim::RegionList send_list, recv_list;
        std::vector<ByteVec> sink;
        for (const auto& [name, value] : arrays) {
            if (!value.is_ndarray()) continue;
            const auto& a = value.as_ndarray();
            send_list.regions.push_back({const_cast<std::byte*>(a.data()), a.nbytes()});
            sink.emplace_back(static_cast<std::size_t>(a.nbytes()));
            recv_list.regions.push_back({sink.back().data(), a.nbytes()});
        }
        for (int it = 0; it < kIters; ++it) {
            p2p::Request r = uni.comm(1).irecv_custom(
                &recv_list, 1, pysim::region_list_datatype(), 0, 7);
            p2p::Request s;
            {
                const Span span("core.lower_send");
                s = uni.comm(0).isend_custom(&send_list, 1, pysim::region_list_datatype(),
                                             1, 7);
            }
            (void)s.wait();
            (void)r.wait();
        }
    }

private:
    // Rank 1: echo each object back under the strategy it came in on.
    void serve() {
        auto& c1 = uni_->comm(1);
        for (;;) {
            std::uint64_t ctl = 0;
            (void)c1.recv_bytes(&ctl, sizeof ctl, 0, kCtlTag);
            if (ctl == kStop) return;
            tracer::set_step(ctl);
            for (int s = 0; s < 3; ++s) {
                const pysim::PyXferOptions opts{kStrategies[s], 4096};
                PyValue v;
                {
                    const Span span("pysim.recv");
                    (void)pysim::recv_pyobj(c1, &v, 0, kTagBase + 2 * s, opts);
                }
                const Span span("pysim.send");
                (void)pysim::send_pyobj(c1, v, 0, kTagBase + 2 * s + 1, opts);
            }
        }
    }

    std::uint64_t sends(int rank) {
        const auto st = uni_->worker(rank).stats();
        return st.eager_sends + st.rndv_sends;
    }

    // The object of step i: 1-32 distinct arrays drawn from the pool (arrays
    // share their buffers, so building an object copies no payload).
    PyValue generate(std::uint64_t i) {
        pysim::PyDict meta;
        meta.emplace_back("step", static_cast<std::int64_t>(i));
        std::vector<std::size_t> pick(pool_.size());
        for (std::size_t k = 0; k < pick.size(); ++k) pick[k] = k;
        rng_.shuffle(pick);
        const auto n = static_cast<std::size_t>(rng_.uniform(1, 32));
        for (std::size_t k = 0; k < n; ++k)
            meta.emplace_back("field_" + std::to_string(k), pool_[pick[k]]);
        pysim::PyDict request;
        request.emplace_back("op", "put");
        request.emplace_back("id", static_cast<std::int64_t>(rng_.next() >> 1));
        request.emplace_back("reply", true);
        request.emplace_back("scale", 0.5 * static_cast<double>(i));
        pysim::PyDict obj;
        obj.emplace_back("request", PyValue(std::move(request)));
        obj.emplace_back("meta", PyValue(std::move(meta)));
        return PyValue(std::move(obj));
    }

    // Wire floor of one step: every message each strategy sends, both ways.
    [[nodiscard]] double floor_us() const {
        const netsim::WireParams wp = params();
        const auto& arrays = obj_.as_dict()[1].second.as_dict();
        double one_way = 0.0;
        Count total = 0, n = 0;
        for (const auto& [name, value] : arrays) {
            if (!value.is_ndarray()) continue;
            total += value.as_ndarray().nbytes();
            ++n;
            one_way += wp.latency_us + wp.serialize_time(value.as_ndarray().nbytes());
        }
        const double basic = wp.latency_us + wp.serialize_time(total);
        const double oob = 2.0 * wp.latency_us + one_way;
        const double cdt = 2.0 * wp.latency_us + wp.serialize_time(total) + wp.sg_overhead(n);
        return wp.latency_us + 2.0 * (basic + oob + cdt);
    }

    std::uint64_t seed_;
    Rng rng_;
    std::vector<pysim::NdArray> pool_;
    PyValue obj_;
    double msgs_[3] = {0, 0, 0};
    double objs_[3] = {0, 0, 0};
    std::unique_ptr<p2p::Universe> uni_;
    std::thread server_; // declared after what serve() uses
};

} // namespace

std::unique_ptr<Workload> make_pyobj_rpc(std::uint64_t seed) {
    return std::make_unique<PyobjRpc>(seed);
}

} // namespace perfbench

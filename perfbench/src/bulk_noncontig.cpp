// bulk_noncontig: rendezvous-size non-contiguous transfers.
//
// Two ranks driven from one thread. A step is one ping-pong of every cell,
// in an order drawn from the seed. A cell is one payload moved one way:
//  - DDTBench kernels MILC_su3_zd, NAS_LU_y, NAS_MG_y, LAMMPS_full and
//    WRF_y_vec at kKernelBytes (128 KiB: at 1 MiB one step takes ~90 ms
//    of wall time, too long for the 1000 timed steps a run needs), each
//    as a derived datatype, through the custom-datatype pack callbacks,
//    and through custom-datatype memory regions where Table I allows them;
//  - the paper's gapped struct-simple array (derived datatype and custom
//    pack) and struct-vec array (derived datatype and custom regions) at
//    256 KiB and 2 MiB of packed payload (2 MiB is the parallel pack
//    pool's default threshold, so those cells engage it).
// Rank 0 alternates between two send data sets filled with different
// values, so a receive buffer left stale by a failed transfer can never
// pass the check.
#include <algorithm>
#include <cstring>

#include "core/paper_types.hpp"
#include "ddtbench/kernel.hpp"
#include "dt/convertor.hpp"
#include "harness.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace perfbench {
namespace {

using namespace mpicd;

constexpr Count kKernelBytes = 128 * 1024;
constexpr Count kStructBytes[] = {256 * 1024, 2 * 1024 * 1024};

enum class Method { ddt, custom_pack, custom_region };

// The four buffers of one payload: two send data sets on rank 0, the
// receive buffer on rank 1 (which also sends the pong), and rank 0's pong
// receive buffer.
class Payload {
public:
    virtual ~Payload() = default;
    Payload() = default;
    Payload(const Payload&) = delete;
    Payload& operator=(const Payload&) = delete;

    enum Slot { kSendA = 0, kSendB = 1, kRecv1 = 2, kRecv0 = 3 };

    [[nodiscard]] virtual Count bytes() const = 0;
    [[nodiscard]] virtual std::vector<Method> methods() const = 0;
    // Scatter-gather entries of one transfer under `m` (for the model floor).
    [[nodiscard]] virtual Count sg_entries(Method m) const = 0;
    [[nodiscard]] virtual p2p::Request post_send(p2p::Communicator& c, Slot s,
                                                 Method m, int dst, int tag) = 0;
    [[nodiscard]] virtual p2p::Request post_recv(p2p::Communicator& c, Slot s,
                                                 Method m, int src, int tag) = 0;
    // Does slot `got` hold exactly what slot `sent` holds?
    [[nodiscard]] virtual bool same(Slot got, Slot sent) const = 0;

    // Layer probes: derived-type pack of a send slot and unpack into kRecv1,
    // and the hand-written pack where one exists.
    // A kernel's derived type may address its own arrays, so the type is
    // per slot.
    [[nodiscard]] virtual dt::TypeRef datatype(Slot s) const = 0;
    [[nodiscard]] virtual Count dt_count() const = 0;
    [[nodiscard]] virtual void* dt_buffer(Slot s) = 0;
    virtual bool manual_pack(std::byte* /*dst*/) { return false; }
};

class KernelPayload final : public Payload {
public:
    KernelPayload(const std::string& name, unsigned seed_a, unsigned seed_b) {
        for (auto& k : k_) {
            k = ddtbench::make_kernel(name);
            k->resize(kKernelBytes);
            k->clear();
        }
        k_[kSendA]->fill(seed_a);
        k_[kSendB]->fill(seed_b);
    }
    Count bytes() const override { return k_[0]->payload_bytes(); }
    std::vector<Method> methods() const override {
        if (k_[0]->region_count() > 0)
            return {Method::ddt, Method::custom_pack, Method::custom_region};
        return {Method::ddt, Method::custom_pack};
    }
    Count sg_entries(Method m) const override {
        return m == Method::custom_region ? k_[0]->region_count() : 1;
    }
    p2p::Request post_send(p2p::Communicator& c, Slot s, Method m, int dst,
                           int tag) override {
        ddtbench::Kernel& k = *k_[s];
        if (m == Method::ddt) {
            const Span span("p2p.post");
            return c.isend(k.dt_buffer(), k.dt_count(), k.datatype(), dst, tag);
        }
        const Span span("core.lower_send");
        return c.isend_custom(&k, 1, type(m), dst, tag);
    }
    p2p::Request post_recv(p2p::Communicator& c, Slot s, Method m, int src,
                           int tag) override {
        ddtbench::Kernel& k = *k_[s];
        const Span span("p2p.post");
        if (m == Method::ddt)
            return c.irecv(k.dt_buffer(), k.dt_count(), k.datatype(), src, tag);
        return c.irecv_custom(&k, 1, type(m), src, tag);
    }
    bool same(Slot got, Slot sent) const override { return k_[got]->verify(*k_[sent]); }
    dt::TypeRef datatype(Slot s) const override { return k_[s]->datatype(); }
    Count dt_count() const override { return k_[0]->dt_count(); }
    void* dt_buffer(Slot s) override { return k_[s]->dt_buffer(); }
    bool manual_pack(std::byte* dst) override {
        const Span span("ddtbench.manual_pack");
        k_[kSendA]->manual_pack(dst);
        return true;
    }

private:
    static const core::CustomDatatype& type(Method m) {
        return m == Method::custom_pack ? ddtbench::kernel_pack_type()
                                        : ddtbench::kernel_region_type();
    }
    std::unique_ptr<ddtbench::Kernel> k_[4];
};

// Arrays of the paper's struct types (T = StructSimple or StructVec).
template <typename T>
class StructPayload final : public Payload {
public:
    StructPayload(Count packed_bytes, std::uint64_t seed_a, std::uint64_t seed_b,
                  double* commit_us) {
        const Count rec = std::is_same_v<T, core::StructVec>
                              ? core::kScalarPack + 4 * Count{core::kStructVecData}
                              : core::kScalarPack;
        n_ = (packed_bytes + rec - 1) / rec; // at least packed_bytes
        for (auto& v : v_) v.assign(static_cast<std::size_t>(n_), T{});
        fill(v_[kSendA], seed_a);
        fill(v_[kSendB], seed_b);
        type_ = make_type(commit_us);
    }
    Count bytes() const override { return static_cast<Count>(type_->size()) * n_; }
    std::vector<Method> methods() const override {
        if constexpr (std::is_same_v<T, core::StructVec>)
            return {Method::ddt, Method::custom_region};
        return {Method::ddt, Method::custom_pack};
    }
    Count sg_entries(Method m) const override {
        // Custom struct-vec: the packed scalars plus one region per element.
        return m == Method::custom_region ? n_ + 1 : 1;
    }
    p2p::Request post_send(p2p::Communicator& c, Slot s, Method m, int dst,
                           int tag) override {
        const T* p = v_[s].data();
        if (m == Method::ddt) {
            const Span span("p2p.post");
            return c.isend(p, n_, type_, dst, tag);
        }
        const Span span("core.lower_send");
        return c.isend_custom(p, n_, core::custom_datatype_of<T>(), dst, tag);
    }
    p2p::Request post_recv(p2p::Communicator& c, Slot s, Method m, int src,
                           int tag) override {
        T* p = v_[s].data();
        const Span span("p2p.post");
        if (m == Method::ddt) return c.irecv(p, n_, type_, src, tag);
        return c.irecv_custom(p, n_, core::custom_datatype_of<T>(), src, tag);
    }
    bool same(Slot got, Slot sent) const override {
        const auto& a = v_[got];
        const auto& b = v_[sent];
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i].a != b[i].a || a[i].b != b[i].b || a[i].c != b[i].c ||
                std::memcmp(&a[i].d, &b[i].d, sizeof(double)) != 0)
                return false;
            if constexpr (std::is_same_v<T, core::StructVec>) {
                if (std::memcmp(a[i].data, b[i].data, sizeof(a[i].data)) != 0)
                    return false;
            }
        }
        return true;
    }
    dt::TypeRef datatype(Slot) const override { return type_; }
    Count dt_count() const override { return n_; }
    void* dt_buffer(Slot s) override { return v_[s].data(); }

private:
    static void fill(std::vector<T>& v, std::uint64_t seed) {
        Rng rng(seed);
        for (auto& e : v) {
            e.a = static_cast<std::int32_t>(rng.next());
            e.b = static_cast<std::int32_t>(rng.next());
            e.c = static_cast<std::int32_t>(rng.next());
            e.d = static_cast<double>(rng.next() >> 11);
            if constexpr (std::is_same_v<T, core::StructVec>) {
                const auto base = static_cast<std::int32_t>(rng.next());
                for (std::size_t j = 0; j < core::kStructVecData; ++j)
                    e.data[j] = base + static_cast<std::int32_t>(j);
            }
        }
    }
    // The same constructions as core::struct_simple_dt / struct_vec_dt,
    // built here so commit() can be timed.
    static dt::TypeRef make_type(double* commit_us) {
        dt::TypeRef r;
        if constexpr (std::is_same_v<T, core::StructVec>) {
            const Count bl[] = {3, 1, core::kStructVecData};
            const Count dp[] = {0, 16, 24};
            const dt::TypeRef ty[] = {dt::type_int32(), dt::type_double(),
                                      dt::type_int32()};
            r = dt::Datatype::resized(dt::Datatype::struct_(bl, dp, ty), 0,
                                      static_cast<Count>(sizeof(T)));
        } else {
            const Count bl[] = {3, 1};
            const Count dp[] = {0, 16};
            const dt::TypeRef ty[] = {dt::type_int32(), dt::type_double()};
            r = dt::Datatype::resized(dt::Datatype::struct_(bl, dp, ty), 0,
                                      static_cast<Count>(sizeof(T)));
        }
        const std::uint64_t t0 = wall_ns();
        (void)r->commit();
        *commit_us += static_cast<double>(wall_ns() - t0) / 1000.0;
        return r;
    }

    Count n_ = 0;
    std::vector<T> v_[4];
    dt::TypeRef type_;
};

struct Cell {
    Payload* payload;
    Method method;
    int tag;
};

class BulkNoncontig final : public Workload {
public:
    explicit BulkNoncontig(std::uint64_t seed) : seed_(seed), order_rng_(derive_seed(seed, 1)) {}

    bool host_timed_vtime() const override { return true; }
    netsim::WireParams params() const override { return {}; }

    void build(double* commit_us) override {
        payloads_.clear();
        cells_.clear();
        unsigned k = 0;
        for (const char* name :
             {"MILC_su3_zd", "NAS_LU_y", "NAS_MG_y", "LAMMPS_full", "WRF_y_vec"}) {
            const auto sa = static_cast<unsigned>(derive_seed(seed_, 10 + k) % 1000) + 1;
            const unsigned sb = sa + 1000; // never equal to sa
            // Kernels commit their derived type inside resize(), which also
            // allocates and lays out the grid; that commit is not timed apart.
            payloads_.push_back(std::make_unique<KernelPayload>(name, sa, sb));
            ++k;
        }
        for (const Count b : kStructBytes) {
            payloads_.push_back(std::make_unique<StructPayload<core::StructSimple>>(
                b, derive_seed(seed_, 20 + k), derive_seed(seed_, 40 + k), commit_us));
            ++k;
            payloads_.push_back(std::make_unique<StructPayload<core::StructVec>>(
                b, derive_seed(seed_, 20 + k), derive_seed(seed_, 40 + k), commit_us));
            ++k;
        }
        int tag = 100;
        for (const auto& p : payloads_)
            for (const Method m : p->methods()) {
                cells_.push_back({p.get(), m, tag});
                tag += 2;
            }
    }

    void open() override {
        uni_ = std::make_unique<p2p::Universe>(2, params(), netsim::FaultConfig{});
    }
    void close() override { uni_.reset(); }
    int warmup_steps() const override { return 2; }
    void reseed(std::uint64_t seed) override { order_rng_ = Rng(derive_seed(seed, 1)); }

    StepOut step(std::uint64_t i) override {
        auto& c0 = uni_->comm(0);
        auto& c1 = uni_->comm(1);
        const auto src = (i % 2 == 0) ? Payload::kSendA : Payload::kSendB;
        std::vector<std::size_t> order(cells_.size());
        for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
        order_rng_.shuffle(order);

        StepOut out;
        const netsim::WireParams wp = params();
        const SimTime v0 = c0.now();
        for (const std::size_t j : order) {
            const Cell& cell = cells_[j];
            Payload& p = *cell.payload;
            out.attempted += 2;
            std::uint64_t t0 = wall_ns();
            p2p::Request r1 = p.post_recv(c1, Payload::kRecv1, cell.method, 0, cell.tag);
            p2p::Request r0 =
                p.post_recv(c0, Payload::kRecv0, cell.method, 1, cell.tag + 1);
            p2p::Request s0 = p.post_send(c0, src, cell.method, 1, cell.tag);
            p2p::MsgStatus ss0, sr1;
            {
                const Span span("p2p.wait");
                ss0 = s0.wait();
                sr1 = r1.wait();
            }
            out.stack_ns += wall_ns() - t0;
            const bool ping_ok =
                ok(ss0.status) && ok(sr1.status) && p.same(Payload::kRecv1, src);
            t0 = wall_ns();
            p2p::Request s1 = p.post_send(c1, Payload::kRecv1, cell.method, 0,
                                          cell.tag + 1);
            p2p::MsgStatus ss1, sr0;
            {
                const Span span("p2p.wait");
                ss1 = s1.wait();
                sr0 = r0.wait();
            }
            out.stack_ns += wall_ns() - t0;
            const bool pong_ok =
                ok(ss1.status) && ok(sr0.status) && p.same(Payload::kRecv0, src);
            out.failed += (ping_ok ? 0 : 1) + (pong_ok ? 0 : 1);
            out.payload_bytes +=
                (ping_ok ? p.bytes() : 0) + (pong_ok ? p.bytes() : 0);
            out.floor_us += 2.0 * (wp.latency_us + wp.serialize_time(p.bytes()) +
                                   wp.sg_overhead(p.sg_entries(cell.method)));
        }
        out.vtime_us = c0.now() - v0;
        return out;
    }

    void probe(std::vector<Metric>* out) override {
        constexpr int kIters = 4;
        double pack_ns = 0, unpack_ns = 0, dt_bytes = 0, manual_ns = 0,
               manual_bytes = 0;
        std::vector<std::uint64_t> tags;
        for (const Cell& c : cells_) {
            tags.push_back(static_cast<std::uint64_t>(c.tag));
            tags.push_back(static_cast<std::uint64_t>(c.tag + 1));
        }
        for (const auto& p : payloads_) {
            ByteVec buf(static_cast<std::size_t>(p->bytes()));
            for (int it = 0; it < kIters; ++it) {
                Count used = 0;
                std::uint64_t t0 = wall_ns();
                {
                    const Span s("dt.pack");
                    (void)dt::Convertor::pack_all(p->datatype(Payload::kSendA),
                                                  p->dt_buffer(Payload::kSendA),
                                                  p->dt_count(), buf, &used);
                }
                pack_ns += static_cast<double>(wall_ns() - t0);
                t0 = wall_ns();
                {
                    const Span s("dt.unpack");
                    (void)dt::Convertor::unpack_all(p->datatype(Payload::kRecv1),
                                                    p->dt_buffer(Payload::kRecv1),
                                                    p->dt_count(), buf);
                }
                unpack_ns += static_cast<double>(wall_ns() - t0);
                dt_bytes += static_cast<double>(p->bytes());
                t0 = wall_ns();
                if (p->manual_pack(buf.data())) {
                    manual_ns += static_cast<double>(wall_ns() - t0);
                    manual_bytes += static_cast<double>(p->bytes());
                }
            }
        }
        out->push_back({"dt.pack_ns_per_B", ratio(pack_ns, dt_bytes), ""});
        out->push_back({"dt.unpack_ns_per_B", ratio(unpack_ns, dt_bytes), ""});
        out->push_back(
            {"ddtbench.manual_pack_ns_per_B", ratio(manual_ns, manual_bytes), ""});
        out->push_back({"ucx.match_ns_per_op", probe_match_ns(tags, 2000), ""});
    }

private:
    std::uint64_t seed_;
    Rng order_rng_;
    std::vector<std::unique_ptr<Payload>> payloads_;
    std::vector<Cell> cells_;
    std::unique_ptr<p2p::Universe> uni_;
};

} // namespace

std::unique_ptr<Workload> make_bulk_noncontig(std::uint64_t seed) {
    return std::make_unique<BulkNoncontig>(seed);
}

} // namespace perfbench

// msg_storm: windows of small eager messages.
//
// Two ranks driven from one thread. A step is a window of kWindow messages
// (16 B - 1 KiB, sizes, kinds and tag permutation drawn from the seed) from
// rank 0 to rank 1, followed by an 8-byte ack back. Half the exact-tag
// receives are posted before the window in shuffled order; the other half
// are posted only after their messages have arrived, so those wait in the
// unexpected queue. One receive in eight is a kAnySource/kAnyTag receive of
// a raw-byte message, posted last, and checked by the tag it returns.
//
// Payload kinds: trivially wireable records (isend_wire), std::vector<int>
// (isend_sized), struct-simple arrays as a custom datatype and as a derived
// datatype, and raw bytes.
#include <cstring>

#include "core/paper_types.hpp"
#include "dt/convertor.hpp"
#include "harness.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace perfbench {
namespace {

using namespace mpicd;

constexpr int kWindow = 32;
constexpr int kWildcards = kWindow / 8;
constexpr Count kMaxBytes = 1024;
constexpr int kAckTag = 1;
constexpr int kTagBase = 1000;

// A trivially wireable record (no padding: 3 doubles + 2 ints = 32 bytes).
struct Particle {
    double x, y, z;
    std::int32_t id, kind;
};
static_assert(sizeof(Particle) == 32);

enum class Kind { wire, sized, custom, ddt, bytes };

struct Msg {
    Kind kind = Kind::bytes;
    Count count = 0;  // elements of the kind's element type
    Count bytes = 0;  // payload bytes on the wire (sized: plus an 8-byte header)
    int tag = 0;
    bool late = false;
    bool wildcard = false;
    // Send and receive storage, sized for the largest message.
    std::vector<Particle> wire_s, wire_r;
    std::vector<int> vec_s, vec_r;
    std::vector<core::StructSimple> st_s, st_r;
    ByteVec raw_s, raw_r;
    std::shared_ptr<ByteVec> hdr;
};

bool same_struct(const core::StructSimple* a, const core::StructSimple* b, Count n) {
    for (Count i = 0; i < n; ++i)
        if (a[i].a != b[i].a || a[i].b != b[i].b || a[i].c != b[i].c ||
            std::memcmp(&a[i].d, &b[i].d, sizeof(double)) != 0)
            return false;
    return true;
}

class MsgStorm final : public Workload {
public:
    explicit MsgStorm(std::uint64_t seed) : rng_(derive_seed(seed, 2)) {}

    bool host_timed_vtime() const override { return true; }
    netsim::WireParams params() const override { return {}; }

    void build(double* commit_us) override {
        const Count bl[] = {3, 1};
        const Count dp[] = {0, 16};
        const dt::TypeRef ty[] = {dt::type_int32(), dt::type_double()};
        type_ = dt::Datatype::resized(dt::Datatype::struct_(bl, dp, ty), 0,
                                      static_cast<Count>(sizeof(core::StructSimple)));
        const std::uint64_t t0 = wall_ns();
        (void)type_->commit();
        *commit_us += static_cast<double>(wall_ns() - t0) / 1000.0;
        msgs_.assign(kWindow, Msg{});
        for (Msg& m : msgs_) {
            m.hdr = std::make_shared<ByteVec>(); // one header per slot
            m.wire_s.resize(kMaxBytes / sizeof(Particle));
            m.wire_r.resize(m.wire_s.size());
            m.vec_s.resize(kMaxBytes / sizeof(int));
            m.vec_r.resize(m.vec_s.size());
            m.st_s.resize(kMaxBytes / core::kScalarPack);
            m.st_r.resize(m.st_s.size());
            m.raw_s.resize(kMaxBytes);
            m.raw_r.resize(kMaxBytes);
        }
    }

    void open() override {
        uni_ = std::make_unique<p2p::Universe>(2, params(), netsim::FaultConfig{});
    }
    void close() override { uni_.reset(); }
    int warmup_steps() const override { return 200; }
    void reseed(std::uint64_t seed) override { rng_ = Rng(derive_seed(seed, 2)); }

    StepOut step(std::uint64_t i) override {
        generate();
        auto& c0 = uni_->comm(0);
        auto& c1 = uni_->comm(1);
        StepOut out;
        std::vector<std::size_t> pre, late, wild;
        for (std::size_t k = 0; k < msgs_.size(); ++k)
            (msgs_[k].wildcard ? wild : msgs_[k].late ? late : pre).push_back(k);
        rng_.shuffle(pre);
        rng_.shuffle(late);

        std::uint64_t ack_out = i, ack_in = ~i;
        std::vector<p2p::Request> rreq(msgs_.size()), sreq(msgs_.size());
        const SimTime v0 = c0.now();
        const std::uint64_t t0 = wall_ns();
        p2p::Request ack_r;
        {
            const Span s("p2p.post");
            ack_r = c0.irecv_bytes(&ack_in, sizeof ack_in, 1, kAckTag);
        }
        for (const std::size_t k : pre) rreq[k] = post_recv(c1, msgs_[k]);
        for (std::size_t k = 0; k < msgs_.size(); ++k) sreq[k] = post_send(c0, msgs_[k]);
        std::vector<p2p::MsgStatus> st(msgs_.size());
        {
            const Span s("p2p.wait");
            for (const std::size_t k : pre) st[k] = rreq[k].wait();
        }
        {
            // Late receives go in only once their message sits unexpected.
            const Span s("p2p.probe");
            for (const std::size_t k : late)
                while (!c1.iprobe(0, msgs_[k].tag)) {}
            for (const std::size_t k : wild)
                while (!c1.iprobe(0, msgs_[k].tag)) {}
        }
        for (const std::size_t k : late) rreq[k] = post_recv(c1, msgs_[k]);
        for (const std::size_t k : wild) {
            const Span s("p2p.post");
            rreq[k] = c1.irecv_bytes(msgs_[k].raw_r.data(), kMaxBytes, p2p::kAnySource,
                                     p2p::kAnyTag);
        }
        std::vector<p2p::MsgStatus> sst(msgs_.size());
        {
            const Span s("p2p.wait");
            for (const std::size_t k : late) st[k] = rreq[k].wait();
            for (const std::size_t k : wild) st[k] = rreq[k].wait();
            for (std::size_t k = 0; k < msgs_.size(); ++k) sst[k] = sreq[k].wait();
        }
        p2p::Request ack_s;
        {
            const Span s("p2p.post");
            ack_s = c1.isend_bytes(&ack_out, sizeof ack_out, 0, kAckTag);
        }
        p2p::MsgStatus ack_ss, ack_rs;
        {
            const Span s("p2p.wait");
            ack_ss = ack_s.wait();
            ack_rs = ack_r.wait();
        }
        out.stack_ns = wall_ns() - t0;
        out.vtime_us = c0.now() - v0;

        const netsim::WireParams wp = params();
        // Wildcard receives may land on any wildcard-bound message: check
        // each against the message its returned tag names.
        std::vector<std::size_t> by_tag(kWindow);
        for (std::size_t k = 0; k < msgs_.size(); ++k)
            by_tag[static_cast<std::size_t>(msgs_[k].tag - kTagBase)] = k;
        for (std::size_t k = 0; k < msgs_.size(); ++k) {
            ++out.attempted;
            const Msg& m = msgs_[k];
            bool good = ok(st[k].status) && ok(sst[k].status);
            if (m.wildcard) {
                const int t = st[k].tag - kTagBase;
                good = good && t >= 0 && t < kWindow;
                const Msg& src = good ? msgs_[by_tag[static_cast<std::size_t>(t)]] : m;
                good = good && src.wildcard && st[k].bytes == src.bytes &&
                       fnv1a(m.raw_r.data(), static_cast<std::size_t>(src.bytes)) ==
                           fnv1a(src.raw_s.data(), static_cast<std::size_t>(src.bytes));
            } else {
                good = good && check(m, st[k]);
            }
            out.failed += good ? 0 : 1;
            out.payload_bytes += good ? static_cast<std::uint64_t>(m.bytes) : 0;
            out.floor_us += wp.serialize_time(m.bytes); // the window shares one link
        }
        ++out.attempted;
        const bool ack_ok = ok(ack_ss.status) && ok(ack_rs.status) && ack_in == i;
        out.failed += ack_ok ? 0 : 1;
        out.payload_bytes += ack_ok ? sizeof ack_in : 0;
        // One latency for the window (its messages overlap in flight), one
        // for the ack.
        out.floor_us += 2.0 * wp.latency_us + wp.serialize_time(sizeof ack_in);
        return out;
    }

    void probe(std::vector<Metric>* out) override {
        constexpr int kIters = 2000;
        double pack_ns = 0, unpack_ns = 0, manual_ns = 0, bytes = 0;
        std::vector<std::uint64_t> tags;
        ByteVec buf(kMaxBytes);
        for (Msg& m : msgs_) {
            tags.push_back(static_cast<std::uint64_t>(m.tag));
            if (m.kind != Kind::ddt && m.kind != Kind::custom) continue;
            for (int it = 0; it < kIters; ++it) {
                Count used = 0;
                std::uint64_t t0 = wall_ns();
                {
                    const Span s("dt.pack");
                    (void)dt::Convertor::pack_all(type_, m.st_s.data(), m.count, buf,
                                                  &used);
                }
                pack_ns += static_cast<double>(wall_ns() - t0);
                t0 = wall_ns();
                {
                    const Span s("dt.unpack");
                    (void)dt::Convertor::unpack_all(
                        type_, m.st_r.data(), m.count,
                        ConstBytes(buf.data(), static_cast<std::size_t>(used)));
                }
                unpack_ns += static_cast<double>(wall_ns() - t0);
                t0 = wall_ns();
                {
                    const Span s("ddtbench.manual_pack");
                    std::byte* p = buf.data();
                    for (Count e = 0; e < m.count; ++e, p += core::kScalarPack) {
                        std::memcpy(p, &m.st_s[static_cast<std::size_t>(e)].a, 12);
                        std::memcpy(p + 12, &m.st_s[static_cast<std::size_t>(e)].d, 8);
                    }
                }
                manual_ns += static_cast<double>(wall_ns() - t0);
                bytes += static_cast<double>(m.count * core::kScalarPack);
            }
        }
        out->push_back({"dt.pack_ns_per_B", ratio(pack_ns, bytes), ""});
        out->push_back({"dt.unpack_ns_per_B", ratio(unpack_ns, bytes), ""});
        out->push_back({"ddtbench.manual_pack_ns_per_B", ratio(manual_ns, bytes), ""});
        out->push_back({"ucx.match_ns_per_op", probe_match_ns(tags, 20000), ""});
    }

private:
    // Draw the next window: kinds, sizes, tags, late/wildcard roles, data.
    void generate() {
        std::vector<int> tags(kWindow);
        for (int k = 0; k < kWindow; ++k) tags[static_cast<std::size_t>(k)] = kTagBase + k;
        rng_.shuffle(tags);
        std::vector<std::size_t> roles(kWindow);
        for (std::size_t k = 0; k < roles.size(); ++k) roles[k] = k;
        rng_.shuffle(roles);
        for (std::size_t k = 0; k < msgs_.size(); ++k) {
            Msg& m = msgs_[k];
            const std::size_t role = roles[k];
            m.wildcard = role < kWildcards;
            m.late = !m.wildcard && role % 2 == 0;
            m.tag = tags[k];
            m.kind = m.wildcard ? Kind::bytes : static_cast<Kind>(rng_.uniform(0, 4));
            const Count size = rng_.log_uniform(16, kMaxBytes);
            switch (m.kind) {
                case Kind::wire:
                    m.count = std::max<Count>(1, size / Count{sizeof(Particle)});
                    m.bytes = m.count * Count{sizeof(Particle)};
                    for (Count e = 0; e < m.count; ++e) {
                        Particle& p = m.wire_s[static_cast<std::size_t>(e)];
                        p = {static_cast<double>(rng_.next() >> 11), 1.0 * e, -2.0 * e,
                             static_cast<std::int32_t>(rng_.next()),
                             static_cast<std::int32_t>(e)};
                    }
                    break;
                case Kind::sized:
                    m.count = std::max<Count>(1, size / Count{sizeof(int)});
                    m.bytes = m.count * Count{sizeof(int)} + 8;
                    for (Count e = 0; e < m.count; ++e)
                        m.vec_s[static_cast<std::size_t>(e)] =
                            static_cast<int>(rng_.next());
                    break;
                case Kind::custom:
                case Kind::ddt:
                    m.count = std::max<Count>(1, size / core::kScalarPack);
                    m.bytes = m.count * core::kScalarPack;
                    for (Count e = 0; e < m.count; ++e) {
                        auto& s = m.st_s[static_cast<std::size_t>(e)];
                        s.a = static_cast<std::int32_t>(rng_.next());
                        s.b = static_cast<std::int32_t>(e);
                        s.c = -s.a;
                        s.d = static_cast<double>(rng_.next() >> 11);
                    }
                    break;
                case Kind::bytes:
                    m.count = size;
                    m.bytes = size;
                    for (Count e = 0; e < size; e += 8) {
                        const std::uint64_t v = rng_.next();
                        std::memcpy(m.raw_s.data() + e, &v,
                                    static_cast<std::size_t>(std::min<Count>(8, size - e)));
                    }
                    break;
            }
        }
    }

    p2p::Request post_send(p2p::Communicator& c, Msg& m) {
        switch (m.kind) {
            case Kind::wire: {
                const Span s("p2p.post");
                return c.isend_wire(m.wire_s.data(), m.bytes, 1, m.tag);
            }
            case Kind::sized: {
                const Span s("p2p.post");
                return c.isend_sized(m.vec_s.data(), m.bytes - 8, 1, m.tag);
            }
            case Kind::custom: {
                const Span s("core.lower_send");
                return c.isend_custom(m.st_s.data(), m.count,
                                      core::custom_datatype_of<core::StructSimple>(), 1,
                                      m.tag);
            }
            case Kind::ddt: {
                const Span s("p2p.post");
                return c.isend(m.st_s.data(), m.count, type_, 1, m.tag);
            }
            case Kind::bytes: break;
        }
        const Span s("p2p.post");
        return c.isend_bytes(m.raw_s.data(), m.bytes, 1, m.tag);
    }

    p2p::Request post_recv(p2p::Communicator& c, Msg& m) {
        const Span s("p2p.post");
        switch (m.kind) {
            case Kind::wire: return c.irecv_wire(m.wire_r.data(), m.bytes, 0, m.tag);
            case Kind::sized:
                return c.irecv_sized(m.hdr, m.vec_r.data(), m.bytes - 8, 0, m.tag);
            case Kind::custom:
                return c.irecv_custom(m.st_r.data(), m.count,
                                      core::custom_datatype_of<core::StructSimple>(), 0,
                                      m.tag);
            case Kind::ddt: return c.irecv(m.st_r.data(), m.count, type_, 0, m.tag);
            case Kind::bytes: break;
        }
        return c.irecv_bytes(m.raw_r.data(), m.bytes, 0, m.tag);
    }

    static bool check(const Msg& m, const p2p::MsgStatus& st) {
        if (st.bytes != m.bytes) return false;
        const auto n = static_cast<std::size_t>(m.count);
        switch (m.kind) {
            case Kind::wire:
                return std::memcmp(m.wire_r.data(), m.wire_s.data(),
                                   n * sizeof(Particle)) == 0;
            case Kind::sized: {
                std::uint64_t announced = 0;
                if (m.hdr->size() != sizeof announced) return false;
                std::memcpy(&announced, m.hdr->data(), sizeof announced);
                return announced == n * sizeof(int) &&
                       std::memcmp(m.vec_r.data(), m.vec_s.data(), n * sizeof(int)) == 0;
            }
            case Kind::custom:
            case Kind::ddt: return same_struct(m.st_r.data(), m.st_s.data(), m.count);
            case Kind::bytes:
                return fnv1a(m.raw_r.data(), n) == fnv1a(m.raw_s.data(), n);
        }
        return false;
    }

    Rng rng_;
    dt::TypeRef type_;
    std::vector<Msg> msgs_;
    std::unique_ptr<p2p::Universe> uni_;
};

} // namespace

std::unique_ptr<Workload> make_msg_storm(std::uint64_t seed) {
    return std::make_unique<MsgStorm>(seed);
}

} // namespace perfbench

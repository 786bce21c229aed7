#include "harness.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "base/metrics.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "ucx/matcher.hpp"

namespace perfbench {

std::int64_t Rng::log_uniform(std::int64_t lo, std::int64_t hi) {
    const double a = std::log(static_cast<double>(lo));
    const double b = std::log(static_cast<double>(hi));
    const double x = std::uniform_real_distribution<double>(a, b)(g_);
    return std::clamp(static_cast<std::int64_t>(std::llround(std::exp(x))), lo, hi);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t fnv1a(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

// --- Span tracer -----------------------------------------------------------

namespace {

constexpr std::size_t kRawCap = 100000;      // raw spans kept per thread
constexpr std::size_t kSampleCap = 1 << 16;  // durations kept per span name

struct RawSpan {
    const char* name;
    std::uint64_t start, end;
    std::int64_t parent; // index into the same thread's raw list, -1 = root
    std::uint64_t step;
};

struct Frame {
    const char* name;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int64_t raw_index;
};

struct ThreadTrace {
    std::uint32_t id = 0;
    std::uint64_t step = 0;
    std::vector<Frame> stack;
    std::vector<RawSpan> raw;
    std::map<const char*, SpanStats> stats;
    std::mt19937 sampler{12345};
};

std::atomic<bool> g_enabled{false};
std::mutex g_threads_mu;
std::vector<std::shared_ptr<ThreadTrace>> g_threads; // guarded by g_threads_mu

ThreadTrace& this_thread_trace() {
    thread_local ThreadTrace* tt = [] {
        auto t = std::make_shared<ThreadTrace>();
        const std::lock_guard lock(g_threads_mu);
        t->id = static_cast<std::uint32_t>(g_threads.size());
        g_threads.push_back(t);
        return t.get();
    }();
    return *tt;
}

void add_sample(ThreadTrace& t, SpanStats& s, std::uint64_t dur) {
    const auto d = static_cast<std::uint32_t>(std::min<std::uint64_t>(dur, UINT32_MAX));
    if (s.sample_ns.size() < kSampleCap) {
        s.sample_ns.push_back(d);
        return;
    }
    const auto j = std::uniform_int_distribution<std::uint64_t>(0, s.count - 1)(t.sampler);
    if (j < kSampleCap) s.sample_ns[j] = d;
}

} // namespace

Span::Span(const char* name) : on_(g_enabled.load(std::memory_order_relaxed)) {
    if (!on_) return;
    ThreadTrace& t = this_thread_trace();
    std::int64_t idx = -1;
    if (t.raw.size() < kRawCap) {
        const std::int64_t parent = t.stack.empty() ? -1 : t.stack.back().raw_index;
        idx = static_cast<std::int64_t>(t.raw.size());
        t.raw.push_back({name, 0, 0, parent, t.step});
    }
    t.stack.push_back({name, wall_ns(), 0, idx});
    if (idx >= 0) t.raw[static_cast<std::size_t>(idx)].start = t.stack.back().start;
}

Span::~Span() {
    if (!on_) return;
    const std::uint64_t end = wall_ns();
    ThreadTrace& t = this_thread_trace();
    const Frame f = t.stack.back();
    t.stack.pop_back();
    const std::uint64_t dur = end - f.start;
    if (f.raw_index >= 0) t.raw[static_cast<std::size_t>(f.raw_index)].end = end;
    if (!t.stack.empty()) t.stack.back().child_ns += dur;
    SpanStats& s = t.stats[f.name];
    ++s.count;
    s.self_ns += dur - std::min(dur, f.child_ns);
    add_sample(t, s, dur);
}

double SpanStats::p50_us() const {
    std::vector<double> v(sample_ns.begin(), sample_ns.end());
    return percentile(std::move(v), 50.0) / 1000.0;
}

namespace tracer {

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_step(std::uint64_t step) { this_thread_trace().step = step; }

std::map<std::string, SpanStats> aggregate() {
    std::map<std::string, SpanStats> out;
    const std::lock_guard lock(g_threads_mu);
    for (const auto& t : g_threads) {
        for (const auto& [name, s] : t->stats) {
            SpanStats& o = out[name];
            o.count += s.count;
            o.self_ns += s.self_ns;
            o.sample_ns.insert(o.sample_ns.end(), s.sample_ns.begin(),
                               s.sample_ns.end());
        }
    }
    return out;
}

std::size_t write(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return 0;
    std::size_t n = 0;
    const std::lock_guard lock(g_threads_mu);
    for (const auto& t : g_threads) {
        for (const RawSpan& r : t->raw) {
            std::fprintf(f,
                         "{\"thread\":%u,\"name\":\"%s\",\"start_ns\":%llu,"
                         "\"end_ns\":%llu,\"parent\":%lld,\"step\":%llu}\n",
                         t->id, r.name, static_cast<unsigned long long>(r.start),
                         static_cast<unsigned long long>(r.end),
                         static_cast<long long>(r.parent),
                         static_cast<unsigned long long>(r.step));
            ++n;
        }
    }
    std::fclose(f);
    return n;
}

} // namespace tracer

// --- Host speed reference ----------------------------------------------------

namespace {

constexpr double kRefNominalNs = 400000.0;

double reference_task_ns() {
    static std::vector<char> a(1 << 18), b(1 << 18);
    const std::uint64_t t0 = wall_ns();
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    std::uint64_t h = 1;
    for (int i = 0; i < 2000; ++i) {
        h = h * 6364136223846793005ull + 1;
        m[h >> 40] += static_cast<std::uint64_t>(i);
    }
    for (std::size_t k = 0; k < 4; ++k) {
        std::memcpy(b.data(), a.data(), a.size());
        a[k] = b[k + 1];
    }
    for (int i = 0; i < 300; ++i) {
        auto v = std::make_unique<std::vector<int>>(static_cast<std::size_t>(64 + i));
        (*v)[0] = i;
        h += static_cast<std::uint64_t>((*v)[0]);
    }
    // Fresh pages: the kernel's fault-and-zero path that large receive
    // buffers and pickle streams take.
    constexpr std::size_t kFresh = 256 << 10;
    void* p = mmap(nullptr, kFresh, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p != MAP_FAILED) {
        std::memset(p, static_cast<int>(h & 0x7F), kFresh);
        h += static_cast<unsigned char*>(p)[kFresh / 2];
        munmap(p, kFresh);
    }
    a[0] = static_cast<char>(h + m.size());
    return static_cast<double>(wall_ns() - t0);
}

} // namespace

void HostRef::maybe_sample() {
    if (recent_.empty() || wall_ns() - last_ >= kPeriodNs) sample();
}

void HostRef::sample() {
    if (recent_.size() == kKeep) recent_.erase(recent_.begin());
    recent_.push_back(reference_task_ns());
    all_.push_back(recent_.back());
    last_ = wall_ns();
}

double HostRef::factor() const {
    if (recent_.empty()) return 1.0;
    return kRefNominalNs / percentile(recent_, 50.0);
}

// --- Counters --------------------------------------------------------------

Counters snapshot_counters() {
    Counters c;
    for (const auto& s : mpicd::metrics().snapshot())
        c.values[s.group + "/" + s.name] = s.value;
    for (const auto& h : mpicd::metrics().hist_snapshot())
        c.hists[h.group + "/" + h.name] = h.snap;
    return c;
}

double Counters::get(const std::string& group_name) const {
    const auto it = values.find(group_name);
    return it == values.end() ? 0.0 : static_cast<double>(it->second);
}

const mpicd::Histogram::Snapshot* Counters::hist(const std::string& group_name) const {
    const auto it = hists.find(group_name);
    return it == hists.end() ? nullptr : &it->second;
}

double hist_sum_prefix(const Counters& c, const std::string& prefix, double* count) {
    double sum = 0.0, n = 0.0;
    for (const auto& [name, snap] : c.hists) {
        if (name.rfind(prefix, 0) != 0) continue;
        sum += static_cast<double>(snap.sum);
        n += static_cast<double>(snap.count);
    }
    if (count != nullptr) *count = n;
    return sum;
}

// --- Statistics ------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- Shared probes ---------------------------------------------------------

void probe_p2p_bytes(const mpicd::netsim::WireParams& params, Count bytes, int iters) {
    using namespace mpicd;
    p2p::Universe uni(2, params, netsim::FaultConfig{});
    auto& c0 = uni.comm(0);
    auto& c1 = uni.comm(1);
    ByteVec a(static_cast<std::size_t>(bytes), std::byte{7});
    ByteVec b(static_cast<std::size_t>(bytes));
    for (int i = 0; i < iters; ++i) {
        p2p::Request rr, rs;
        {
            const Span s("p2p.post");
            rr = c1.irecv_bytes(b.data(), bytes, 0, 1);
        }
        {
            const Span s("p2p.post");
            rs = c0.isend_bytes(a.data(), bytes, 1, 1);
        }
        const Span s("p2p.wait");
        (void)rs.wait();
        (void)rr.wait();
    }
}

double probe_match_ns(const std::vector<std::uint64_t>& tags, int rounds) {
    using namespace mpicd::ucx;
    const Span span("ucx.match_replay");
    TagMatcher m;
    std::uint64_t ops = 0;
    const std::uint64_t t0 = wall_ns();
    RequestId next = 1;
    for (int r = 0; r < rounds; ++r) {
        // First half: receive posted, then the message arrives.
        const std::size_t half = tags.size() / 2;
        for (std::size_t i = 0; i < half; ++i) m.post_recv(next++, tags[i], ~Tag{0});
        for (std::size_t i = 0; i < half; ++i) {
            (void)m.match_posted(tags[i]);
            ops += 2;
        }
        // Second half: the message arrives first and waits unexpected.
        for (std::size_t i = half; i < tags.size(); ++i) {
            UnexpectedMsg u;
            u.tag = tags[i];
            m.add_unexpected(std::move(u));
        }
        for (std::size_t i = half; i < tags.size(); ++i) {
            (void)m.take_unexpected(tags[i], ~Tag{0});
            ops += 2;
        }
    }
    return ratio(static_cast<double>(wall_ns() - t0), static_cast<double>(ops));
}

} // namespace perfbench

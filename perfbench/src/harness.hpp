// Shared pieces of the benchmark driver: the seeded input generator, the
// in-memory span tracer, the host speed reference, counter snapshots,
// summary statistics, the workload interface and the shared layer probes.
//
// The driver only calls the libraries' public API. Spans are recorded here,
// around each call the driver makes into a layer, never inside the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/bytes.hpp"
#include "base/hist.hpp"
#include "netsim/wire_model.hpp"

namespace perfbench {

using mpicd::Count;

[[nodiscard]] inline std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// --- Seeded inputs ---------------------------------------------------------

class Rng {
public:
    explicit Rng(std::uint64_t seed) : g_(seed) {}
    // Uniform integer in [lo, hi].
    std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(g_);
    }
    // Log-uniform integer in [lo, hi]: every octave equally likely.
    std::int64_t log_uniform(std::int64_t lo, std::int64_t hi);
    template <typename V>
    void shuffle(V& v) {
        std::shuffle(v.begin(), v.end(), g_);
    }
    std::uint64_t next() { return g_(); }

private:
    std::mt19937_64 g_;
};

// Independent stream `k` derived from the run seed (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

[[nodiscard]] std::uint64_t fnv1a(const void* p, std::size_t n);

// --- Span tracer -----------------------------------------------------------
//
// Off by default; Span is then one relaxed load. When on, each thread keeps
// a stack of open spans; a closing span adds its duration to its parent, so
// self time (duration minus the time its children cover) is exact for the
// nested spans one thread records. Aggregates per span name are kept for
// the whole run; raw spans (name, start, end, parent, step) are kept up to
// a cap and written out at exit.

class Span {
public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    bool on_;
};

struct SpanStats {
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint32_t> sample_ns; // durations, reservoir-sampled
    [[nodiscard]] double p50_us() const;
};

namespace tracer {
void enable(bool on);
[[nodiscard]] bool enabled();
// Step id stamped on spans the calling thread opens from now on.
void set_step(std::uint64_t step);
// Aggregates over every thread that recorded spans (call after they end).
[[nodiscard]] std::map<std::string, SpanStats> aggregate();
// Write the kept raw spans as JSON lines; returns the number written.
std::size_t write(const std::string& path);
} // namespace tracer

// --- Counters --------------------------------------------------------------

// A snapshot of the library's metrics registry.
struct Counters {
    std::map<std::string, std::uint64_t> values;
    std::map<std::string, mpicd::Histogram::Snapshot> hists;
    [[nodiscard]] double get(const std::string& group_name) const;
    [[nodiscard]] const mpicd::Histogram::Snapshot* hist(
        const std::string& group_name) const;
};
[[nodiscard]] Counters snapshot_counters();

// Sum of every histogram whose name starts with `prefix` (e.g. the
// per-family/algorithm coll/op_rounds_* histograms).
[[nodiscard]] double hist_sum_prefix(const Counters& c, const std::string& prefix,
                                     double* count);

// --- Host speed reference ----------------------------------------------------
//
// The machine the benchmark shares drifts in speed by +-15% over seconds.
// HostRef times a fixed task that uses no library code (a memcpy sweep, a
// hash-map fill, small allocations and faulting in fresh pages; ~0.5 ms)
// every kPeriodNs of the timed phase: factor() is the task's nominal
// duration over the median of the last kKeep timings, so a host time
// multiplied by it reads as if measured at the reference's nominal speed.
class HostRef {
public:
    static constexpr std::uint64_t kPeriodNs = 30'000'000;
    // Runs the task now / when a period has passed since the last one.
    void sample();
    void maybe_sample();
    [[nodiscard]] double factor() const;
    [[nodiscard]] const std::vector<double>& samples() const { return all_; }

private:
    static constexpr std::size_t kKeep = 7;
    std::uint64_t last_ = 0;
    std::vector<double> recent_; // the last kKeep timings
    std::vector<double> all_;
};

// --- Statistics ------------------------------------------------------------

// Linear-interpolated percentile, p in [0, 100]; the input is copied.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double ratio(double num, double den);

// --- Results ---------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

// What one timed step reports back to the loop.
struct StepOut {
    double vtime_us = 0.0;       // the step's virtual time
    double floor_us = 0.0;       // computed wire-model floor of the step
    std::uint64_t payload_bytes = 0; // payload delivered and verified
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t stack_ns = 0;  // wall time inside the library calls
};

// A workload: set-up, steps, and the layer probes that run after the
// counter window has closed.
class Workload {
public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    // Wire model of the workload (fixed in code; no environment).
    [[nodiscard]] virtual mpicd::netsim::WireParams params() const = 0;
    // True when most of a step's virtual time is host time the library
    // measured and charged (pack, unpack, pickle, callbacks): the driver
    // then normalizes step virtual time by the host speed reference too.
    [[nodiscard]] virtual bool host_timed_vtime() const = 0;
    // Build datatypes and inputs; adds the time spent in commit() to
    // *commit_us.
    virtual void build(double* commit_us) = 0;
    // Create the universe (and any rank threads); close() tears it down.
    virtual void open() = 0;
    virtual void close() = 0;
    [[nodiscard]] virtual int warmup_steps() const = 0;
    // Restart the stream of per-step inputs from `seed` (warm-up runs on a
    // fixed seed, so set-up does the same work for every run seed).
    virtual void reseed(std::uint64_t seed) = 0;
    [[nodiscard]] virtual StepOut step(std::uint64_t i) = 0;
    // Layer probes on the workload's own inputs; appended to *out.
    virtual void probe(std::vector<Metric>* out) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_bulk_noncontig(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_msg_storm(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_pyobj_rpc(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_coll_2level(std::uint64_t seed);

// Shared probes.
//
// Ping-pong of `bytes` raw bytes between ranks 0 and 1 of a fresh 2-rank
// universe, `iters` times, with p2p.post / p2p.wait spans; for workloads
// whose library calls post point-to-point traffic internally.
void probe_p2p_bytes(const mpicd::netsim::WireParams& params, Count bytes, int iters);

// Replay `tags` (the receive tags of one step) on a default-constructed
// tag matcher: half the receives posted before their messages arrive, half
// after. Returns ns per match operation.
[[nodiscard]] double probe_match_ns(const std::vector<std::uint64_t>& tags,
                                    int rounds);

} // namespace perfbench

// Repository benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <path>]
//
// One process runs one workload: it sets the workload up several times
// (setup_s is the median), opens a fresh counter window, runs closed-loop
// steps for --seconds, checks every delivered payload, then prints one JSON
// result line. With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 the timed phase is split into an untraced and a traced half and
// the result holds the per-layer metrics (counter deltas, span self times
// and the layer probes, which run after the counter window has closed).
// See perfbench/BENCHMARK.md for every metric.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "base/metrics.hpp"
#include "harness.hpp"

extern char** environ;

namespace {

using namespace perfbench;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "<bulk_noncontig|msg_storm|pyobj_rpc|coll_2level> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    bool have_seed = false, have_secs = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            have_seed = end != v && *end == '\0';
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            have_secs = end != v && *end == '\0' && o.seconds > 0.0;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = v[0] == '1';
        } else if (a == "--spans") {
            o.spans_path = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!have_seed || !have_secs) usage("--seed and --seconds are required");
    return o;
}

std::unique_ptr<Workload> make(const Options& o) {
    if (o.workload == "bulk_noncontig") return make_bulk_noncontig(o.seed);
    if (o.workload == "msg_storm") return make_msg_storm(o.seed);
    if (o.workload == "pyobj_rpc") return make_pyobj_rpc(o.seed);
    if (o.workload == "coll_2level") return make_coll_2level(o.seed);
    usage(("unknown workload " + o.workload).c_str());
}

// Every per-layer metric, in BENCHMARK.json order. A workload that does not
// exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"dt.pack_ns_per_B", "ns/B"},
    {"dt.unpack_ns_per_B", "ns/B"},
    {"dt.commit_us", "us"},
    {"ddtbench.manual_pack_ns_per_B", "ns/B"},
    {"core.lower_send_us", "us"},
    {"core.sg_entries_per_msg", "count"},
    {"core.iov_coalesce_ratio", "ratio"},
    {"core.fastpath_hit_ratio", "ratio"},
    {"p2p.post_us_p50", "us"},
    {"p2p.wait_us_p50", "us"},
    {"p2p.desc_cache_hit_ratio", "ratio"},
    {"ucx.match_probe_len", "count"},
    {"ucx.unexpected_frac", "ratio"},
    {"ucx.match_ns_per_op", "ns"},
    {"ucx.eager_per_step", "count"},
    {"ucx.rndv_pipeline_per_step", "count"},
    {"ucx.rndv_rdma_per_step", "count"},
    {"ucx.retransmits", "count"},
    {"netsim.wire_bytes_per_payload_B", "ratio"},
    {"netsim.model_floor_frac", "ratio"},
    {"netsim.uplink_wait_us_p50", "us"},
    {"netsim.uplink_wait_us_p99", "us"},
    {"datapath.copy_amp", "ratio"},
    {"pool.miss_ratio", "ratio"},
    {"pool.heap_allocs_per_msg", "count"},
    {"pysim.dumps_us", "us"},
    {"pysim.loads_us", "us"},
    {"pysim.msgs_per_obj_basic", "count"},
    {"pysim.msgs_per_obj_oob", "count"},
    {"pysim.msgs_per_obj_oob_cdt", "count"},
    {"coll.post_us", "us"},
    {"coll.wait_us", "us"},
    {"coll.vtime_us_allreduce", "us"},
    {"coll.vtime_us_bcast", "us"},
    {"coll.vtime_us_gather", "us"},
    {"coll.vtime_us_barrier", "us"},
    {"coll.rounds_per_op", "count"},
    {"self.driver_us_per_step", "us"},
    {"self.p2p_us_per_step", "us"},
    {"self.core_us_per_step", "us"},
    {"self.coll_us_per_step", "us"},
    {"self.pysim_us_per_step", "us"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans_per_step", "count"},
};

// Per-step samples of one timed phase. Host times are kept both as
// measured and normalized by the host speed reference (see HostRef). At
// most kKeep steps are kept, as a uniform reservoir sample, so the driver's
// own memory does not grow with the library's speed (peak_rss_MB).
struct Phase {
    static constexpr std::size_t kKeep = 1 << 16;
    struct Sample {
        double vtime_us;  // as the library's clocks read
        double nvtime_us; // host-normalized when normalize_vtime
        double goodput;   // verified bytes / nvtime (MB/s)
        double nstack_ns; // host-normalized wall time in library calls
    };
    bool normalize_vtime = false; // the workload's vtime is mostly host time
    std::vector<Sample> kept;
    std::uint64_t steps_run = 0;
    double vtime_total = 0.0;
    double floor_us = 0.0;
    double payload_bytes = 0.0;
    double stack_ns = 0.0;
    std::vector<double> ref_ns; // reference task durations
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::mt19937_64 sampler{7};

    Phase() { kept.reserve(kKeep); }

    void add(const StepOut& r, double f) {
        const double vt = normalize_vtime ? r.vtime_us * f : r.vtime_us;
        const Sample s{r.vtime_us, vt, ratio(static_cast<double>(r.payload_bytes), vt),
                       static_cast<double>(r.stack_ns) * f};
        ++steps_run;
        if (kept.size() < kKeep) {
            kept.push_back(s);
        } else if (const auto j = std::uniform_int_distribution<std::uint64_t>(
                       0, steps_run - 1)(sampler);
                   j < kKeep) {
            kept[j] = s;
        }
        vtime_total += r.vtime_us;
        floor_us += r.floor_us;
        payload_bytes += static_cast<double>(r.payload_bytes);
        stack_ns += static_cast<double>(r.stack_ns);
        attempted += r.attempted;
        failed += r.failed;
    }
    [[nodiscard]] double steps() const { return static_cast<double>(steps_run); }
    [[nodiscard]] double pct(double Sample::*field, double p) const {
        std::vector<double> v;
        v.reserve(kept.size());
        for (const Sample& s : kept) v.push_back(s.*field);
        return percentile(std::move(v), p);
    }
    // Steps per second at the median step's host-normalized wall time.
    [[nodiscard]] double steps_per_s() const {
        return ratio(1e9, pct(&Sample::nstack_ns, 50.0));
    }
};

// Run closed-loop steps for `seconds` of wall time (at least one step).
void run_phase(Workload& w, double seconds, std::uint64_t* step_id, Phase* ph) {
    const std::uint64_t t0 = wall_ns();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    ph->normalize_vtime = w.host_timed_vtime();
    HostRef ref;
    do {
        ref.maybe_sample();
        tracer::set_step(*step_id);
        const StepOut r = [&] {
            const Span s("driver.step");
            return w.step((*step_id)++);
        }();
        ph->add(r, ref.factor());
    } while (wall_ns() - t0 < budget);
    ph->ref_ns = ref.samples();
}

void print_environment(const Workload& w) {
    std::printf("# wire params (set in code):\n");
    w.params().print(stdout);
    int found = 0;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "MPICD_", 6) == 0) {
            std::printf("# environment knob in effect: %s\n", *e);
            ++found;
        }
    }
    if (found == 0) std::printf("# no MPICD_* variable in the environment\n");
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    // Keep freed large blocks in the heap instead of returning them to the
    // kernel: on the VM the benchmark was tuned on a fresh 4 KiB page costs
    // ~3.5 us to fault in, and glibc's adaptive mmap/trim thresholds made
    // multi-MiB steps alternate between reused and freshly faulted buffers.
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, 512 << 20);

    // --- Set-up, repeated; the last one's workload is kept.
    // Each set-up is timed and host-normalized (three reference samples
    // just before it); warm-up inputs come from a fixed seed.
    constexpr int kSetupReps = 9;
    constexpr std::uint64_t kWarmupSeed = 0x5eed;
    std::vector<double> setup_s, commit_us;
    std::unique_ptr<Workload> w;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        w.reset();
        HostRef ref;
        for (int k = 0; k < 3; ++k) ref.sample();
        const std::uint64_t t0 = wall_ns();
        w = make(opt);
        double commit = 0.0;
        w->build(&commit);
        w->reseed(kWarmupSeed);
        w->open();
        std::uint64_t warm_id = 0;
        for (int i = 0; i < w->warmup_steps(); ++i) {
            const StepOut r = w->step(warm_id++);
            if (r.failed != 0) {
                std::fprintf(stderr, "perfbench: warm-up transfer failed\n");
                return 1;
            }
        }
        w->close();
        setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9 * ref.factor());
        commit_us.push_back(commit * ref.factor());
    }
    w->reseed(opt.seed);
    print_environment(*w);

    // --- Counter window: reset, fresh universe, timed steps, teardown (the
    // worker and matcher counters fold into the registry on destruction).
    mpicd::metrics().reset();
    w->open();
    std::uint64_t step_id = 0;
    Phase plain, traced;
    if (!opt.trace) {
        run_phase(*w, opt.seconds, &step_id, &plain);
    } else {
        run_phase(*w, opt.seconds / 2.0, &step_id, &plain);
        tracer::enable(true);
        run_phase(*w, opt.seconds / 2.0, &step_id, &traced);
    }
    w->close();
    const Counters c = snapshot_counters();

    const std::uint64_t attempted = plain.attempted + traced.attempted;
    const std::uint64_t failed = plain.failed + traced.failed;
    std::vector<Metric> out;

    if (!opt.trace) {
        struct rusage ru {};
        getrusage(RUSAGE_SELF, &ru);
        using S = Phase::Sample;
        out.push_back({"step_vtime_p50_us", plain.pct(&S::nvtime_us, 50.0), "us"});
        out.push_back({"step_vtime_p99_us", plain.pct(&S::nvtime_us, 99.0), "us"});
        out.push_back({"vgoodput_MBps", plain.pct(&S::goodput, 50.0), "MB/s"});
        out.push_back({"wall_steps_per_s", plain.steps_per_s(), "1/s"});
        out.push_back({"setup_s", median(setup_s), "s"});
        out.push_back(
            {"peak_rss_MB", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
        // The same run without host normalization and medians, for the record.
        std::printf("# as measured: vtime p50 %.6g us, p99 %.6g us, goodput %.6g MB/s "
                    "(total bytes / total vtime), %.6g steps/s (steps / wall s); host "
                    "reference median %.6g ns over %zu samples\n",
                    plain.pct(&S::vtime_us, 50.0), plain.pct(&S::vtime_us, 99.0),
                    ratio(plain.payload_bytes, plain.vtime_total),
                    ratio(plain.steps(), plain.stack_ns / 1e9),
                    percentile(plain.ref_ns, 50.0), plain.ref_ns.size());
        std::printf("# timed steps: %.0f\n", plain.steps());
        if (plain.steps() < 1000)
            std::printf("# warning: fewer than 1000 timed steps; p99 has fewer than "
                        "10 samples beyond it\n");
    } else {
        const auto spans = tracer::aggregate(); // timed steps only
        std::vector<Metric> probes;
        w->probe(&probes); // after the counter window
        const auto all_spans = tracer::aggregate();
        tracer::enable(false);

        const double steps = plain.steps() + traced.steps();
        const double tsteps = traced.steps();
        const double msgs = c.get("worker/eager_sends") + c.get("worker/rndv_sends");
        const double payload = plain.payload_bytes + traced.payload_bytes;
        auto span_p50 = [&](const std::map<std::string, SpanStats>& m, const char* n) {
            const auto it = m.find(n);
            return it == m.end() ? 0.0 : it->second.p50_us();
        };
        auto self_per_step = [&](const std::string& layer) {
            double ns = 0.0;
            for (const auto& [name, s] : spans)
                if (name.rfind(layer + ".", 0) == 0) ns += static_cast<double>(s.self_ns);
            return ratio(ns / 1000.0, tsteps);
        };
        double span_count = 0.0;
        for (const auto& [name, s] : spans) span_count += static_cast<double>(s.count);
        const auto* uplink = c.hist("wire/uplink_wait_ns");
        double rounds_n = 0.0;
        const double rounds = hist_sum_prefix(c, "coll/op_rounds", &rounds_n);

        out.push_back({"core.lower_send_us", span_p50(all_spans, "core.lower_send"), ""});
        out.push_back({"core.sg_entries_per_msg",
                       ratio(c.get("pack/iov_entries_after"), msgs), ""});
        out.push_back({"core.iov_coalesce_ratio",
                       ratio(c.get("pack/iov_entries_after"),
                             c.get("pack/iov_entries_before")),
                       ""});
        out.push_back({"core.fastpath_hit_ratio",
                       ratio(c.get("fastpath/hits_trivial") +
                                 c.get("fastpath/hits_resizable"),
                             msgs),
                       ""});
        out.push_back({"p2p.post_us_p50", span_p50(all_spans, "p2p.post"), ""});
        out.push_back({"p2p.wait_us_p50", span_p50(all_spans, "p2p.wait"), ""});
        out.push_back({"p2p.desc_cache_hit_ratio",
                       ratio(c.get("pack/plan_cache_hits"),
                             c.get("pack/plan_cache_hits") +
                                 c.get("pack/plan_cache_misses")),
                       ""});
        out.push_back({"ucx.match_probe_len",
                       ratio(c.get("match/scanned_entries"), c.get("match/probes")), ""});
        out.push_back({"ucx.unexpected_frac",
                       ratio(c.get("worker/unexpected_msgs"),
                             c.get("worker/recv_completions")),
                       ""});
        out.push_back({"ucx.eager_per_step", ratio(c.get("worker/eager_sends"), steps), ""});
        out.push_back({"ucx.rndv_pipeline_per_step",
                       ratio(c.get("worker/rndv_pipeline"), steps), ""});
        out.push_back(
            {"ucx.rndv_rdma_per_step", ratio(c.get("worker/rndv_rdma"), steps), ""});
        out.push_back({"ucx.retransmits", c.get("worker/retransmits"), ""});
        out.push_back({"netsim.wire_bytes_per_payload_B",
                       ratio(c.get("worker/bytes_sent"), payload), ""});
        out.push_back({"netsim.model_floor_frac",
                       ratio(plain.floor_us + traced.floor_us,
                             plain.vtime_total + traced.vtime_total),
                       ""});
        out.push_back({"netsim.uplink_wait_us_p50",
                       uplink ? uplink->percentile(50.0) / 1000.0 : 0.0, ""});
        out.push_back({"netsim.uplink_wait_us_p99",
                       uplink ? uplink->percentile(99.0) / 1000.0 : 0.0, ""});
        out.push_back({"datapath.copy_amp",
                       ratio(c.get("datapath/bytes_copied"),
                             c.get("datapath/bytes_delivered")),
                       ""});
        out.push_back({"pool.miss_ratio",
                       ratio(c.get("pool/misses"),
                             c.get("pool/hits") + c.get("pool/misses")),
                       ""});
        out.push_back(
            {"pool.heap_allocs_per_msg", ratio(c.get("pool/heap_allocs"), msgs), ""});
        out.push_back({"pysim.dumps_us", span_p50(all_spans, "pysim.dumps"), ""});
        out.push_back({"pysim.loads_us", span_p50(all_spans, "pysim.loads"), ""});
        out.push_back({"coll.post_us", span_p50(spans, "coll.post"), ""});
        out.push_back({"coll.wait_us", span_p50(spans, "coll.wait"), ""});
        out.push_back({"coll.rounds_per_op", ratio(rounds, rounds_n), ""});
        for (const char* layer : {"driver", "p2p", "core", "coll", "pysim"})
            out.push_back({std::string("self.") + layer + "_us_per_step",
                           self_per_step(layer), ""});
        out.push_back({"trace.overhead_frac",
                       1.0 - ratio(traced.steps_per_s(), plain.steps_per_s()), ""});
        out.push_back({"trace.spans_per_step", ratio(span_count, tsteps), ""});
        out.push_back({"dt.commit_us", median(commit_us), ""});
        for (auto& m : probes) out.push_back(m);

        // Units from the canonical table; absent metrics read 0; a name
        // outside the table is a driver bug.
        std::vector<Metric> ordered;
        for (const auto& [name, unit] : kPerLayer) {
            Metric m{name, 0.0, unit};
            for (const auto& o : out)
                if (o.name == name) m.value = o.value;
            ordered.push_back(m);
        }
        for (const auto& o : out) {
            bool known = false;
            for (const auto& [name, unit] : kPerLayer) known |= o.name == name;
            if (!known) {
                std::fprintf(stderr, "perfbench: unlisted metric %s\n", o.name.c_str());
                return 1;
            }
        }
        out = std::move(ordered);
        if (!opt.spans_path.empty()) {
            const std::size_t n = tracer::write(opt.spans_path);
            std::printf("# wrote %zu spans to %s\n", n, opt.spans_path.c_str());
        }
        std::printf("# timed steps: %.0f untraced + %.0f traced\n", plain.steps(),
                    traced.steps());
    }

    const bool correct = failed == 0 && attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    out[i].name.c_str(), out[i].value, out[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

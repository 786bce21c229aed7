#include "netsim/fault.hpp"

#include <algorithm>
#include <cassert>

#include "base/config.hpp"

namespace mpicd::netsim {

FaultConfig FaultConfig::from_env() {
    FaultConfig c;
    c.seed = static_cast<std::uint64_t>(
        env_int_or("MPICD_FAULT_SEED", static_cast<std::int64_t>(c.seed)));
    c.drop = env_double_or("MPICD_FAULT_DROP", c.drop);
    c.dup = env_double_or("MPICD_FAULT_DUP", c.dup);
    c.reorder = env_double_or("MPICD_FAULT_REORDER", c.reorder);
    c.corrupt = env_double_or("MPICD_FAULT_CORRUPT", c.corrupt);
    c.delay = env_double_or("MPICD_FAULT_DELAY", c.delay);
    c.delay_max_us = env_double_or("MPICD_FAULT_DELAY_US", c.delay_max_us);
    c.force_reliable = env_int_or("MPICD_RELIABLE", 0) != 0;
    return c;
}

namespace {

// splitmix64: decorrelates per-link seeds derived from one user seed.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

FaultInjector::FaultInjector(int num_endpoints, FaultConfig cfg)
    : cfg_(cfg), n_(num_endpoints) {
    assert(num_endpoints > 0);
    const std::size_t nlinks =
        static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
    rng_.reserve(nlinks);
    for (std::size_t l = 0; l < nlinks; ++l)
        rng_.emplace_back(mix64(cfg_.seed ^ mix64(l + 1)));
    links_.resize(nlinks);
}

std::uint64_t FaultInjector::LinkState::bump(std::uint16_t kind) {
    ++seen_any;
    for (auto& [k, count] : seen_by_kind) {
        if (k == kind) return ++count;
    }
    seen_by_kind.emplace_back(kind, 1);
    return 1;
}

void FaultInjector::schedule(const ScheduledFault& f) {
    assert(f.src >= 0 && f.src < n_ && f.dst >= 0 && f.dst < n_);
    assert(f.nth >= 1);
    schedule_.push_back(f);
    fired_.push_back(false);
    ++scheduled_remaining_;
}

FaultInjector::Decision FaultInjector::decide(int src, int dst, std::uint16_t kind,
                                              std::uint64_t nbytes) {
    Decision d;
    auto& link_state = links_[link(src, dst)];
    const std::uint64_t nth_any = link_state.seen_any + 1;
    const std::uint64_t nth_kind = link_state.bump(kind);
    ++counters_.packets_seen;

    // Scheduled faults first: exact, independent of the random stream.
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
        if (fired_[i]) continue;
        const ScheduledFault& f = schedule_[i];
        if (f.src != src || f.dst != dst) continue;
        if (f.kind_filter != 0 && f.kind_filter != kind) continue;
        if (f.nth != (f.kind_filter != 0 ? nth_kind : nth_any)) continue;
        fired_[i] = true;
        --scheduled_remaining_;
        switch (f.action) {
            case FaultAction::drop: d.drop = true; break;
            case FaultAction::duplicate: d.duplicate = true; break;
            case FaultAction::reorder: d.reorder = true; break;
            case FaultAction::corrupt:
                d.corrupt = true;
                d.corrupt_byte = nbytes > 0 ? std::min(f.byte, nbytes - 1) : 0;
                d.corrupt_bit = static_cast<std::uint8_t>(f.bit & 7u);
                break;
            case FaultAction::delay: d.extra_delay_us += f.delay_us; break;
        }
    }

    // Random faults: a fixed number of draws per packet so that outcomes
    // never shift the stream consumed by later packets on the link.
    if (cfg_.any_random()) {
        auto& rng = rng_[link(src, dst)];
        std::uniform_real_distribution<double> uni(0.0, 1.0);
        const double u_drop = uni(rng);
        const double u_dup = uni(rng);
        const double u_reorder = uni(rng);
        const double u_corrupt = uni(rng);
        const double u_delay = uni(rng);
        const std::uint64_t r_byte = rng();
        const std::uint64_t r_bit = rng();
        const double u_jitter = uni(rng);
        if (u_drop < cfg_.drop) d.drop = true;
        if (u_dup < cfg_.dup) d.duplicate = true;
        if (u_reorder < cfg_.reorder) d.reorder = true;
        if (u_corrupt < cfg_.corrupt && nbytes > 0) {
            d.corrupt = true;
            d.corrupt_byte = r_byte % nbytes;
            d.corrupt_bit = static_cast<std::uint8_t>(r_bit & 7u);
        }
        if (u_delay < cfg_.delay)
            d.extra_delay_us += u_jitter * cfg_.delay_max_us;
    }

    if (d.drop) ++counters_.dropped;
    if (d.duplicate) ++counters_.duplicated;
    if (d.reorder) ++counters_.reordered;
    if (d.corrupt) ++counters_.corrupted;
    if (d.extra_delay_us > 0.0) ++counters_.delayed;
    return d;
}

} // namespace mpicd::netsim

// Fault-injection stage of the simulated fabric.
//
// Sits between the protocol layer (src/ucx) and packet delivery: every
// packet handed to Fabric::transmit / transmit_control passes through a
// FaultInjector that may drop it, duplicate it, reorder it against the
// next packet on the same link, delay its arrival (jitter), or flip one
// bit of its header/payload bytes. Two sources of faults compose:
//
//  - *Scheduled* faults: an exact, table-driven schedule ("drop the 3rd
//    RTS on link 0->1") used by the deterministic test harness.
//  - *Random* faults: independent per-link Bernoulli draws from a seeded
//    std::mt19937_64, so a (seed, traffic) pair always reproduces the
//    same fault pattern. Every packet consumes a fixed number of draws,
//    so outcomes never shift the stream for later packets.
//
// With the default configuration (all probabilities zero, no schedule)
// the injector is inert: Fabric skips it entirely and the wire behaves
// byte-for-byte like the lossless seed fabric. Whenever the injector is
// active, the ucx worker automatically switches on its reliable-delivery
// protocol (CRC + ack + retransmit; see docs/FAULTS.md).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "base/time.hpp"

namespace mpicd::netsim {

// Env-tunable fault configuration (all MPICD_FAULT_* variables).
struct FaultConfig {
    // Seed for the per-link deterministic RNGs (MPICD_FAULT_SEED).
    std::uint64_t seed = 0xF4017u;
    // Independent per-packet probabilities in [0, 1].
    double drop = 0.0;    // MPICD_FAULT_DROP: packet vanishes after the wire
    double dup = 0.0;     // MPICD_FAULT_DUP: a second copy arrives later
    double reorder = 0.0; // MPICD_FAULT_REORDER: swapped with next packet on link
    double corrupt = 0.0; // MPICD_FAULT_CORRUPT: one bit of header/payload flips
    double delay = 0.0;   // MPICD_FAULT_DELAY: arrival jitter is added
    // Maximum extra arrival delay for a delayed packet, virtual us
    // (MPICD_FAULT_DELAY_US); actual jitter is uniform in (0, max].
    SimTime delay_max_us = 25.0;
    // Force the reliable-delivery protocol on even with no faults
    // (MPICD_RELIABLE=1); used to measure protocol overhead in isolation.
    bool force_reliable = false;

    [[nodiscard]] static FaultConfig from_env();

    // True when any random fault class can fire.
    [[nodiscard]] bool any_random() const noexcept {
        return drop > 0.0 || dup > 0.0 || reorder > 0.0 || corrupt > 0.0 ||
               delay > 0.0;
    }
};

// One entry of a deterministic fault schedule. `nth` counts matching
// packets on the (src, dst) link starting at 1; a packet matches when
// `kind_filter` is 0 (any) or equals the packet's wire kind (the ucx
// PacketKind values). Scheduled faults fire once and are independent of
// the random fault stream.
enum class FaultAction : std::uint8_t { drop, duplicate, reorder, corrupt, delay };

struct ScheduledFault {
    int src = -1;
    int dst = -1;
    FaultAction action = FaultAction::drop;
    std::uint16_t kind_filter = 0; // 0 = any packet kind
    std::uint64_t nth = 1;         // 1-based occurrence on the link
    // corrupt: byte index into the concatenated header+payload bytes
    // (clamped); bit index in [0,7].
    std::uint64_t byte = 0;
    std::uint8_t bit = 0;
    // delay: extra virtual arrival delay.
    SimTime delay_us = 0.0;
};

// Diagnostics: how many faults actually fired, by class.
struct FaultCounters {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t delayed = 0;
    std::uint64_t packets_seen = 0;
};

class FaultInjector {
public:
    FaultInjector(int num_endpoints, FaultConfig cfg);

    // Active = at least one fault source can fire; the fabric bypasses the
    // injector entirely when this is false.
    [[nodiscard]] bool active() const noexcept {
        return cfg_.any_random() || scheduled_remaining_ > 0;
    }
    // The ucx layer runs its ack/CRC/retransmit protocol when this is true.
    // Sticky: once any fault source has ever been armed the whole run stays
    // in protocol, even after the last scheduled fault has fired.
    [[nodiscard]] bool reliable() const noexcept {
        return cfg_.any_random() || !schedule_.empty() || cfg_.force_reliable;
    }

    [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] const FaultCounters& counters() const noexcept { return counters_; }

    // Append a deterministic fault to the schedule (call before traffic).
    void schedule(const ScheduledFault& f);

    // The verdict for one packet. corrupt_byte indexes the concatenated
    // header+payload bytes.
    struct Decision {
        bool drop = false;
        bool duplicate = false;
        bool reorder = false;
        bool corrupt = false;
        std::uint64_t corrupt_byte = 0;
        std::uint8_t corrupt_bit = 0;
        SimTime extra_delay_us = 0.0;
    };

    // Decide the fate of the next packet on link src->dst with wire kind
    // `kind` and `nbytes` of corruptible (header+payload) bytes.
    // NOT thread-safe: the Fabric calls this under its own mutex.
    [[nodiscard]] Decision decide(int src, int dst, std::uint16_t kind,
                                  std::uint64_t nbytes);

private:
    [[nodiscard]] std::size_t link(int src, int dst) const noexcept {
        return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(dst);
    }

    FaultConfig cfg_;
    int n_ = 0;
    // Per-link RNG so the fault pattern on a link is independent of
    // traffic on other links (stable under interleaving changes).
    std::vector<std::mt19937_64> rng_;
    // Per-link ordinal of packets seen, total and by wire kind (for
    // schedule matching).
    struct LinkState {
        std::uint64_t seen_any = 0;
        std::vector<std::pair<std::uint16_t, std::uint64_t>> seen_by_kind;
        [[nodiscard]] std::uint64_t bump(std::uint16_t kind);
    };
    std::vector<LinkState> links_;
    std::vector<ScheduledFault> schedule_;
    std::vector<bool> fired_;
    std::size_t scheduled_remaining_ = 0;
    FaultCounters counters_;
};

} // namespace mpicd::netsim

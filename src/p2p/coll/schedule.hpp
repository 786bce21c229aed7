// Collective schedules: the one intermediate representation every
// collective algorithm compiles to (the libNBC design of Hoefler et al.,
// SC'07).
//
// A builder is a pure function from (TopologyMap, root, counts, payload)
// to a Schedule: an ordered list of rounds. Entering a round runs its
// local actions (block copies, element-wise reductions) and then posts its
// steps in order; the next round is entered only once every step of the
// current one completed. Builders touch no fabric, so they are testable on
// their own (tests/test_coll_schedule.cpp); the executor that runs a
// schedule over a communicator is CollOp (coll/request.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dt/datatype.hpp"
#include "p2p/coll/topology.hpp"
#include "p2p/payload.hpp"

namespace mpicd::p2p {

// Element-wise reduction operator for allreduce. On doubles, min/max
// combine with std::min/std::max, so a NaN contribution wins when it is
// the accumulated (left) argument and loses when it is the incoming
// (right) argument — NaN handling is therefore combination-order
// dependent and NOT the IEEE minNum/maxNum "ignore NaN" semantics. Ranks
// needing deterministic NaN behavior must filter inputs first.
enum class ReduceOp { sum, min, max };

} // namespace mpicd::p2p

namespace mpicd::p2p::coll {

// Size of the contiguous collective-tag block each op reserves; every
// step's subtag indexes into it and stays below this (the deepest
// schedule, allreduce, tops out at subtag 49).
inline constexpr std::uint32_t kCollTagStride = 64;

// One point-to-point operation of a round.
struct Step {
    bool send = false;
    int peer = -1;
    std::uint32_t sub = 0; // subtag within the op's tag block
    Payload data;          // bytes, derived or custom (p2p/payload.hpp)
};

// Local work a round runs on entry: copy `n` bytes from src to dst, or —
// with `reduce` set — fold `n` elements of src into dst.
using ReduceFn = void (*)(void* dst, const void* src, Count n, ReduceOp op);
struct Action {
    void* dst = nullptr;
    const void* src = nullptr;
    Count n = 0;
    ReduceFn reduce = nullptr;
    ReduceOp op = ReduceOp::sum;

    void run() const;
};

struct Round {
    std::vector<Action> actions;
    std::vector<Step> steps;
};

struct Schedule {
    Fam fam = Fam::barrier;
    Algo algo = Algo::flat;
    TopologyMap topo;
    std::vector<Round> rounds;
    // Staging memory steps and actions point into (barrier tokens, reduce
    // partners, leader aggregation blocks). Each block is allocated once,
    // zeroed, and never moves, so the pointers survive moving the schedule.
    std::vector<std::unique_ptr<std::byte[]>> scratch;

    [[nodiscard]] std::byte* alloc(Count n) {
        scratch.push_back(std::make_unique<std::byte[]>(static_cast<std::size_t>(n)));
        return scratch.back().get();
    }
};

// --- Builders. Every rank of the collective builds its own schedule from
// the same arguments (counts, root, topology) and its own buffers. ------

[[nodiscard]] Schedule build_barrier(const TopologyMap& t);
[[nodiscard]] Schedule build_bcast(const TopologyMap& t, Algo a, int root,
                                   const Payload& data);
// Rank i's n-byte block lands at byte offset i*n of the root's `recv`.
[[nodiscard]] Schedule build_gather(const TopologyMap& t, Algo a, int root,
                                    const void* send, Count n, void* recv);
// In place over `data`; T is double or std::int64_t.
template <typename T>
[[nodiscard]] Schedule build_allreduce(const TopologyMap& t, Algo a, T* data,
                                       Count count, ReduceOp op);

// v-variants: one payload per peer. An empty payload posts nothing; a
// byte payload for this rank itself is a local copy, a typed one goes
// through the loopback link so its pack/unpack callbacks run.
// gatherv: `recv` (one slot per source rank) is read at the root only.
[[nodiscard]] Schedule build_gatherv(const TopologyMap& t, int root,
                                     const Payload& send,
                                     std::span<const Payload> recv);
// allgatherv: the hier algorithm needs byte payloads.
[[nodiscard]] Schedule build_allgatherv(const TopologyMap& t, Algo a,
                                        const Payload& send,
                                        std::span<const Payload> recv);
[[nodiscard]] Schedule build_alltoallv(const TopologyMap& t,
                                       std::span<const Payload> send,
                                       std::span<const Payload> recv);

} // namespace mpicd::p2p::coll

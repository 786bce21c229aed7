#include "p2p/coll/schedule.hpp"

#include <algorithm>
#include <cstring>

namespace mpicd::p2p::coll {

void Action::run() const {
    if (reduce != nullptr) {
        reduce(dst, src, n, op);
    } else if (n > 0) {
        // The n > 0 guard: memcpy with a null pointer is UB even for zero
        // bytes.
        std::memcpy(dst, src, static_cast<std::size_t>(n));
    }
}

namespace {

Step send_step(int peer, std::uint32_t sub, const Payload& p) {
    return {true, peer, sub, p};
}
Step recv_step(int peer, std::uint32_t sub, const Payload& p) {
    return {false, peer, sub, p};
}
Action copy_action(void* dst, const void* src, Count n) {
    return {dst, src, n, nullptr, ReduceOp::sum};
}

[[nodiscard]] std::byte* at(void* base, Count off) noexcept {
    return static_cast<std::byte*>(base) + off;
}

// Tree helpers (binomial trees for bcast / reduce, dissemination distances
// for barrier) work in a root-rotated virtual rank space so any rank can
// be the root.

// ceil(log2(n)) — the number of dissemination / binomial rounds for n
// participants (0 for n <= 1).
[[nodiscard]] constexpr int log2_rounds(int n) noexcept {
    int rounds = 0;
    for (int span = 1; span < n; span <<= 1) ++rounds;
    return rounds;
}

// Virtual rank of `rank` in the tree rooted at `root` (and back).
[[nodiscard]] constexpr int to_vrank(int rank, int root, int n) noexcept {
    return (rank - root + n) % n;
}
[[nodiscard]] constexpr int from_vrank(int vrank, int root, int n) noexcept {
    return (vrank + root) % n;
}

// Binomial-tree parent of virtual rank `vr` (-1 for the root). The tree
// clears the lowest set bit: vr receives from vr - 2^k where 2^k is the
// lowest set bit of vr.
[[nodiscard]] constexpr int bin_parent(int vr) noexcept {
    return vr == 0 ? -1 : vr - (vr & -vr);
}

// Binomial-tree children of virtual rank `vr` among n participants, in the
// order a binomial bcast reaches them (largest subtree first). vr's
// children are vr + 2^k for every 2^k above vr's lowest set bit (all bits
// for the root) that stays below n.
[[nodiscard]] std::vector<int> bin_children(int vr, int n) {
    std::vector<int> kids;
    const int low = vr == 0 ? n : (vr & -vr);
    for (int bit = 1; bit < low && vr + bit < n; bit <<= 1) kids.push_back(vr + bit);
    // Largest subtree first so deep subtrees start earliest.
    for (std::size_t i = 0, j = kids.size(); i + 1 < j; ++i, --j)
        std::swap(kids[i], kids[j - 1]);
    return kids;
}

} // namespace

// ---------------------------------------------------------------------------
// Barrier: dissemination. Round k: receive a token from (rank - 2^k) % n,
// send one to (rank + 2^k) % n; after ceil(log2(n)) rounds every rank
// transitively heard from every other. The send and receive tokens are
// DISTINCT bytes (one byte on the same address would be a read/write race
// on lossy interleavings).

Schedule build_barrier(const TopologyMap& t) {
    Schedule s{Fam::barrier, Algo::flat, t, {}, {}};
    std::byte* tokens = s.alloc(2);
    const int n = t.size;
    for (int k = 0; k < log2_rounds(n); ++k) {
        const int dist = 1 << k;
        const auto sub = static_cast<std::uint32_t>(k);
        Round& rd = s.rounds.emplace_back();
        rd.steps.push_back(recv_step((t.rank - dist % n + n) % n, sub,
                                     Payload::bytes(tokens + 1, 1)));
        rd.steps.push_back(
            send_step((t.rank + dist) % n, sub, Payload::bytes(tokens, 1)));
    }
    return s;
}

namespace {

// ---------------------------------------------------------------------------
// Bcast: receive once (ranks that start with the data skip it), then
// forward to everyone downstream at once; any payload kind.

// Flat: binomial tree over all ranks.
Schedule bcast_flat(const TopologyMap& t, int root, const Payload& p) {
    Schedule s{Fam::bcast, Algo::flat, t, {}, {}};
    const int vr = to_vrank(t.rank, root, t.size);
    if (vr != 0)
        s.rounds.emplace_back().steps.push_back(
            recv_step(from_vrank(bin_parent(vr), root, t.size), 0, p));
    Round& out = s.rounds.emplace_back();
    for (const int kid : bin_children(vr, t.size))
        out.steps.push_back(send_step(from_vrank(kid, root, t.size), 0, p));
    return s;
}

// Hierarchical: root -> node leaders (binomial over the inter-node plane)
// -> node members.
Schedule bcast_hier(const TopologyMap& t, int root, const Payload& p) {
    Schedule s{Fam::bcast, Algo::hier, t, {}, {}};
    const int r = t.rank;
    const int rb = t.node_of(root);
    if (!t.is_leader(r)) {
        // A non-leader root hands the payload to its node leader, which
        // runs the tree; other members take it from their leader.
        s.rounds.emplace_back().steps.push_back(
            r == root ? send_step(t.leader_of(root), 0, p)
                      : recv_step(t.leader_of(r), 0, p));
        return s;
    }
    // Leaders run the inter-node binomial tree AND the intra-node
    // distribution — including when the leader IS the root (it simply has
    // no parent then).
    const int vb = to_vrank(t.node_of(r), rb, t.node_count);
    if (r != root) {
        const int from = vb == 0 ? root // own-node leader fed directly by the root
                                 : t.node_begin(from_vrank(bin_parent(vb), rb,
                                                           t.node_count));
        s.rounds.emplace_back().steps.push_back(recv_step(from, 0, p));
    }
    Round& out = s.rounds.emplace_back();
    // Inter-node subtrees first so deep paths start earliest.
    for (const int kid : bin_children(vb, t.node_count))
        out.steps.push_back(
            send_step(t.node_begin(from_vrank(kid, rb, t.node_count)), 0, p));
    const int b = t.node_of(r);
    for (int m = t.node_begin(b); m < t.node_end(b); ++m)
        if (m != r && m != root) out.steps.push_back(send_step(m, 0, p));
    return s;
}

// ---------------------------------------------------------------------------
// Gather (raw bytes): rank i's n-byte block lands at byte offset i*n in
// the root's receive buffer. Flat is the gatherv over uniform blocks
// (build_gather below).

// Hierarchical: members send to their node leader, which forwards ONE
// aggregated node block to the root (nodes are contiguous rank ranges, so
// a node block is a contiguous slice of the final buffer). Subtag 0 is the
// member -> leader plane, 1 the node-block plane.
Schedule gather_hier(const TopologyMap& t, int root, const void* send, Count n,
                     void* recv) {
    Schedule s{Fam::gather, Algo::hier, t, {}, {}};
    if (n == 0) return s;
    const int r = t.rank;
    const int lead = t.leader_of(r);
    const Payload mine = Payload::bytes(send, n);
    Round& rd = s.rounds.emplace_back();
    if (r == root) {
        for (int b = 0; b < t.node_count; ++b) {
            const Count base = t.node_begin(b) * n;
            const Payload block = Payload::bytes(at(recv, base), t.node_size(b) * n);
            if (b != t.node_of(r)) {
                // One aggregated block per remote node, from its leader.
                rd.steps.push_back(recv_step(t.node_begin(b), 1, block));
            } else if (t.is_leader(r)) {
                // Root doubles as its node's leader: members deliver
                // straight into the final buffer.
                rd.actions.push_back(copy_action(at(recv, r * n), send, n));
                for (int m = t.node_begin(b); m < t.node_end(b); ++m)
                    if (m != r)
                        rd.steps.push_back(
                            recv_step(m, 0, Payload::bytes(at(recv, m * n), n)));
            } else {
                // Root is a plain member of its node: contribute through
                // the leader and take the whole node block back from it.
                rd.steps.push_back(send_step(lead, 0, mine));
                rd.steps.push_back(recv_step(lead, 1, block));
            }
        }
        return s;
    }
    if (!t.is_leader(r)) {
        rd.steps.push_back(send_step(lead, 0, mine));
        return s;
    }
    // Non-root leader: stage the node block, then forward it once every
    // member contribution arrived.
    const int b = t.node_of(r);
    const Count block = t.node_size(b) * n;
    std::byte* stage = s.alloc(block);
    for (int m = t.node_begin(b); m < t.node_end(b); ++m) {
        std::byte* slot = stage + (m - t.node_begin(b)) * n;
        if (m == r)
            rd.actions.push_back(copy_action(slot, send, n));
        else
            rd.steps.push_back(recv_step(m, 0, Payload::bytes(slot, n)));
    }
    s.rounds.emplace_back().steps.push_back(
        send_step(root, 1, Payload::bytes(stage, block)));
    return s;
}

// ---------------------------------------------------------------------------
// Allreduce: binomial-tree reduce to a root + binomial broadcast back.
// Flat runs the tree over all ranks (rooted at rank 0); hierarchical
// reduces each node onto its leader, runs the same tree over leaders only
// (the inter-node plane carries node_count instead of size messages per
// sweep), then scatters the result inside each node.
//
// Subtags: flat reduce round k uses k; leader reduce round k uses 8 + k;
// broadcast 40; intra-node gather / scatter 48 / 49. log2(kMaxWorldSize)
// == 16 < 24 keeps the planes disjoint.
constexpr std::uint32_t kLeaderRoundBase = 8;
constexpr std::uint32_t kBcastSub = 40;
constexpr std::uint32_t kNodeGatherSub = 48;
constexpr std::uint32_t kNodeScatterSub = 49;

template <typename T>
void combine(void* dst_v, const void* src_v, Count n, ReduceOp op) {
    T* dst = static_cast<T*>(dst_v);
    const T* src = static_cast<const T*>(src_v);
    for (Count i = 0; i < n; ++i) {
        switch (op) {
            case ReduceOp::sum: dst[i] += src[i]; break;
            case ReduceOp::min: dst[i] = std::min(dst[i], src[i]); break;
            case ReduceOp::max: dst[i] = std::max(dst[i], src[i]); break;
        }
    }
}

} // namespace

template <typename T>
Schedule build_allreduce(const TopologyMap& t, Algo a, T* data, Count count,
                        ReduceOp op) {
    Schedule s{Fam::allreduce, a, t, {}, {}};
    // Zero elements: nothing to move on any rank (count is uniform).
    if (count == 0) return s;
    const bool hier = a == Algo::hier;
    const Payload vec = Payload::bytes(data, count * static_cast<Count>(sizeof(T)));
    const auto fold = [&](const void* src) {
        return Action{data, src, count, &combine<T>, op};
    };
    const int r = t.rank;
    if (hier && !t.is_leader(r)) {
        // Member: contribute, then wait for the reduced result.
        const int lead = t.leader_of(r);
        s.rounds.emplace_back().steps.push_back(send_step(lead, kNodeGatherSub, vec));
        s.rounds.emplace_back().steps.push_back(recv_step(lead, kNodeScatterSub, vec));
        return s;
    }
    // Folds the partner contributions that arrived in the previous round;
    // they run on entry to the next round, before it posts.
    std::vector<Action> pending;
    if (hier) {
        const int b = t.node_of(r);
        const int members = t.node_size(b) - 1;
        if (members > 0) {
            auto* node_tmp = reinterpret_cast<T*>(
                s.alloc(members * count * static_cast<Count>(sizeof(T))));
            Round& rd = s.rounds.emplace_back();
            Count off = 0;
            for (int m = t.node_begin(b); m < t.node_end(b); ++m) {
                if (m == r) continue;
                rd.steps.push_back(recv_step(
                    m, kNodeGatherSub,
                    Payload::bytes(node_tmp + off, vec.count)));
                pending.push_back(fold(node_tmp + off));
                off += count;
            }
        }
    }
    // The tree runs over all ranks (flat) or the leader-index space (hier).
    const int tr = hier ? t.node_of(r) : r;
    const int tn = hier ? t.node_count : t.size;
    const auto peer = [&](int x) { return hier ? t.node_begin(x) : x; };
    const std::uint32_t base = hier ? kLeaderRoundBase : 0;
    T* tmp = nullptr; // pairwise reduce partner buffer
    bool root = true;
    for (int k = 0; k < log2_rounds(tn); ++k) {
        const int bit = 1 << k;
        const auto sub = base + static_cast<std::uint32_t>(k);
        if ((tr & bit) != 0) {
            // Lower bits are zero (we would have left the reduction in an
            // earlier round otherwise): hand the partial result up, then
            // wait for the broadcast.
            Round& up = s.rounds.emplace_back();
            up.actions = std::move(pending);
            up.steps.push_back(send_step(peer(tr - bit), sub, vec));
            s.rounds.emplace_back().steps.push_back(
                recv_step(peer(bin_parent(tr)), kBcastSub, vec));
            root = false;
            break;
        }
        if (tr + bit < tn) {
            if (tmp == nullptr)
                tmp = reinterpret_cast<T*>(
                    s.alloc(count * static_cast<Count>(sizeof(T))));
            Round& rd = s.rounds.emplace_back();
            rd.actions = std::move(pending);
            pending.assign(1, fold(tmp));
            rd.steps.push_back(recv_step(peer(tr + bit), sub, Payload::bytes(tmp, vec.count)));
        }
        // No partner this round (ragged world): keep going.
    }
    // Forward the result down the tree (the tree root first folds its last
    // partner contribution), then, hierarchically, into the node.
    Round& down = s.rounds.emplace_back();
    if (root) down.actions = std::move(pending);
    for (const int kid : bin_children(tr, tn))
        down.steps.push_back(send_step(peer(kid), kBcastSub, vec));
    if (hier) {
        Round& scatter = s.rounds.emplace_back();
        const int b = t.node_of(r);
        for (int m = t.node_begin(b); m < t.node_end(b); ++m)
            if (m != r) scatter.steps.push_back(send_step(m, kNodeScatterSub, vec));
    }
    return s;
}

template Schedule build_allreduce<double>(const TopologyMap&, Algo, double*, Count,
                                          ReduceOp);
template Schedule build_allreduce<std::int64_t>(const TopologyMap&, Algo,
                                                std::int64_t*, Count, ReduceOp);

namespace {

// ---------------------------------------------------------------------------
// v-variants.

// Direct exchange: for every peer in rank order, receive recv[peer] and
// send send[peer].
Schedule exchange(const TopologyMap& t, Fam fam, std::span<const Payload> send,
                  std::span<const Payload> recv) {
    Schedule s{fam, Algo::flat, t, {}, {}};
    Round& rd = s.rounds.emplace_back();
    for (int peer = 0; peer < t.size; ++peer) {
        const Payload& in = recv[static_cast<std::size_t>(peer)];
        const Payload& out = send[static_cast<std::size_t>(peer)];
        if (peer == t.rank && in.is_bytes()) {
            rd.actions.push_back(copy_action(in.buf, out.buf, in.count));
            continue;
        }
        if (!in.empty()) rd.steps.push_back(recv_step(peer, 0, in));
        if (!out.empty()) rd.steps.push_back(send_step(peer, 0, out));
    }
    return s;
}

// Flat allgatherv: the direct exchange with this rank's block to everyone.
Schedule allgatherv_flat(const TopologyMap& t, const Payload& send,
                         std::span<const Payload> recv) {
    const std::vector<Payload> out(static_cast<std::size_t>(t.size), send);
    return exchange(t, Fam::allgatherv, out, recv);
}

// Hierarchical allgatherv (bytes): members hand their block to the node
// leader; leaders exchange ONE aggregated superblock per node pair on the
// inter-node plane (the packed layout orders blocks by rank, so each
// node's superblock is contiguous); leaders then push the full packed
// result to their members, and every rank scatters it into its own
// displacements. Subtags: 0 member -> leader, 1 leader <-> leader
// superblocks, 2 leader -> member result.
Schedule allgatherv_hier(const TopologyMap& t, const Payload& send,
                         std::span<const Payload> recv) {
    Schedule s{Fam::allgatherv, Algo::hier, t, {}, {}};
    const int n = t.size, r = t.rank;
    // Packed offsets: rank i's block at packed[i].
    std::vector<Count> packed(static_cast<std::size_t>(n) + 1, 0);
    for (int i = 0; i < n; ++i)
        packed[static_cast<std::size_t>(i) + 1] =
            packed[static_cast<std::size_t>(i)] + recv[static_cast<std::size_t>(i)].count;
    const Count total = packed[static_cast<std::size_t>(n)];
    std::byte* all = s.alloc(total);
    const auto slice = [&](int from, int to) {
        const Count off = packed[static_cast<std::size_t>(from)];
        return Payload::bytes(all + off, packed[static_cast<std::size_t>(to)] - off);
    };

    const int lead = t.leader_of(r);
    const int b = t.node_of(r);
    if (!t.is_leader(r)) {
        // Member: contribute, then take the packed result.
        Round& give = s.rounds.emplace_back();
        if (!send.empty()) give.steps.push_back(send_step(lead, 0, send));
        Round& take = s.rounds.emplace_back();
        if (total > 0) take.steps.push_back(recv_step(lead, 2, slice(0, n)));
    } else {
        // Leader: assemble the node's contributions, swap superblocks with
        // every other leader, push the packed result to the members.
        Round& node = s.rounds.emplace_back();
        for (int m = t.node_begin(b); m < t.node_end(b); ++m) {
            const Payload slot = slice(m, m + 1);
            if (m == r)
                node.actions.push_back(copy_action(slot.buf, send.buf, slot.count));
            else if (!slot.empty())
                node.steps.push_back(recv_step(m, 0, slot));
        }
        Round& swap = s.rounds.emplace_back();
        const Payload own = slice(t.node_begin(b), t.node_end(b));
        for (int bb = 0; bb < t.node_count; ++bb) {
            if (bb == b) continue;
            const int peer = t.node_begin(bb);
            const Payload theirs = slice(peer, t.node_end(bb));
            if (!theirs.empty()) swap.steps.push_back(recv_step(peer, 1, theirs));
            if (!own.empty()) swap.steps.push_back(send_step(peer, 1, own));
        }
        Round& push = s.rounds.emplace_back();
        for (int m = t.node_begin(b); m < t.node_end(b); ++m)
            if (m != r && total > 0) push.steps.push_back(send_step(m, 2, slice(0, n)));
    }
    Round& unpack = s.rounds.emplace_back();
    for (int i = 0; i < n; ++i) {
        const Payload& slot = recv[static_cast<std::size_t>(i)];
        unpack.actions.push_back(
            copy_action(slot.buf, all + packed[static_cast<std::size_t>(i)], slot.count));
    }
    return s;
}

} // namespace

// ---------------------------------------------------------------------------
// Builder tables: (family, algorithm) -> builder, indexed by Algo.
// Allreduce's two algorithms share one tree builder that takes the Algo;
// barrier and the direct-exchange v-variants have a flat builder only.

Schedule build_bcast(const TopologyMap& t, Algo a, int root, const Payload& data) {
    using Builder = Schedule (*)(const TopologyMap&, int, const Payload&);
    constexpr Builder kBuilders[] = {bcast_flat, bcast_hier};
    return kBuilders[static_cast<int>(a)](t, root, data);
}

Schedule build_gather(const TopologyMap& t, Algo a, int root, const void* send,
                      Count n, void* recv) {
    if (a == Algo::hier) return gather_hier(t, root, send, n, recv);
    std::vector<Payload> in;
    if (t.rank == root)
        for (int src = 0; src < t.size; ++src)
            in.push_back(Payload::bytes(n > 0 ? at(recv, src * n) : nullptr, n));
    Schedule s = build_gatherv(t, root, Payload::bytes(send, n), in);
    s.fam = Fam::gather;
    return s;
}

Schedule build_gatherv(const TopologyMap& t, int root, const Payload& send,
                       std::span<const Payload> recv) {
    Schedule s{Fam::gatherv, Algo::flat, t, {}, {}};
    Round& rd = s.rounds.emplace_back();
    const int r = t.rank;
    if (r == root) {
        for (int src = 0; src < t.size; ++src) {
            const Payload& in = recv[static_cast<std::size_t>(src)];
            if (in.empty()) continue;
            if (src == r && in.is_bytes())
                rd.actions.push_back(copy_action(in.buf, send.buf, in.count));
            else
                rd.steps.push_back(recv_step(src, 0, in));
        }
    }
    if (!send.empty() && (r != root || !send.is_bytes()))
        rd.steps.push_back(send_step(root, 0, send));
    return s;
}

Schedule build_allgatherv(const TopologyMap& t, Algo a, const Payload& send,
                          std::span<const Payload> recv) {
    using Builder = Schedule (*)(const TopologyMap&, const Payload&,
                                 std::span<const Payload>);
    constexpr Builder kBuilders[] = {allgatherv_flat, allgatherv_hier};
    return kBuilders[static_cast<int>(a)](t, send, recv);
}

Schedule build_alltoallv(const TopologyMap& t, std::span<const Payload> send,
                         std::span<const Payload> recv) {
    return exchange(t, Fam::alltoallv, send, recv);
}

} // namespace mpicd::p2p::coll

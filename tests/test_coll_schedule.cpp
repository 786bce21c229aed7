// Fabric-free tests of the collective schedule builders (coll/schedule.hpp).
//
// Every builder is run for every rank of worlds of 1..64 ranks on
// topologies of 1, 2, 3, 4 and 7 ranks per node (so the last node is
// ragged whenever the world size is not a multiple), with both
// algorithms where a family has two. A lockstep simulator then executes
// all ranks' schedules together the way the executor does — a rank enters
// its next round only when every step of the current one completed — and
// matches sends to receives on (src, dst, subtag) channels in post order.
// It checks that
//   - every send matches exactly one receive with the same (src, dst,
//     subtag, bytes), and nothing is left unmatched;
//   - the simulation completes, so no schedule deadlocks;
//   - every destination byte is written exactly once (and holds the value
//     the collective promises);
//   - every subtag stays below kCollTagStride.
// Worlds of up to 16 ranks try every root; larger worlds thin the roots to
// {0, 1, ranks_per_node, n/2, n-1}, which still covers a leader root, a
// member root and a root on the ragged last node.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "p2p/coll/schedule.hpp"

namespace mpicd::p2p::coll {
namespace {

constexpr int kMaxWorld = 64;
constexpr int kRanksPerNode[] = {1, 2, 3, 4, 7};

std::byte pattern(int rank, Count i) {
    return static_cast<std::byte>(rank * 37 + static_cast<int>(i) * 11 + 1);
}

// Destination memory whose writes are counted byte by byte.
struct Dest {
    const std::byte* begin;
    std::vector<int> writes;
};

class Sim {
public:
    explicit Sim(std::string what) : what_(std::move(what)) {}

    // Register a destination range; writes into it are counted.
    void watch(const void* p, Count n) {
        if (n > 0)
            dests_.push_back({static_cast<const std::byte*>(p),
                              std::vector<int>(static_cast<std::size_t>(n), 0)});
    }

    // Runs every rank's schedule to completion in lockstep; returns false
    // (after recording a failure) on a mismatch, a deadlock or a stray
    // step.
    bool run(const std::vector<Schedule>& scheds) {
        const int n = static_cast<int>(scheds.size());
        std::vector<std::size_t> next(scheds.size(), 0);
        std::vector<int> outstanding(scheds.size(), 0);
        std::vector<bool> done(scheds.size(), false);
        using Key = std::tuple<int, int, std::uint32_t>; // src, dst, sub
        std::map<Key, std::vector<const Step*>> sends, recvs;
        int finished = 0;
        for (bool moved = true; moved;) {
            moved = false;
            for (int r = 0; r < n; ++r) {
                const auto ri = static_cast<std::size_t>(r);
                if (done[ri] || outstanding[ri] > 0) continue;
                const auto& rounds = scheds[ri].rounds;
                while (next[ri] < rounds.size()) {
                    const Round& rd = rounds[next[ri]++];
                    for (const Action& a : rd.actions) {
                        if (a.reduce == nullptr) count_write(a.dst, a.n);
                        a.run();
                    }
                    for (const Step& s : rd.steps) {
                        EXPECT_LT(s.sub, kCollTagStride) << what_;
                        if (s.peer < 0 || s.peer >= n) {
                            ADD_FAILURE() << what_ << ": rank " << r << " peer " << s.peer;
                            return false;
                        }
                        auto& q = s.send ? sends[{r, s.peer, s.sub}]
                                         : recvs[{s.peer, r, s.sub}];
                        q.push_back(&s);
                        ++outstanding[ri];
                    }
                    if (!rd.steps.empty()) break;
                }
                if (outstanding[ri] == 0 && next[ri] == rounds.size()) {
                    done[ri] = true;
                    ++finished;
                }
                moved = true;
            }
            for (auto& [key, sq] : sends) {
                auto it = recvs.find(key);
                if (it == recvs.end()) continue;
                auto& rq = it->second;
                const std::size_t m = std::min(sq.size(), rq.size());
                for (std::size_t i = 0; i < m; ++i)
                    if (!deliver(*sq[i], *rq[i], key)) return false;
                sq.erase(sq.begin(), sq.begin() + static_cast<std::ptrdiff_t>(m));
                rq.erase(rq.begin(), rq.begin() + static_cast<std::ptrdiff_t>(m));
                outstanding[static_cast<std::size_t>(std::get<0>(key))] -=
                    static_cast<int>(m);
                outstanding[static_cast<std::size_t>(std::get<1>(key))] -=
                    static_cast<int>(m);
                moved = moved || m > 0;
            }
        }
        for (const auto* q : {&sends, &recvs})
            for (const auto& [key, steps] : *q)
                if (!steps.empty()) {
                    ADD_FAILURE() << what_ << ": unmatched " << (q == &sends ? "send" : "recv")
                                  << " " << std::get<0>(key) << "->" << std::get<1>(key)
                                  << " sub " << std::get<2>(key);
                    return false;
                }
        if (finished != n) {
            ADD_FAILURE() << what_ << ": deadlock, " << finished << "/" << n << " ranks done";
            return false;
        }
        return true;
    }

    // Every watched byte written exactly `expect` times.
    void expect_writes(int expect) const {
        for (const Dest& d : dests_)
            for (std::size_t i = 0; i < d.writes.size(); ++i)
                if (d.writes[i] != expect) {
                    ADD_FAILURE() << what_ << ": byte written " << d.writes[i] << " times";
                    return;
                }
    }

private:
    void count_write(const void* p, Count n) {
        const auto* b = static_cast<const std::byte*>(p);
        for (Dest& d : dests_) {
            const std::byte* e = d.begin + d.writes.size();
            if (b >= d.begin && b < e) {
                ASSERT_LE(b + n, e) << what_ << ": write overruns a destination";
                for (Count i = 0; i < n; ++i) ++d.writes[static_cast<std::size_t>(b - d.begin + i)];
                return;
            }
        }
    }

    bool deliver(const Step& s, const Step& r, const std::tuple<int, int, std::uint32_t>& k) {
        if (s.data.wire_bytes() != r.data.wire_bytes()) {
            ADD_FAILURE() << what_ << ": " << std::get<0>(k) << "->" << std::get<1>(k)
                          << " sub " << std::get<2>(k) << " sends " << s.data.wire_bytes()
                          << " bytes into a " << r.data.wire_bytes() << "-byte receive";
            return false;
        }
        if (s.data.is_bytes() && r.data.is_bytes()) {
            count_write(r.data.buf, r.data.count);
            if (r.data.count > 0)
                std::memcpy(r.data.buf, s.data.buf, static_cast<std::size_t>(r.data.count));
        }
        return true;
    }

    std::string what_;
    std::vector<Dest> dests_;
};

std::string label(const char* fam, int n, int rpn, Algo a, int root = -1) {
    return std::string(fam) + " n=" + std::to_string(n) + " rpn=" + std::to_string(rpn) +
           " " + algo_name(a) + (root >= 0 ? " root=" + std::to_string(root) : "");
}

std::vector<int> roots_for(int n, int rpn) {
    if (n <= 16) {
        std::vector<int> all(static_cast<std::size_t>(n));
        std::iota(all.begin(), all.end(), 0);
        return all;
    }
    const std::set<int> thin = {0, 1, rpn % n, n / 2, n - 1};
    return {thin.begin(), thin.end()};
}

std::vector<TopologyMap> world(int n, int rpn) {
    std::vector<TopologyMap> t;
    for (int r = 0; r < n; ++r) t.push_back(TopologyMap::make(n, r, rpn));
    return t;
}

// Runs `body(n, rpn)` over every world size and node width.
template <typename Body>
void for_worlds(Body body) {
    for (int n = 1; n <= kMaxWorld; ++n)
        for (const int rpn : kRanksPerNode) body(n, rpn);
}

constexpr Algo kAlgos[] = {Algo::flat, Algo::hier};

TEST(CollSchedule, Barrier) {
    for_worlds([](int n, int rpn) {
        std::vector<Schedule> s;
        for (const auto& t : world(n, rpn)) s.push_back(build_barrier(t));
        Sim sim(label("barrier", n, rpn, Algo::flat));
        EXPECT_TRUE(sim.run(s));
    });
}

TEST(CollSchedule, Bcast) {
    constexpr Count kBytes = 5;
    for_worlds([](int n, int rpn) {
        for (const Algo a : kAlgos) {
            for (const int root : roots_for(n, rpn)) {
                std::vector<std::vector<std::byte>> buf(static_cast<std::size_t>(n),
                                                        std::vector<std::byte>(kBytes));
                Sim sim(label("bcast", n, rpn, a, root));
                for (Count i = 0; i < kBytes; ++i)
                    buf[static_cast<std::size_t>(root)][static_cast<std::size_t>(i)] =
                        pattern(root, i);
                std::vector<Schedule> s;
                for (const auto& t : world(n, rpn)) {
                    auto& mine = buf[static_cast<std::size_t>(t.rank)];
                    if (t.rank != root) sim.watch(mine.data(), kBytes);
                    s.push_back(build_bcast(t, a, root, Payload::bytes(mine.data(), kBytes)));
                }
                if (!sim.run(s)) return;
                sim.expect_writes(1);
                for (const auto& b : buf) EXPECT_EQ(b, buf[static_cast<std::size_t>(root)]);
            }
        }
    });
}

TEST(CollSchedule, Gather) {
    constexpr Count kBytes = 3;
    for_worlds([](int n, int rpn) {
        for (const Algo a : kAlgos) {
            for (const int root : roots_for(n, rpn)) {
                std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(n));
                std::vector<std::byte> recv(static_cast<std::size_t>(n * kBytes));
                Sim sim(label("gather", n, rpn, a, root));
                sim.watch(recv.data(), n * kBytes);
                std::vector<Schedule> s;
                for (const auto& t : world(n, rpn)) {
                    auto& mine = send[static_cast<std::size_t>(t.rank)];
                    for (Count i = 0; i < kBytes; ++i) mine.push_back(pattern(t.rank, i));
                    s.push_back(build_gather(t, a, root, mine.data(), kBytes,
                                             t.rank == root ? recv.data() : nullptr));
                }
                if (!sim.run(s)) return;
                sim.expect_writes(1);
                for (int r = 0; r < n; ++r)
                    for (Count i = 0; i < kBytes; ++i)
                        ASSERT_EQ(recv[static_cast<std::size_t>(r * kBytes + i)], pattern(r, i))
                            << label("gather", n, rpn, a, root);
            }
        }
    });
}

// Rank r contributes the unit vector e_r, so the sum is all ones exactly
// when every contribution was folded in exactly once.
template <typename T>
void check_allreduce(int n, int rpn, Algo a) {
    std::vector<std::vector<T>> data(static_cast<std::size_t>(n),
                                     std::vector<T>(static_cast<std::size_t>(n), T{0}));
    Sim sim(label("allreduce", n, rpn, a));
    std::vector<Schedule> s;
    for (const auto& t : world(n, rpn)) {
        auto& mine = data[static_cast<std::size_t>(t.rank)];
        mine[static_cast<std::size_t>(t.rank)] = T{1};
        // The tree root (rank 0) folds in place; every other rank receives
        // the result exactly once.
        if (t.rank != 0) sim.watch(mine.data(), n * static_cast<Count>(sizeof(T)));
        s.push_back(build_allreduce(t, a, mine.data(), n, ReduceOp::sum));
    }
    if (!sim.run(s)) return;
    sim.expect_writes(1);
    for (const auto& v : data)
        for (const T x : v) ASSERT_EQ(x, T{1}) << label("allreduce", n, rpn, a);
}

TEST(CollSchedule, Allreduce) {
    for_worlds([](int n, int rpn) {
        for (const Algo a : kAlgos) {
            check_allreduce<std::int64_t>(n, rpn, a);
            check_allreduce<double>(n, rpn, a);
        }
    });
}

// Ragged per-rank block sizes, some zero, packed in rank order with a
// one-byte gap between blocks.
Count vcount(int rank) { return (rank * 7) % 5; }
std::vector<Count> vcounts(int n) {
    std::vector<Count> c;
    for (int i = 0; i < n; ++i) c.push_back(vcount(i));
    return c;
}
std::vector<Count> vdispls(const std::vector<Count>& counts) {
    std::vector<Count> d;
    Count off = 0;
    for (const Count c : counts) {
        d.push_back(off);
        off += c + 1;
    }
    return d;
}

struct VBuffers {
    std::vector<std::byte> send;
    std::vector<std::byte> recv;
    std::vector<Payload> slots;
};

// One receive buffer per rank with a block slot per peer.
VBuffers vbuffers(int rank, const std::vector<Count>& counts) {
    VBuffers b;
    for (Count i = 0; i < vcount(rank); ++i) b.send.push_back(pattern(rank, i));
    const auto d = vdispls(counts);
    b.recv.assign(static_cast<std::size_t>(d.back() + counts.back() + 1), std::byte{0});
    for (std::size_t i = 0; i < counts.size(); ++i)
        b.slots.push_back(Payload::bytes(b.recv.data() + d[i], counts[i]));
    return b;
}

void expect_blocks(const VBuffers& b, int n, const std::string& what) {
    for (int src = 0; src < n; ++src) {
        const Payload& slot = b.slots[static_cast<std::size_t>(src)];
        for (Count i = 0; i < slot.count; ++i)
            ASSERT_EQ(static_cast<const std::byte*>(slot.buf)[i], pattern(src, i)) << what;
    }
}

TEST(CollSchedule, Gatherv) {
    for_worlds([](int n, int rpn) {
        const auto counts = vcounts(n);
        for (const int root : roots_for(n, rpn)) {
            const std::string what = label("gatherv", n, rpn, Algo::flat, root);
            std::vector<VBuffers> bufs;
            for (int r = 0; r < n; ++r) bufs.push_back(vbuffers(r, counts));
            Sim sim(what);
            std::vector<Schedule> s;
            for (const auto& t : world(n, rpn)) {
                VBuffers& b = bufs[static_cast<std::size_t>(t.rank)];
                if (t.rank == root)
                    for (const Payload& p : b.slots) sim.watch(p.buf, p.count);
                s.push_back(build_gatherv(t, root, Payload::bytes(b.send.data(), vcount(t.rank)),
                                          t.rank == root ? std::span<const Payload>(b.slots)
                                                         : std::span<const Payload>()));
            }
            if (!sim.run(s)) return;
            sim.expect_writes(1);
            expect_blocks(bufs[static_cast<std::size_t>(root)], n, what);
        }
    });
}

TEST(CollSchedule, Allgatherv) {
    for_worlds([](int n, int rpn) {
        const auto counts = vcounts(n);
        for (const Algo a : kAlgos) {
            const std::string what = label("allgatherv", n, rpn, a);
            std::vector<VBuffers> bufs;
            for (int r = 0; r < n; ++r) bufs.push_back(vbuffers(r, counts));
            Sim sim(what);
            std::vector<Schedule> s;
            for (const auto& t : world(n, rpn)) {
                VBuffers& b = bufs[static_cast<std::size_t>(t.rank)];
                for (const Payload& p : b.slots) sim.watch(p.buf, p.count);
                s.push_back(build_allgatherv(
                    t, a, Payload::bytes(b.send.data(), vcount(t.rank)), b.slots));
            }
            if (!sim.run(s)) return;
            sim.expect_writes(1);
            for (const auto& b : bufs) expect_blocks(b, n, what);
        }
    });
}

TEST(CollSchedule, Alltoallv) {
    // Rank s sends (s + 2d) % 4 bytes to rank d.
    const auto count = [](int s, int d) { return Count((s + 2 * d) % 4); };
    for_worlds([&](int n, int rpn) {
        const std::string what = label("alltoallv", n, rpn, Algo::flat);
        std::vector<std::vector<std::vector<std::byte>>> out(static_cast<std::size_t>(n)),
            in(static_cast<std::size_t>(n));
        std::vector<Schedule> s;
        Sim sim(what);
        for (const auto& t : world(n, rpn)) {
            std::vector<Payload> send, recv;
            auto& o = out[static_cast<std::size_t>(t.rank)];
            auto& i = in[static_cast<std::size_t>(t.rank)];
            for (int p = 0; p < n; ++p) {
                o.emplace_back();
                for (Count k = 0; k < count(t.rank, p); ++k)
                    o.back().push_back(pattern(t.rank * n + p, k));
                i.emplace_back(static_cast<std::size_t>(count(p, t.rank)));
            }
            for (int p = 0; p < n; ++p) {
                send.push_back(Payload::bytes(o[static_cast<std::size_t>(p)].data(),
                                              count(t.rank, p)));
                recv.push_back(Payload::bytes(i[static_cast<std::size_t>(p)].data(),
                                              count(p, t.rank)));
                sim.watch(recv.back().buf, recv.back().count);
            }
            s.push_back(build_alltoallv(t, send, recv));
        }
        if (!sim.run(s)) return;
        sim.expect_writes(1);
        for (int r = 0; r < n; ++r)
            for (int p = 0; p < n; ++p)
                for (Count k = 0; k < count(p, r); ++k)
                    ASSERT_EQ(in[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)]
                                [static_cast<std::size_t>(k)],
                              pattern(p * n + r, k))
                        << what;
    });
}

// Typed payloads take the loopback link for this rank's own block instead
// of a local copy; the schedules must still match up (by packed bytes).
TEST(CollSchedule, TypedPayloadsMatchThroughLoopback) {
    const dt::TypeRef type = dt::type_int32();
    for (const int n : {1, 2, 5, 12}) {
        for (const int rpn : kRanksPerNode) {
            const std::string what = label("typed v-variants", n, rpn, Algo::flat);
            std::vector<std::int32_t> buf(static_cast<std::size_t>(4 * n));
            const auto typed = [&](int r) { return Payload{buf.data(), r % 3, type, nullptr}; };
            std::vector<Payload> slots;
            for (int r = 0; r < n; ++r) slots.push_back(typed(r));
            std::vector<Schedule> gv, agv, a2a, bc;
            for (const auto& t : world(n, rpn)) {
                const std::vector<Payload> out(static_cast<std::size_t>(n), typed(t.rank));
                gv.push_back(build_gatherv(t, n - 1, typed(t.rank), slots));
                agv.push_back(build_allgatherv(t, Algo::flat, typed(t.rank), slots));
                a2a.push_back(build_alltoallv(t, out, slots));
                bc.push_back(build_bcast(t, Algo::flat, 0, Payload{buf.data(), 2, type, nullptr}));
            }
            for (const auto* s : {&gv, &agv, &a2a, &bc}) EXPECT_TRUE(Sim(what).run(*s));
        }
    }
}

} // namespace
} // namespace mpicd::p2p::coll

// Differential property tests for the hashed tag matcher.
//
// A naive reference model — linear scans over FIFO queues, transcribed
// straight from the MPI matching rules — runs in lockstep with the
// TagMatcher over thousands of seeded-random
// post / arrive / take / probe / cancel sequences with wildcard masks.
// Any divergence in match pairing (which receive pairs with which
// message) or in ordering is a failure; on mismatch the harness
// binary-searches the shortest failing operation prefix and reports the
// seed + prefix length so the case can be replayed and shrunk by hand.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ucx/matcher.hpp"

namespace mpicd::ucx {
namespace {

// ---------------------------------------------------------------------------
// Reference model: the MPI matching rules, written as obviously as possible.

struct RefMatcher {
    struct Posted {
        RequestId id;
        Tag tag;
        Tag mask;
    };
    struct Unex {
        Tag tag;
        std::uint64_t uid; // message identity (msg_id)
    };
    std::vector<Posted> posted; // posting order
    std::vector<Unex> unex;     // arrival order

    void post_recv(RequestId id, Tag tag, Tag mask) {
        posted.push_back({id, tag, mask});
    }
    std::optional<RequestId> match_posted(Tag incoming) {
        for (std::size_t i = 0; i < posted.size(); ++i) {
            if (tag_matches(posted[i].tag, posted[i].mask, incoming)) {
                const RequestId id = posted[i].id;
                posted.erase(posted.begin() + static_cast<std::ptrdiff_t>(i));
                return id;
            }
        }
        return std::nullopt;
    }
    bool cancel_posted(RequestId id) {
        for (std::size_t i = 0; i < posted.size(); ++i) {
            if (posted[i].id == id) {
                posted.erase(posted.begin() + static_cast<std::ptrdiff_t>(i));
                return true;
            }
        }
        return false;
    }
    void add_unexpected(Tag tag, std::uint64_t uid) { unex.push_back({tag, uid}); }
    std::optional<std::uint64_t> take_unexpected(Tag tag, Tag mask) {
        for (std::size_t i = 0; i < unex.size(); ++i) {
            if (tag_matches(tag, mask, unex[i].tag)) {
                const std::uint64_t uid = unex[i].uid;
                unex.erase(unex.begin() + static_cast<std::ptrdiff_t>(i));
                return uid;
            }
        }
        return std::nullopt;
    }
    std::optional<std::uint64_t> peek_unexpected(Tag tag, Tag mask) const {
        for (const auto& u : unex) {
            if (tag_matches(tag, mask, u.tag)) return u.uid;
        }
        return std::nullopt;
    }
};

// ---------------------------------------------------------------------------
// Randomized operation stream.

enum class OpKind { post, arrive, take, peek, cancel };

struct Op {
    OpKind kind = OpKind::post;
    Tag tag = 0;
    Tag mask = ~Tag{0};
    std::size_t pick = 0; // cancel: index into the live posted-id set
};

// The p2p layer's wire tag layout, reproduced so the random tag space
// exercises realistic collision structure: [ctx(16) | src(16) | user(32)].
Tag compose_tag(std::uint64_t ctx, std::uint64_t src, std::uint64_t user) {
    return (ctx << 48) | (src << 32) | (user & 0xFFFFFFFFull);
}

constexpr Tag kFullMask = ~Tag{0};
constexpr Tag kCtxMask = 0xFFFFull << 48;
constexpr Tag kSrcMask = 0xFFFFull << 32;
constexpr Tag kUserMask = 0xFFFFFFFFull;

Op gen_op(std::mt19937_64& rng) {
    Op op;
    const std::uint64_t what = rng() % 100;
    if (what < 30) op.kind = OpKind::post;
    else if (what < 60) op.kind = OpKind::arrive;
    else if (what < 75) op.kind = OpKind::take;
    else if (what < 88) op.kind = OpKind::peek;
    else op.kind = OpKind::cancel;

    // Small value pools force collisions: a handful of contexts, sources
    // and user tags, so buckets build real depth and wildcard chains
    // compete with exact matches.
    op.tag = compose_tag(rng() % 3, rng() % 5, rng() % 7);
    switch (rng() % 10) {
        case 0: case 1: case 2: case 3:
            op.mask = kFullMask; break;                    // exact
        case 4: case 5:
            op.mask = kCtxMask | kUserMask; break;         // ANY_SOURCE
        case 6:
            op.mask = kCtxMask | kSrcMask; break;          // ANY_TAG
        case 7:
            op.mask = kCtxMask; break;                     // ANY_SOURCE+ANY_TAG
        case 8:
            op.mask = 0; break;                            // match anything
        default:
            op.mask = rng(); break;                        // adversarial mask
    }
    op.pick = static_cast<std::size_t>(rng());
    return op;
}

// Replays ops[0..n) through the reference model and the TagMatcher;
// returns the index of the first diverging operation, or n if none.
std::size_t first_divergence(const std::vector<Op>& ops, std::size_t n,
                             std::string* why) {
    TagMatcher m;
    RefMatcher ref;
    RequestId next_id = 1;
    std::uint64_t next_uid = 1;
    std::vector<RequestId> live; // posted ids not yet matched/cancelled
    // TagMatcher reports matched messages as UnexpectedMsg; identity rides
    // in msg_id.
    const auto mismatch = [&](std::size_t i, const std::string& detail) {
        if (why != nullptr) *why = "op " + std::to_string(i) + ": " + detail;
        return i;
    };
    for (std::size_t i = 0; i < n; ++i) {
        const Op& op = ops[i];
        switch (op.kind) {
            case OpKind::post: {
                // Mimics Worker::tag_recv: drain the unexpected queue
                // first, post only on miss.
                auto got = m.take_unexpected(op.tag, op.mask);
                auto want = ref.take_unexpected(op.tag, op.mask);
                if (got.has_value() != want.has_value())
                    return mismatch(i, "post: hit/miss divergence");
                if (got.has_value()) {
                    if (got->msg_id != *want)
                        return mismatch(i, "post: paired different messages");
                    break;
                }
                const RequestId id = next_id++;
                m.post_recv(id, op.tag, op.mask);
                ref.post_recv(id, op.tag, op.mask);
                live.push_back(id);
                break;
            }
            case OpKind::arrive: {
                // Mimics handle_eager/handle_rts: match a posted recv,
                // else park as unexpected.
                auto got = m.match_posted(op.tag);
                auto want = ref.match_posted(op.tag);
                if (got != want)
                    return mismatch(i, "arrive: matched different recvs");
                if (got.has_value()) {
                    std::erase(live, *got);
                } else {
                    const std::uint64_t uid = next_uid++;
                    UnexpectedMsg u;
                    u.tag = op.tag;
                    u.msg_id = uid;
                    m.add_unexpected(std::move(u));
                    ref.add_unexpected(op.tag, uid);
                }
                break;
            }
            case OpKind::take: {
                // Mimics mprobe: destructive match against the unexpected
                // queue.
                auto got = m.take_unexpected(op.tag, op.mask);
                auto want = ref.take_unexpected(op.tag, op.mask);
                if (got.has_value() != want.has_value())
                    return mismatch(i, "take: hit/miss divergence");
                if (got.has_value() && got->msg_id != *want)
                    return mismatch(i, "take: paired different messages");
                break;
            }
            case OpKind::peek: {
                const UnexpectedMsg* got = m.peek_unexpected(op.tag, op.mask);
                auto want = ref.peek_unexpected(op.tag, op.mask);
                if ((got != nullptr) != want.has_value())
                    return mismatch(i, "peek: hit/miss divergence");
                if (got != nullptr && got->msg_id != *want)
                    return mismatch(i, "peek: saw different messages");
                break;
            }
            case OpKind::cancel: {
                if (live.empty()) break;
                const RequestId id = live[op.pick % live.size()];
                // The matcher needs (tag, mask) to locate the entry; fish
                // them out of the reference model.
                Tag tag = 0, mask = 0;
                for (const auto& p : ref.posted) {
                    if (p.id == id) {
                        tag = p.tag;
                        mask = p.mask;
                        break;
                    }
                }
                const bool got = m.cancel_posted(id, tag, mask);
                const bool want = ref.cancel_posted(id);
                if (got != want)
                    return mismatch(i, "cancel: found/not-found divergence");
                if (got) std::erase(live, id);
                break;
            }
        }
        if (m.posted_size() != ref.posted.size())
            return mismatch(i, "posted_size divergence");
        if (m.unexpected_size() != ref.unex.size())
            return mismatch(i, "unexpected_size divergence");
    }
    return n;
}

// Runs one seed; on divergence, shrinks to the minimal failing prefix and
// fails with a replayable report.
void run_seed(std::uint64_t seed, std::size_t nops) {
    std::mt19937_64 rng(seed);
    std::vector<Op> ops;
    ops.reserve(nops);
    for (std::size_t i = 0; i < nops; ++i) ops.push_back(gen_op(rng));

    std::string why;
    const std::size_t div = first_divergence(ops, ops.size(), &why);
    if (div == ops.size()) return;

    // Shrink: binary-search the shortest prefix that still diverges (the
    // divergence index is monotone in the prefix length — a prefix that
    // contains the first diverging op still diverges).
    std::size_t lo = 1, hi = div + 1;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (first_divergence(ops, mid, nullptr) < mid) hi = mid;
        else lo = mid + 1;
    }
    std::ostringstream msg;
    msg << "differential divergence: seed=" << seed
        << " first divergence at " << why
        << "; minimal failing prefix = " << lo << " ops (replay with"
        << " run_seed(" << seed << ", " << lo << "))";
    FAIL() << msg.str();
}

// ---------------------------------------------------------------------------
// The acceptance-criteria sweep: >= 20 seeds x >= 5000 ops, zero divergence.

TEST(MatcherDifferential, HashedMatchesReferenceAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        run_seed(seed * 0x9E3779B97F4A7C15ull + seed, 6000);
}

// ---------------------------------------------------------------------------
// Targeted unit tests for the ordering rules the differential sweep relies
// on statistically.

TEST(Matcher, ExactFifoPerTag) {
    TagMatcher m;
    m.post_recv(1, 7, kFullMask);
    m.post_recv(2, 7, kFullMask);
    m.post_recv(3, 9, kFullMask);
    EXPECT_EQ(m.match_posted(7), std::optional<RequestId>(1));
    EXPECT_EQ(m.match_posted(7), std::optional<RequestId>(2));
    EXPECT_EQ(m.match_posted(7), std::nullopt);
    EXPECT_EQ(m.match_posted(9), std::optional<RequestId>(3));
    EXPECT_TRUE(m.empty());
}

TEST(Matcher, WildcardVsExactArbitratedByPostingOrder) {
    {
        // Wildcard posted first wins.
        TagMatcher m;
        m.post_recv(1, 0, 0); // matches anything
        m.post_recv(2, 7, kFullMask);
        EXPECT_EQ(m.match_posted(7), std::optional<RequestId>(1));
        EXPECT_EQ(m.match_posted(7), std::optional<RequestId>(2));
    }
    {
        // Exact posted first wins; the wildcard then takes the next one.
        TagMatcher m;
        m.post_recv(1, 7, kFullMask);
        m.post_recv(2, 0, 0);
        EXPECT_EQ(m.match_posted(7), std::optional<RequestId>(1));
        EXPECT_EQ(m.match_posted(9), std::optional<RequestId>(2));
    }
}

TEST(Matcher, UnexpectedArrivalOrderAcrossTags) {
    TagMatcher m;
    for (std::uint64_t uid = 1; uid <= 3; ++uid) {
        UnexpectedMsg u;
        u.tag = (uid == 2) ? 5 : 9; // arrivals: 9, 5, 9
        u.msg_id = uid;
        m.add_unexpected(std::move(u));
    }
    // Wildcard take sees strict arrival order regardless of tag.
    auto a = m.take_unexpected(0, 0);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->msg_id, 1u);
    // Exact take of tag 9 skips over the parked tag-5 message but keeps
    // FIFO within tag 9.
    auto b = m.take_unexpected(9, kFullMask);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->msg_id, 3u);
    auto c = m.take_unexpected(5, kFullMask);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->msg_id, 2u);
    EXPECT_TRUE(m.empty());
}

TEST(Matcher, CancelRemovesOnlyTheTarget) {
    TagMatcher m;
    m.post_recv(1, 7, kFullMask);
    m.post_recv(2, 7, kFullMask);
    EXPECT_TRUE(m.cancel_posted(1, 7, kFullMask));
    EXPECT_FALSE(m.cancel_posted(1, 7, kFullMask));
    EXPECT_EQ(m.match_posted(7), std::optional<RequestId>(2));
    EXPECT_TRUE(m.empty());
}

TEST(Matcher, HashedProbeCostFlatForExactTags) {
    // The structural claim behind bench/stress_matching: with only exact
    // (full-mask) receives posted, the hashed matcher examines exactly one
    // mask group per incoming message, regardless of posted depth.
    for (const std::size_t depth : {16u, 1024u}) {
        TagMatcher m;
        for (std::size_t i = 0; i < depth; ++i)
            m.post_recv(static_cast<RequestId>(i + 1),
                        compose_tag(0, 0, static_cast<std::uint64_t>(i)),
                        kFullMask);
        const std::uint64_t probes0 = m.local_stats().probes;
        const std::uint64_t scanned0 = m.local_stats().scanned_entries;
        for (std::size_t i = depth; i-- > 0;) {
            ASSERT_TRUE(
                m.match_posted(compose_tag(0, 0, static_cast<std::uint64_t>(i)))
                    .has_value());
        }
        const std::uint64_t probes = m.local_stats().probes - probes0;
        const std::uint64_t scanned = m.local_stats().scanned_entries - scanned0;
        EXPECT_EQ(probes, depth);
        EXPECT_EQ(scanned, depth); // exactly 1 group examined per match
    }
}

TEST(Matcher, DrainedTagsLeaveBoundedState) {
    // 100,000 distinct tags through both sides, first all live at once and
    // then one at a time without ever repeating (the way collective epoch
    // tags go by). Once drained, the matcher keeps only its bounded spare
    // pools and small idle tables: a few hundred entries, however many
    // tags went through.
    constexpr std::uint64_t kTags = 100'000;
    constexpr std::size_t kBound = 4096;
    TagMatcher m;
    const auto unexpected = [](Tag tag, std::uint64_t uid) {
        UnexpectedMsg u;
        u.tag = tag;
        u.msg_id = uid;
        return u;
    };
    for (std::uint64_t i = 0; i < kTags; ++i) {
        m.post_recv(i + 1, compose_tag(0, 0, i), kFullMask);
        m.add_unexpected(unexpected(compose_tag(1, 0, i), i + 1));
    }
    EXPECT_GE(m.retained_tag_state(), 2 * kTags); // live state is counted
    for (std::uint64_t i = 0; i < kTags; ++i) {
        ASSERT_EQ(m.match_posted(compose_tag(0, 0, i)), std::optional<RequestId>(i + 1));
        const auto u = m.take_unexpected(compose_tag(1, 0, i), kFullMask);
        ASSERT_TRUE(u.has_value());
        ASSERT_EQ(u->msg_id, i + 1);
    }
    EXPECT_TRUE(m.empty());
    EXPECT_LE(m.retained_tag_state(), kBound);

    for (std::uint64_t i = 0; i < kTags; ++i) {
        m.post_recv(i + 1, compose_tag(2, 0, i), kFullMask);
        m.add_unexpected(unexpected(compose_tag(3, 0, i), i + 1));
        ASSERT_EQ(m.match_posted(compose_tag(2, 0, i)), std::optional<RequestId>(i + 1));
        ASSERT_TRUE(m.take_unexpected(compose_tag(3, 0, i), kFullMask).has_value());
    }
    EXPECT_TRUE(m.empty());
    EXPECT_LE(m.retained_tag_state(), kBound);
}

} // namespace
} // namespace mpicd::ucx

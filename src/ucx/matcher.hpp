// TagMatcher: the tag-matching engine behind ucx::Worker.
//
// MPI matching semantics in one place:
//  - posted receives match in POSTING order: an incoming message pairs with
//    the earliest-posted receive whose (tag, mask) predicate accepts it,
//    regardless of whether that receive is an exact match or a wildcard
//    (ANY_SOURCE / ANY_TAG encode as partial masks);
//  - unexpected messages match in ARRIVAL order: a newly posted receive
//    pairs with the earliest-arrived message its predicate accepts, which
//    preserves per-(src,tag) FIFO non-overtaking.
//
// One engine (see docs/MATCHING.md; tests/test_matcher.cpp checks it
// against a naive reference model):
//  - Posted receives are grouped by their mask value; within a group they
//    hash by (tag & mask), so bucket membership is equivalent to predicate
//    acceptance for that mask and each bucket is a FIFO chain. Wildcard
//    masks simply form additional (small) groups — the dedicated wildcard
//    chains. A monotonic posting sequence number arbitrates across groups:
//    the candidate with the smallest sequence wins, which is exactly
//    posting order.
//  - Unexpected messages live on one master arrival list plus a per-tag
//    index of list iterators; a full-mask take is O(1), a wildcard take
//    scans the master list in arrival order (and, by the bucket-front
//    invariant, always removes a bucket front: all messages with equal tag
//    are interchangeable under any predicate, so the earliest acceptable
//    one is the earliest of its tag).
//
// Storage is recycled, so a steady stream of messages allocates nothing:
// a drained tag's hash node (with its chain) and a matched message's list
// node move to bounded spare pools and are reused by the next new tag or
// message, and an emptied mask group parks its table for the next group.
// Tags that never repeat (collective epochs) therefore cost nothing past
// the bound, and an oversized idle table is shrunk, so the per-tag state
// held once every tag has drained is a constant (retained_tag_state()).
//
// Not thread-safe: the owning Worker serializes access under its mutex.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/bytes.hpp"
#include "base/pool.hpp"
#include "base/time.hpp"

namespace mpicd::ucx {

using RequestId = std::uint64_t;
constexpr RequestId kInvalidRequest = 0;

// Tag type: full 64 bits; the p2p layer encodes (context, source, user tag).
using Tag = std::uint64_t;

[[nodiscard]] inline bool tag_matches(Tag posted_tag, Tag mask,
                                      Tag incoming) noexcept {
    return ((posted_tag ^ incoming) & mask) == 0;
}

// A message that arrived before a matching receive was posted (eager
// payload or rendezvous RTS), parked in the unexpected queue.
struct UnexpectedMsg {
    enum class Kind { eager, rts };
    Kind kind = Kind::eager;
    Tag tag = 0;
    int src = -1;
    Count total = 0;
    PooledBuf payload;           // eager only
    std::uint64_t sender_op = 0; // rts only
    SimTime arrival = 0.0;
    std::uint64_t msg_id = 0;    // sender's message id (from the packet)
    SimTime post_vtime = -1.0;   // sender's virtual post time
};

// Local matcher counters; folded into the metrics registry ("match/*") on
// destruction, and read directly by bench/stress_matching for per-section
// deltas.
struct MatcherStats {
    std::uint64_t probes = 0;            // match attempts (posted + unexpected)
    std::uint64_t scanned_entries = 0;   // entries/buckets examined across probes
    std::uint64_t posted_matches = 0;    // incoming message paired a posted recv
    std::uint64_t unexpected_matches = 0;// recv/mprobe paired an unexpected msg
    std::uint64_t wildcard_hits = 0;     // matches made through a partial mask
};

class TagMatcher {
public:
    TagMatcher();
    ~TagMatcher();
    TagMatcher(const TagMatcher&) = delete;
    TagMatcher& operator=(const TagMatcher&) = delete;

    // --- Posted-receive side. ---
    void post_recv(RequestId id, Tag tag, Tag mask);
    // Earliest-posted receive accepting `incoming`; removed from matching.
    [[nodiscard]] std::optional<RequestId> match_posted(Tag incoming);
    // Remove a posted receive that has not matched; false if absent.
    bool cancel_posted(RequestId id, Tag tag, Tag mask);

    // --- Unexpected-message side. ---
    void add_unexpected(UnexpectedMsg&& msg);
    // Earliest-arrived message accepted by (tag, mask); removed.
    [[nodiscard]] std::optional<UnexpectedMsg> take_unexpected(Tag tag, Tag mask);
    // Non-destructive variant (probe). Pointer valid until the next
    // mutation of the matcher.
    [[nodiscard]] const UnexpectedMsg* peek_unexpected(Tag tag, Tag mask);

    [[nodiscard]] std::size_t posted_size() const noexcept { return posted_count_; }
    [[nodiscard]] std::size_t unexpected_size() const noexcept { return unex_.size(); }
    [[nodiscard]] bool empty() const noexcept {
        return posted_count_ == 0 && unex_.empty();
    }

    [[nodiscard]] const MatcherStats& local_stats() const noexcept { return stats_; }

    // Per-tag storage held right now, live or parked for reuse: hash
    // buckets, tag entries and list nodes. After every tag has drained it
    // is at most a constant, however many distinct tags went through.
    [[nodiscard]] std::size_t retained_tag_state() const noexcept;

private:
    struct PostedEntry {
        RequestId id = kInvalidRequest;
        Tag tag = 0;
        Tag mask = ~Tag{0};
        std::uint64_t seq = 0; // posting order, monotonic across all groups
    };
    // One group per distinct mask value; buckets keyed by (tag & mask) so
    // bucket equality <=> predicate acceptance for this mask. Each bucket
    // is a FIFO chain in posting order.
    using PostedMap = std::unordered_map<Tag, std::deque<PostedEntry>>;
    struct MaskGroup {
        Tag mask = ~Tag{0};
        PostedMap buckets;
    };

    using UnexList = std::list<UnexpectedMsg>;
    using UnexIndex = std::unordered_map<Tag, std::deque<UnexList::iterator>>;

    MaskGroup& group_for(Tag mask);
    // Drop drained bucket `b` of group `gi`, and the group once empty.
    void drop_posted_bucket(std::size_t gi, PostedMap::iterator b);
    void erase_unexpected(UnexList::iterator it);
    [[nodiscard]] UnexList::iterator find_unexpected(Tag tag, Tag mask);
    void note_probe(std::uint64_t scanned);

    std::uint64_t next_seq_ = 1;
    std::size_t posted_count_ = 0;

    std::vector<MaskGroup> groups_;
    // Parked for reuse (each bounded): drained posted chains with their
    // hash nodes, and the tables of emptied mask groups.
    std::vector<PostedMap::node_type> spare_posted_;
    std::vector<PostedMap> spare_tables_;

    // Master unexpected list in arrival order ...
    UnexList unex_;
    // ... plus a per-tag FIFO index into it.
    UnexIndex unex_by_tag_;
    // Parked for reuse (each bounded): matched messages' list nodes and
    // drained tags' index nodes.
    UnexList spare_unex_;
    std::vector<UnexIndex::node_type> spare_unex_tags_;

    MatcherStats stats_;
};

} // namespace mpicd::ucx

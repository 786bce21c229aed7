#include "ucx/matcher.hpp"

#include <cassert>

#include "base/metrics.hpp"

namespace mpicd::ucx {

namespace {

// Distribution of entries examined per match attempt: the number of mask
// groups (posted side) or the scan position in the arrival list (wildcard
// unexpected side). Looked up once — the registry lookup takes a lock.
Histogram& probe_len_hist() {
    static Histogram& h = metrics().histogram("match", "probe_len");
    return h;
}

// Recycling bounds: drained tags' hash nodes (with their chains) and
// matched messages' list nodes kept per side, emptied mask-group tables
// kept, and the bucket count above which a sparse table is shrunk.
constexpr std::size_t kSpareTags = 64;
constexpr std::size_t kSpareMsgs = 64;
constexpr std::size_t kSpareTables = 4;
constexpr std::size_t kMaxIdleBuckets = 1024;

// The bucket of a tag not yet in `map`, built from a parked node when one
// is spare (the node keeps its chain's storage) instead of a new one.
template <class Map>
typename Map::iterator insert_recycled(Map& map,
                                       std::vector<typename Map::node_type>& spare,
                                       Tag key) {
    if (spare.empty()) return map.try_emplace(key).first;
    typename Map::node_type node = std::move(spare.back());
    spare.pop_back();
    node.key() = key;
    return map.insert(std::move(node)).position;
}

// Remove a drained bucket, parking its node while the pool has room, and
// shrink a table left mostly empty by a burst of distinct tags.
template <class Map>
void park_drained(Map& map, std::vector<typename Map::node_type>& spare,
                  typename Map::iterator it) {
    if (spare.size() < kSpareTags) {
        spare.push_back(map.extract(it));
    } else {
        map.erase(it);
    }
    if (map.bucket_count() > kMaxIdleBuckets && map.size() * 8 < map.bucket_count())
        map.rehash(0);
}

} // namespace

TagMatcher::TagMatcher() {
    spare_posted_.reserve(kSpareTags);
    spare_tables_.reserve(kSpareTables);
    spare_unex_tags_.reserve(kSpareTags);
}

TagMatcher::~TagMatcher() {
    // Fold the counters into the process-wide registry so BENCH_*.json
    // snapshots aggregate every matcher that ever lived.
    MetricsRegistry& m = metrics();
    m.add("match", "probes", stats_.probes);
    m.add("match", "scanned_entries", stats_.scanned_entries);
    m.add("match", "posted_matches", stats_.posted_matches);
    m.add("match", "unexpected_matches", stats_.unexpected_matches);
    m.add("match", "wildcard_hits", stats_.wildcard_hits);
}

void TagMatcher::note_probe(std::uint64_t scanned) {
    ++stats_.probes;
    stats_.scanned_entries += scanned;
    probe_len_hist().record(scanned);
}

TagMatcher::MaskGroup& TagMatcher::group_for(Tag mask) {
    for (auto& g : groups_) {
        if (g.mask == mask) return g;
    }
    PostedMap table;
    if (!spare_tables_.empty()) {
        table = std::move(spare_tables_.back());
        spare_tables_.pop_back();
    }
    groups_.push_back(MaskGroup{mask, std::move(table)});
    return groups_.back();
}

void TagMatcher::post_recv(RequestId id, Tag tag, Tag mask) {
    MaskGroup& g = group_for(mask);
    auto bucket = g.buckets.find(tag & mask);
    if (bucket == g.buckets.end())
        bucket = insert_recycled(g.buckets, spare_posted_, tag & mask);
    bucket->second.push_back(PostedEntry{id, tag, mask, next_seq_++});
    ++posted_count_;
}

void TagMatcher::drop_posted_bucket(std::size_t gi, PostedMap::iterator b) {
    MaskGroup& g = groups_[gi];
    park_drained(g.buckets, spare_posted_, b);
    if (!g.buckets.empty()) return;
    if (spare_tables_.size() < kSpareTables) spare_tables_.push_back(std::move(g.buckets));
    // Groups are unordered (arbitration is by sequence): swap-and-pop.
    if (gi + 1 != groups_.size()) g = std::move(groups_.back());
    groups_.pop_back();
}

std::optional<RequestId> TagMatcher::match_posted(Tag incoming) {
    // Each group contributes at most one candidate (its bucket
    // front, the earliest-posted entry for this mask); the smallest posting
    // sequence across groups wins — exactly posting order.
    std::uint64_t scanned = 0;
    std::size_t best_group = groups_.size();
    Tag best_key = 0;
    std::uint64_t best_seq = 0;
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        ++scanned;
        auto& g = groups_[gi];
        const auto it = g.buckets.find(incoming & g.mask);
        if (it == g.buckets.end()) continue;
        assert(!it->second.empty());
        const PostedEntry& front = it->second.front();
        if (best_group == groups_.size() || front.seq < best_seq) {
            best_group = gi;
            best_key = it->first;
            best_seq = front.seq;
        }
    }
    note_probe(scanned);
    if (best_group == groups_.size()) return std::nullopt;
    MaskGroup& g = groups_[best_group];
    auto bucket = g.buckets.find(best_key);
    const RequestId id = bucket->second.front().id;
    if (g.mask != ~Tag{0}) ++stats_.wildcard_hits;
    bucket->second.pop_front();
    if (bucket->second.empty()) drop_posted_bucket(best_group, bucket);
    --posted_count_;
    ++stats_.posted_matches;
    return id;
}

bool TagMatcher::cancel_posted(RequestId id, Tag tag, Tag mask) {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        MaskGroup& g = groups_[gi];
        if (g.mask != mask) continue;
        const auto bucket = g.buckets.find(tag & mask);
        if (bucket == g.buckets.end()) return false;
        auto& chain = bucket->second;
        for (auto it = chain.begin(); it != chain.end(); ++it) {
            if (it->id != id) continue;
            chain.erase(it);
            if (chain.empty()) drop_posted_bucket(gi, bucket);
            --posted_count_;
            return true;
        }
        return false;
    }
    return false;
}

void TagMatcher::add_unexpected(UnexpectedMsg&& msg) {
    if (spare_unex_.empty()) {
        unex_.push_back(std::move(msg));
    } else {
        unex_.splice(unex_.end(), spare_unex_, spare_unex_.begin());
        unex_.back() = std::move(msg);
    }
    const auto it = std::prev(unex_.end());
    auto bucket = unex_by_tag_.find(it->tag);
    if (bucket == unex_by_tag_.end())
        bucket = insert_recycled(unex_by_tag_, spare_unex_tags_, it->tag);
    bucket->second.push_back(it);
}

TagMatcher::UnexList::iterator TagMatcher::find_unexpected(Tag tag, Tag mask) {
    if (mask == ~Tag{0}) {
        // Exact tag: O(1) — the bucket front is the earliest arrival of
        // this tag, and equal-tag messages are interchangeable under any
        // predicate.
        const auto b = unex_by_tag_.find(tag);
        note_probe(1);
        if (b == unex_by_tag_.end()) return unex_.end();
        assert(!b->second.empty());
        return b->second.front();
    }
    // Wildcard: earliest arrival wins, so scan the master
    // list in arrival order.
    std::uint64_t scanned = 0;
    for (auto it = unex_.begin(); it != unex_.end(); ++it) {
        ++scanned;
        if (tag_matches(tag, mask, it->tag)) {
            note_probe(scanned);
            return it;
        }
    }
    note_probe(scanned);
    return unex_.end();
}

void TagMatcher::erase_unexpected(UnexList::iterator it) {
    // Bucket-front invariant: whichever predicate selected `it`, it is the
    // earliest arrival of its tag, hence the front of its bucket.
    const auto b = unex_by_tag_.find(it->tag);
    assert(b != unex_by_tag_.end() && !b->second.empty() &&
           b->second.front() == it);
    b->second.pop_front();
    if (b->second.empty()) park_drained(unex_by_tag_, spare_unex_tags_, b);
    if (spare_unex_.size() < kSpareMsgs) {
        it->payload = PooledBuf{}; // a parked node pins no slab
        spare_unex_.splice(spare_unex_.end(), unex_, it);
    } else {
        unex_.erase(it);
    }
}

std::optional<UnexpectedMsg> TagMatcher::take_unexpected(Tag tag, Tag mask) {
    const auto it = find_unexpected(tag, mask);
    if (it == unex_.end()) return std::nullopt;
    if (mask != ~Tag{0}) ++stats_.wildcard_hits;
    ++stats_.unexpected_matches;
    UnexpectedMsg out = std::move(*it);
    erase_unexpected(it);
    return out;
}

const UnexpectedMsg* TagMatcher::peek_unexpected(Tag tag, Tag mask) {
    const auto it = find_unexpected(tag, mask);
    return it == unex_.end() ? nullptr : &*it;
}

std::size_t TagMatcher::retained_tag_state() const noexcept {
    std::size_t n = spare_posted_.size() + spare_unex_tags_.size() + spare_unex_.size() +
                    unex_.size() + unex_by_tag_.size() + unex_by_tag_.bucket_count();
    for (const MaskGroup& g : groups_) n += g.buckets.size() + g.buckets.bucket_count();
    for (const PostedMap& t : spare_tables_) n += t.bucket_count();
    return n;
}

} // namespace mpicd::ucx

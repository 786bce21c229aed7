#include "netsim/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "base/metrics.hpp"
#include "base/trace.hpp"

namespace mpicd::netsim {

namespace {

// All cross-node traffic between a node pair shares one uplink serializer
// per rail (link_free_slot), so a transfer can queue behind unrelated
// traffic. wire/uplink_wait_ns records that queuing delay for EVERY
// cross-node transfer (zeros included — the count is the transfer count,
// the sum the contention); a fabric.uplink_wait trace instant fires only
// when the wait is non-zero. This is what decomposes a hier-vs-flat
// collective win into "fewer uplink messages" vs "less queuing".
void record_uplink_wait(SimTime wait_us, SimTime start, Count wire_bytes) {
    static Histogram& h = metrics().histogram("wire", "uplink_wait_ns");
    const double wait_ns = wait_us * 1000.0;
    h.record(wait_ns > 0.0 ? static_cast<std::uint64_t>(wait_ns) : 0);
    if (wait_us > 0.0 && trace::enabled()) {
        // vt = serialization start; callers emit under the owning message's
        // MsgScope so the wait lands inside that message's span tree.
        trace::instant("fabric", "uplink_wait", start, "wait_ns",
                       static_cast<std::uint64_t>(wait_ns), "bytes",
                       static_cast<std::uint64_t>(wire_bytes));
    }
}

} // namespace

Fabric::Fabric(int num_endpoints, WireParams params, FaultConfig faults)
    : params_(params),
      inboxes_(static_cast<std::size_t>(num_endpoints)),
      link_free_at_(static_cast<std::size_t>(num_endpoints) *
                        static_cast<std::size_t>(num_endpoints) *
                        static_cast<std::size_t>(std::max(1, params.rails)),
                    0.0),
      injector_(num_endpoints, faults),
      limbo_(static_cast<std::size_t>(num_endpoints) *
             static_cast<std::size_t>(num_endpoints)) {
    assert(num_endpoints > 0);
    if (params_.ranks_per_node > 0) {
        node_count_ = static_cast<std::size_t>(
            (num_endpoints + params_.ranks_per_node - 1) / params_.ranks_per_node);
        node_link_free_at_.assign(node_count_ * node_count_ *
                                      static_cast<std::size_t>(
                                          std::max(1, params_.rails)),
                                  0.0);
    }
}

Fabric::~Fabric() {
    const FaultCounters& c = injector_.counters();
    if (c.packets_seen == 0) return; // injector never ran: keep groups clean
    MetricsRegistry& m = metrics();
    m.add("fault", "packets_seen", c.packets_seen);
    m.add("fault", "dropped", c.dropped);
    m.add("fault", "duplicated", c.duplicated);
    m.add("fault", "reordered", c.reordered);
    m.add("fault", "corrupted", c.corrupted);
    m.add("fault", "delayed", c.delayed);
}

void Fabric::push_locked(Packet&& pkt) {
    inboxes_[static_cast<std::size_t>(pkt.dst)].q.push_back(std::move(pkt));
}

void Fabric::deliver_locked(Packet&& pkt) {
    if (!injector_.active()) {
        push_locked(std::move(pkt));
        return;
    }
    const auto d = injector_.decide(
        pkt.src, pkt.dst, pkt.kind,
        static_cast<std::uint64_t>(pkt.header.size() + pkt.payload.size()));
    if (trace::enabled()) {
        if (d.drop) {
            trace::instant("net", "fault_drop", pkt.arrival, "kind", pkt.kind,
                           "seq", pkt.link_seq);
        }
        if (d.duplicate) {
            trace::instant("net", "fault_dup", pkt.arrival, "kind", pkt.kind,
                           "seq", pkt.link_seq);
        }
        if (d.reorder) {
            trace::instant("net", "fault_reorder", pkt.arrival, "kind",
                           pkt.kind, "seq", pkt.link_seq);
        }
        if (d.corrupt) {
            trace::instant("net", "fault_corrupt", pkt.arrival, "kind",
                           pkt.kind, "byte", d.corrupt_byte);
        }
        if (d.extra_delay_us > 0.0) {
            trace::instant("net", "fault_delay", pkt.arrival, "kind", pkt.kind,
                           "seq", pkt.link_seq);
        }
    }
    pkt.arrival += d.extra_delay_us;
    if (d.corrupt) {
        // Flip one bit of the concatenated header+payload bytes. The crc
        // field is deliberately left intact so the receiver can detect the
        // damage (a corrupted on-wire CRC is equivalent to a drop anyway).
        std::uint64_t i = d.corrupt_byte;
        std::byte* b = nullptr;
        if (i < pkt.header.size()) {
            b = &pkt.header[static_cast<std::size_t>(i)];
        } else if (i - pkt.header.size() < pkt.payload.size()) {
            // The payload slab may be shared with the sender's retransmit
            // queue; detach before flipping so the pristine copy survives
            // to be retransmitted.
            pkt.payload.ensure_unique();
            b = &pkt.payload[static_cast<std::size_t>(i - pkt.header.size())];
        }
        if (b != nullptr) *b ^= static_cast<std::byte>(1u << d.corrupt_bit);
    }
    // A packet leaving limbo has waited for exactly one successor on its
    // link; release it after the current packet is enqueued (the swap).
    const std::size_t l = static_cast<std::size_t>(pkt.src) * inboxes_.size() +
                          static_cast<std::size_t>(pkt.dst);
    std::optional<Packet> release;
    if (limbo_[l].has_value()) {
        release = std::move(*limbo_[l]);
        limbo_[l].reset();
    }
    if (!d.drop) {
        if (d.duplicate) {
            Packet copy = pkt; // same link_seq/crc: receiver dedups
            copy.arrival += params_.link_latency(pkt.src, pkt.dst);
            copy.seq = next_seq_++;
            if (d.reorder) {
                limbo_[l] = std::move(pkt);
                push_locked(std::move(copy));
            } else {
                push_locked(std::move(pkt));
                push_locked(std::move(copy));
            }
        } else if (d.reorder) {
            limbo_[l] = std::move(pkt);
        } else {
            push_locked(std::move(pkt));
        }
    }
    if (release.has_value()) push_locked(std::move(*release));
}

void Fabric::flush_limbo_locked(int ep) {
    for (auto& slot : limbo_) {
        if (slot.has_value() && slot->dst == ep) {
            push_locked(std::move(*slot));
            slot.reset();
        }
    }
}

SimTime Fabric::transmit(Packet&& pkt, SimTime ready, Count wire_bytes,
                         Count sg_entries, int rail) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& free_at = link_free_slot(pkt.src, pkt.dst, rail);
    const SimTime avail = ready + params_.sg_overhead(sg_entries);
    const SimTime start = std::max(avail, free_at);
    const SimTime end = start + params_.serialize_time_on(wire_bytes, pkt.src, pkt.dst);
    free_at = end;
    pkt.arrival = end + params_.link_latency(pkt.src, pkt.dst);
    pkt.seq = next_seq_++;
    const SimTime arrival = pkt.arrival;
    // Attribute this packet's events (tx + any fault instants from
    // deliver_locked) to the owning message, including retransmits fired
    // from timer context where no caller scope is open. Unattributed
    // packets keep whatever scope the caller holds.
    const trace::MsgScope msg_scope(
        pkt.msg_id != 0 ? pkt.msg_id : trace::current_msg());
    if (params_.cross_node(pkt.src, pkt.dst))
        record_uplink_wait(start - avail, start, wire_bytes);
    trace::instant("net", "tx", arrival, "kind", pkt.kind, "bytes",
                   static_cast<std::uint64_t>(wire_bytes));
    deliver_locked(std::move(pkt));
    return arrival;
}

SimTime Fabric::transmit_control(Packet&& pkt, SimTime ready) {
    const std::lock_guard<std::mutex> lock(mutex_);
    pkt.arrival = ready + params_.link_latency(pkt.src, pkt.dst);
    pkt.seq = next_seq_++;
    const SimTime arrival = pkt.arrival;
    const trace::MsgScope msg_scope(
        pkt.msg_id != 0 ? pkt.msg_id : trace::current_msg());
    trace::instant("net", "tx_ctrl", arrival, "kind", pkt.kind, "seq",
                   pkt.link_seq);
    deliver_locked(std::move(pkt));
    return arrival;
}

std::optional<Packet> Fabric::poll(int ep) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& inbox = inboxes_[static_cast<std::size_t>(ep)];
    if (inbox.q.empty()) {
        // An empty poll releases any reorder-limbo packet for this
        // endpoint so a held packet can never be delayed unboundedly.
        flush_limbo_locked(ep);
        if (inbox.q.empty()) return std::nullopt;
    }
    Packet pkt = std::move(inbox.q.front());
    inbox.q.pop_front();
    return pkt;
}

bool Fabric::inbox_empty(int ep) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& inbox = inboxes_[static_cast<std::size_t>(ep)];
    if (inbox.q.empty()) flush_limbo_locked(ep);
    return inbox.q.empty();
}

SimTime Fabric::rdma_write(int src_ep, int dst_ep, const void* src, void* dst,
                           Count bytes, SimTime ready) {
    std::memcpy(dst, src, static_cast<std::size_t>(bytes));
    datapath::add_copied(bytes);
    return rdma_cost(src_ep, dst_ep, bytes, 1, ready);
}

SimTime Fabric::rdma_cost(int src_ep, int dst_ep, Count bytes, Count sg_entries,
                          SimTime ready, int rail) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& free_at = link_free_slot(src_ep, dst_ep, rail);
    const SimTime avail = ready + params_.sg_overhead(sg_entries);
    const SimTime start = std::max(avail, free_at);
    const SimTime end = start + params_.serialize_time_on(bytes, src_ep, dst_ep);
    free_at = end;
    // rdma_cost runs synchronously under the caller's MsgScope, so the
    // uplink-wait instant is attributed to the rendezvous message.
    if (params_.cross_node(src_ep, dst_ep))
        record_uplink_wait(start - avail, start, bytes);
    return end + params_.link_latency(src_ep, dst_ep);
}

void Fabric::reset_time() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& t : link_free_at_) t = 0.0;
    for (auto& t : node_link_free_at_) t = 0.0;
}

} // namespace mpicd::netsim

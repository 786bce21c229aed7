// Worker: UCP-like tagged communication endpoint over the simulated fabric.
//
// Protocols, chosen per message exactly as the paper describes for its
// UCX-based prototype:
//  - eager   (payload < eager_threshold): one packet; the receive side pays
//    a host bounce-buffer copy (or the generic unpack callback);
//  - rendezvous: RTS -> CTS handshake, then either
//      * RDMA when the receive side exposes raw memory (CONTIG / IOV): the
//        sender writes straight into the receiver's regions (DMA, or a
//        bounce fragment packed by a generic source) and sends a FIN, or
//      * a fragment pipeline when the receive side is GENERIC: pack and
//        unpack callbacks run per fragment with virtual offsets, the
//        paper's Listing 4 contract.
// Multi-region messages pay a per-entry scatter-gather cost
// (UCP_DATATYPE_IOV equivalent).
//
// Each protocol step has one implementation, shared by all three
// protocols; what remains in the eager, RDMA and pipeline code is what
// differs between them:
//  - packet_to()          builds every outgoing data/control packet;
//  - pack_locked()        one source read: measured pack time, throughput
//                         and fragment-size metrics, empty read = err_pack;
//  - unpack_locked()      one sink write: modeled copy or measured callback;
//  - finish_send_locked() completes a send now, or once every packet it
//                         owns is acknowledged (reliable mode);
//  - handle_arrival_locked() turns an eager packet or RTS into an
//    UnexpectedMsg that deliver_locked() hands to a posted receive (also
//    used by tag_recv and imrecv) or the matcher parks.
// Tag matching is delegated to TagMatcher (ucx/matcher.hpp): hashed
// mask-group buckets. See docs/MATCHING.md.
//
// Thread-safety: the protocol state machines run under one mutex, but the
// hot cross-thread paths are finely locked so rank threads driving their
// own progress() do not serialize on it:
//  - progress() itself is serialized per worker by an atomic busy flag
//    (a concurrent caller returns immediately), which also keeps packet
//    admission in arrival order;
//  - inbound CRC verification and duplicate suppression run outside the
//    main mutex against per-peer shards;
//  - each completion record lives in its request's slot and is published
//    with one release store, so is_complete()/take_completion() read it
//    with an acquire load and never touch the protocol mutex.
//
// Requests live in a slot table and are recycled: a RequestId names a
// slot and that slot's generation, so an id kept after its request was
// taken (or cancelled) never names the next request in the slot. With the
// matcher's recycled storage and inline packet headers, an eager message
// makes no heap allocation in the worker in steady state.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "netsim/fabric.hpp"
#include "ucx/datatype.hpp"
#include "ucx/engine.hpp"
#include "ucx/matcher.hpp"
#include "ucx/wire.hpp"

namespace mpicd::ucx {

struct Completion {
    Status status = Status::success;
    Count received_len = 0; // bytes that arrived (recv side)
    Tag sender_tag = 0;
    SimTime vtime = 0.0; // virtual completion time
    // Message id of the operation (trace::next_msg_id(); on the receive
    // side, adopted from the sender's packets). Lets the caller run
    // deferred work — e.g. the p2p layer's custom unpack — under the same
    // message scope the wire events were attributed to.
    std::uint64_t msg_id = 0;
};

struct ProbeInfo {
    Tag tag = 0;
    Count total_len = 0;
    int src = -1;
};

// Per-worker protocol counters (diagnostics; used by tests to assert which
// protocol path a transfer took and exactly what the reliable-delivery
// protocol did under injected faults).
struct WorkerStats {
    std::uint64_t eager_sends = 0;
    std::uint64_t rndv_sends = 0;
    std::uint64_t rndv_rdma = 0;     // zero-copy rendezvous completions (send side)
    std::uint64_t rndv_pipeline = 0; // pipelined rendezvous completions (send side)
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t unexpected_msgs = 0; // messages queued before a recv matched
    std::uint64_t recv_completions = 0;
    // Reliable-delivery protocol counters (all zero when the fault layer is
    // inactive; see docs/FAULTS.md).
    std::uint64_t retransmits = 0;            // packets re-sent after RTO expiry
    std::uint64_t duplicates_suppressed = 0;  // already-seen link_seq discarded
    std::uint64_t corruption_detected = 0;    // CRC mismatches discarded
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t timeouts = 0;               // ops failed with Status::timeout
};

// Handle returned by mprobe(): the matched message is removed from the
// matching queues and can only be received via imrecv().
struct MessageHandle {
    std::uint64_t id = 0;
    ProbeInfo info;
    [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

class Worker {
public:
    // Registers a flight-recorder dump source for this endpoint (see
    // base/flight_recorder.hpp); the destructor unregisters it and folds
    // the protocol counters into the metrics registry.
    Worker(netsim::Fabric& fabric, int endpoint);
    ~Worker();
    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;

    [[nodiscard]] int endpoint() const noexcept { return ep_; }
    [[nodiscard]] netsim::Fabric& fabric() noexcept { return fabric_; }

    // Virtual clock access (thread-safe).
    [[nodiscard]] SimTime now();
    void advance_time(SimTime dt);

    // Nonblocking tagged send/recv. The BufferDesc is taken by value and
    // owned by the request until completion.
    RequestId tag_send(int dst, Tag tag, BufferDesc desc);
    RequestId tag_recv(Tag tag, Tag mask, BufferDesc desc);

    // Drain the endpoint inbox, advance protocol state machines and fire
    // any due reliable-delivery timers (retransmit / timeout).
    // Returns true if any packet was processed or timer fired. Serialized
    // per worker: a call that finds another thread already progressing
    // this worker returns false immediately instead of blocking, so rank
    // threads can opportunistically help peers without contending.
    bool progress();

    // True while some thread is inside progress() on this worker. Used by
    // Universe::escalate_timers to refuse a virtual-time jump when a rank
    // thread may still be holding undelivered packets.
    [[nodiscard]] bool progress_active() const noexcept {
        return progress_busy_.load(std::memory_order_acquire);
    }

    // Progress hooks: state machines (e.g. nonblocking collectives, see
    // src/p2p/coll/) that must advance whenever this endpoint is driven.
    // Hooks run at the tail of every progress() pass, after the packet
    // drain and timer pump, while the busy flag is still held — so a hook
    // observes a quiesced protocol state and is never run concurrently
    // with itself on this worker. A hook returns true when it made
    // progress (folded into progress()'s return value). Hooks must not
    // call progress() on THIS worker (the busy flag makes such a call a
    // harmless no-op) and must not assume any worker lock is held: the
    // protocol mutex is released before hooks run, so hooks may freely
    // post sends/recvs and poll completions. Returns a token for
    // remove_progress_hook(); removal is safe from any thread, including
    // from inside the hook itself.
    std::uint64_t add_progress_hook(std::function<bool()> fn);
    void remove_progress_hook(std::uint64_t token);

    // Earliest pending virtual-time timer (retransmit deadline or
    // receiver-side operation watchdog); +infinity when none. Used by
    // Universe::progress to jump virtual time when the fabric is
    // quiescent so a lost packet can never stall the simulation.
    [[nodiscard]] SimTime next_timer();
    // Move this worker's clock forward to at least `t` (timer escalation).
    void observe_time(SimTime t);

    // True once request `id` has completed and until its completion is
    // taken; false for an id already taken or cancelled.
    [[nodiscard]] bool is_complete(RequestId id);
    // Retrieve the completion record of a finished request and recycle its
    // slot; `id` is stale afterwards.
    [[nodiscard]] Completion take_completion(RequestId id);

    // Cancel a pending (unmatched) receive request and recycle its slot;
    // returns false if the request already matched a message, completed,
    // or `id` is stale.
    bool cancel_recv(RequestId id);

    // Non-destructive probe of the unexpected queue.
    [[nodiscard]] std::optional<ProbeInfo> probe(Tag tag, Tag mask);
    // Matched probe: removes the message from matching (MPI_Mprobe model).
    [[nodiscard]] std::optional<MessageHandle> mprobe(Tag tag, Tag mask);
    // Receive a previously mprobe()d message.
    RequestId imrecv(const MessageHandle& handle, BufferDesc desc);

    // True when no requests, unexpected messages or protocol state remain.
    [[nodiscard]] bool idle();

    // Snapshot of the protocol counters.
    [[nodiscard]] WorkerStats stats();

private:
    struct Request;

    // --- Request slot table. Slots never move: chunk k holds
    // kFirstChunk << k of them and is allocated once, so the table grows
    // while other threads read published completions. A RequestId is
    // (generation << 32) | (slot index + 1).
    static constexpr std::uint32_t kFirstChunk = 16;
    static constexpr std::size_t kChunks = 29; // every 32-bit slot index
    // The slot an id names (any generation); nullptr when it names none.
    [[nodiscard]] Request* slot_of(RequestId id) const noexcept;
    // The request `id` names while it is in flight; nullptr once it has
    // completed or when `id` is stale.
    [[nodiscard]] Request* find_locked(RequestId id) const noexcept;
    // Start a request with a fresh id in a recycled (or new) slot.
    Request& add_request_locked(Tag tag, BufferDesc&& desc);
    // Fill the completion record, release the operation's state and
    // publish the record; from then on the slot is the taker's to recycle.
    void complete_locked(Request& rq, Status st, Count len, Tag sender_tag);

    void start_send_locked(Request& rq);
    // Every outgoing data/control packet: addressed from this endpoint and
    // stamped with the request's message id and sender post time.
    [[nodiscard]] netsim::Packet packet_to(int dst, std::uint16_t kind,
                                           netsim::PacketHeader header,
                                           const Request& rq) const;
    // Read dst.size() bytes at `offset` from the send source, charging the
    // measured pack time; an empty read where bytes were asked is err_pack.
    Status pack_locked(Request& rq, Count offset, MutBytes dst, Count* used);
    // Write `bytes` at `offset` into the receive sink, charging the modeled
    // copy (memory sink) or the measured unpack callback (generic sink).
    Status unpack_locked(Request& rq, Count offset, ConstBytes bytes);
    // Complete a send with (st, len), or defer to the ack of its last
    // owned packet when the reliable protocol has any outstanding.
    void finish_send_locked(Request& rq, Status st, Count len);

    void handle_packet_locked(netsim::Packet&& pkt);
    // Eager packet or RTS: deliver to a posted receive or park unexpected.
    void handle_arrival_locked(netsim::Packet&& pkt);
    void handle_cts_locked(netsim::Packet&& pkt);
    void handle_fin_locked(netsim::Packet&& pkt);
    void handle_frag_locked(netsim::Packet&& pkt);

    // --- Reliable-delivery sublayer (active only when the fault injector
    // is active or MPICD_RELIABLE=1; see docs/FAULTS.md). ---
    // Outgoing packet wrapper: numbers, checksums and records the packet
    // for retransmission when the reliable protocol is on, then transmits.
    void send_packet_locked(netsim::Packet&& pkt, SimTime ready, Count wire_bytes,
                            Count sg_entries, int rail, bool control,
                            Request* owner);
    // Inbound filter for numbered data packets: verifies CRC and
    // suppresses duplicates against the per-peer shard — WITHOUT taking
    // the protocol mutex. Returns false when the packet was consumed.
    bool admit_data_packet(netsim::Packet& pkt);
    void handle_ack_locked(const netsim::Packet& pkt);
    // Acknowledge `pkt`, sent at virtual time `at`. Needs no protocol lock:
    // admission re-acks duplicates with it too.
    void send_ack(const netsim::Packet& pkt, SimTime at);
    // Fire due retransmit timers and operation watchdogs; returns true if
    // anything fired.
    bool fire_timers_locked();
    [[nodiscard]] SimTime next_timer_locked() const;
    // Fail an in-flight request (retries exhausted / watchdog expired),
    // releasing all protocol state that references it.
    void fail_request_locked(RequestId id, Status st);
    void refresh_reliable_locked();

    // Adopt a matched eager payload / RTS into a posted receive request:
    // take its message id, build the sink, then run the protocol's match.
    void deliver_locked(Request& rq, UnexpectedMsg&& u);
    void match_eager_locked(Request& rq, const UnexpectedMsg& u);
    void match_rts_locked(Request& rq, const UnexpectedMsg& u);
    // Record how long an unexpected message waited for its receive.
    void note_unexpected_dwell_locked(const UnexpectedMsg& u);

    // Counters with the admission-context atomics folded in.
    [[nodiscard]] WorkerStats stats_locked() const;

    // Flight-recorder dump of this worker's protocol state (in-flight
    // request table, retransmit queue, per-peer dedup/rendezvous state).
    // Caller must hold (or be unable to ever share) mutex_.
    void dump_state_locked(std::FILE* out) const;
    // The same dump for triggers that do not hold mutex_: try_lock, and
    // report the worker as busy rather than deadlock.
    void dump_state_try_lock(std::FILE* out);

    netsim::Fabric& fabric_;
    const netsim::WireParams& params_;
    int ep_;

    std::mutex mutex_;
    netsim::VirtualClock clock_;
    // Rendezvous protocol op ids and mprobe handles (worker-local; the
    // process-unique *message* ids come from trace::next_msg_id()).
    std::uint64_t next_op_id_ = 1;

    // Slot table (see slot_of). Chunk pointers are written under mutex_
    // and read lock-free by is_complete()/take_completion().
    std::atomic<Request*> chunks_[kChunks] = {};
    std::uint32_t slots_made_ = 0; // slots handed out at least once
    // Free slots as intrusive lists of (index + 1), 0 = empty: one the
    // protocol side pops and pushes under mutex_, and one that
    // take_completion() pushes onto lock-free and the protocol side
    // drains whole.
    std::uint32_t free_head_ = 0;
    std::atomic<std::uint32_t> returned_head_{0};
    // Requests started and not yet taken or cancelled.
    std::atomic<std::size_t> live_requests_{0};
    // Posted-but-unmatched receives and unexpected messages.
    TagMatcher matcher_;
    // Matched-by-mprobe messages awaiting imrecv.
    std::unordered_map<std::uint64_t, UnexpectedMsg> mprobed_;
    // Sender-side rendezvous operations waiting for CTS, by sender op id.
    std::unordered_map<std::uint64_t, RequestId> rndv_sends_;
    // Receiver-side operations waiting for FIN/fragments, by receiver op id.
    std::unordered_map<std::uint64_t, RequestId> rndv_recvs_;

    // --- Reliable-delivery state. ---
    // Latched on: once the fabric reports a fault layer / forced
    // reliability, this worker numbers and acknowledges packets for the
    // rest of its lifetime (reliability never switches off mid-run).
    bool reliable_ = false;
    std::uint64_t next_link_seq_ = 1;
    // Unacknowledged outgoing packets by link_seq: the retransmit record
    // and its backoff schedule in virtual time. The payload inside `pkt`
    // is a PooledBuf, so with the pool enabled this record *shares* the
    // transmitted packet's slab instead of duplicating the bytes.
    struct PendingTx {
        netsim::Packet pkt;
        bool control = false;
        Count wire_bytes = 0;
        Count sg_entries = 1;
        int rail = 0;
        int retries = 0;
        SimTime rto = 0.0;        // current backoff interval
        SimTime next_retry = 0.0; // virtual deadline for the next attempt
        RequestId owner = kInvalidRequest;
    };
    std::unordered_map<std::uint64_t, PendingTx> pending_tx_;

    // Per-peer admission shard: the set of delivered link_seq values
    // (duplicate suppression), guarded by its own mutex so inbound
    // filtering never touches the protocol mutex. Leaf lock: never held
    // while acquiring any other lock. A deque so elements never move.
    struct PeerShard {
        mutable std::mutex mu;
        std::unordered_set<std::uint64_t> seen;
    };
    std::deque<PeerShard> shards_;
    // Admission-context counters (outside the protocol mutex); folded into
    // stats() snapshots.
    std::atomic<std::uint64_t> adm_dups_{0};
    std::atomic<std::uint64_t> adm_corruption_{0};
    std::atomic<std::uint64_t> acks_sent_{0}; // every ack, locked or not

    // progress() serialization (see above).
    std::atomic<bool> progress_busy_{false};

    // Progress hooks (see add_progress_hook). The runner iterates a
    // snapshot of shared_ptrs taken under hooks_mutex_, so a hook being
    // removed concurrently still finishes its in-flight invocation and a
    // hook may remove itself. hooks_present_ keeps the common no-hooks
    // path to a single relaxed load. Leaf state: hooks_mutex_ is never
    // held while running a hook or taking any other worker lock.
    bool run_hooks();
    std::mutex hooks_mutex_;
    std::vector<std::pair<std::uint64_t, std::shared_ptr<std::function<bool()>>>>
        hooks_;
    std::uint64_t next_hook_token_ = 1;
    std::atomic<bool> hooks_present_{false};

    WorkerStats stats_;
    std::uint64_t flight_token_ = 0; // flight-recorder source registration
};

} // namespace mpicd::ucx

// CollOp / CollRequest: the one collective executor.
//
// Every collective — blocking or not, fixed-size or v-variant — is a
// Schedule (coll/schedule.hpp) produced by a pure builder; CollOp runs it.
// It posts point-to-point steps on the communicator's reserved collective
// tag plane (Communicator::coll_*) round by round and is advanced from two
// places:
//  - a worker progress hook (ucx::Worker::add_progress_hook), so a
//    collective keeps moving whenever this rank's endpoint is progressed —
//    including when the rank is busy with unrelated p2p traffic, which is
//    what makes the nonblocking collectives overlap with p2p work;
//  - CollRequest::test()/wait(), which also drive Universe::progress so a
//    rank blocked only on the collective still pumps the fabric.
//
// advance() is serialized by the op's own mutex; inside it only
// non-progressing completion polls (Request::poll), local round actions
// and new coll_* posts happen, so it is safe in hook context (worker busy
// flag held, protocol mutex released).
//
// Round accounting: entering a round runs its actions and posts its
// steps; a round that posts nothing is not counted — its actions run and
// the executor moves straight on to the next round. Once the schedule is
// exhausted and drained, one final (terminal) round is counted in which
// the op completes. So op_rounds = (rounds that posted) + 1.
//
// Observability (docs/OBSERVABILITY.md §collectives) lives here and only
// here: every op carries a process-unique op id — (communicator context
// << 32) | reserved tag block. Tag blocks come from the forward-only
// per-communicator epoch counter, which every rank advances in lockstep,
// so the SAME id names the same collective instance on every rank: one
// trace file groups all ranks' events of one op. With tracing on, the op
// emits coll.op_begin / coll.round / coll.step_send / coll.step_recv /
// coll.op_end instants, and each point-to-point step opens a fresh trace
// MsgScope so the message's whole packet/pack span tree hangs off the
// step. Always on (tracing or not): the coll/ops counter at launch,
// coll/leader_bytes from the received size of every cross-node step of a
// hierarchical op, coll/op_latency_ns_* and coll/op_rounds_* histograms
// at completion, and live ops register with the flight recorder so a
// collective timing out under fault injection dumps the op state table
// with per-peer round progress.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "p2p/coll/schedule.hpp"
#include "p2p/communicator.hpp"

namespace mpicd::p2p::coll {

class CollOp {
public:
    CollOp(Communicator& comm, Schedule sched);
    ~CollOp();
    CollOp(const CollOp&) = delete;
    CollOp& operator=(const CollOp&) = delete;

    // Advance the schedule: poll posted steps, enter the next round(s)
    // when the current one drained. Returns true if anything moved.
    // Thread-safe; never drives fabric progress.
    bool advance();

    [[nodiscard]] bool done() const noexcept {
        return done_.load(std::memory_order_acquire);
    }
    // First error any step completed with (success while running). Stable
    // once done() is true.
    [[nodiscard]] Status status() const noexcept {
        return status_.load(std::memory_order_acquire);
    }

    // Called by CollRequest::wait after a long streak of globally idle
    // progress calls: advances this rank's virtual clock so the loss
    // watchdog (armed only under an active fault injector) can fire even
    // when the whole fabric is quiescent — e.g. every peer's retransmit
    // budget is already exhausted and no timer remains to escalate to.
    void on_stall();

private:
    // Count one round (coll.round instant), then run schedule rounds until
    // one posts or the schedule is exhausted (mu_ held).
    void enter_round();
    // Post one step (coll.step_send / coll.step_recv instant under a fresh
    // MsgScope when tracing) and track it (mu_ held).
    void post(const Step& s);
    // Metrics + coll.op_end at the done transition (mu_ held).
    void complete_locked();
    // One line of op state + per-peer progress; mu_ must be held (or
    // known-unlocked via try_lock by the flight dump path).
    void dump_state(std::FILE* f);
    // Flight-recorder dump of every live op; `self` is the op whose mutex
    // the triggering thread already holds (dumped without locking), all
    // others are try_lock'ed and print "<busy>" when contended.
    static void dump_all(std::FILE* f, CollOp* self);

    Communicator& comm_;
    const Schedule sched_;
    const std::uint32_t base_tag_;
    const std::uint64_t op_id_;
    const SimTime begin_vtime_;
    std::mutex mu_;
    struct Posted {
        Request rq;
        const Step* step;
    };
    std::vector<Posted> pending_; // posted, not yet completed
    std::size_t next_round_ = 0; // schedule index of the next round to enter
    std::uint32_t rounds_run_ = 0;
    bool started_ = false;
    bool finishing_ = false;
    std::atomic<Status> status_{Status::success};
    std::atomic<bool> done_{false};
    // Loss watchdog (fault-injected fabrics only; 0 = disarmed). The
    // point-to-point reliability watchdogs cover a receive only once its
    // rendezvous started; a collective waiting on a peer that already gave
    // up (retransmit budget exhausted) or never entered would otherwise
    // wait forever on an eager receive no sender will ever satisfy. If no
    // posted step completes for `watchdog_us_` of virtual time, the op
    // fails with Status::timeout and ABANDONS its posted requests — safe
    // because the op's reserved tag block is never reused (the epoch
    // counter only moves forward), so an abandoned request can never
    // match later traffic, and its unmatched receives are withdrawn, so a
    // late peer's message cannot land in released buffers.
    SimTime watchdog_us_ = 0.0;
    SimTime last_move_vtime_ = 0.0;
};

// Handle to an in-flight collective. Copyable (shared state); composable:
// hold several and wait in any order, or pass a batch to wait_all below.
class CollRequest {
public:
    CollRequest() = default;

    [[nodiscard]] bool valid() const noexcept { return op_ != nullptr; }

    // Nonblocking completion check; progresses the universe once (the
    // worker progress hook advances the op as a side effect).
    [[nodiscard]] bool test();

    // Progress until complete; aborts after a long wall-clock interval
    // with no completion (a deadlock in test code). Returns the
    // collective's status. An invalid (default) request is err_arg.
    Status wait();

private:
    friend CollRequest launch(Communicator& comm, Schedule sched);
    friend CollRequest error_request(Status st);

    Universe* uni_ = nullptr;
    int ep_ = -1;
    std::shared_ptr<CollOp> op_;
    // Validation failed before any op was created (also the result of a
    // default-constructed request). No tag block was reserved, so a rank
    // failing local validation does not desynchronize the epoch counter.
    Status early_error_ = Status::err_arg;
};

// Start executing `sched`: reserve the op's tag block, enter its first
// round synchronously (so every rank's initial receives/sends are posted
// on entry, preserving collective entry order) and install a worker
// progress hook that keeps advancing it until done.
[[nodiscard]] CollRequest launch(Communicator& comm, Schedule sched);

// An already-failed request carrying a local validation error.
[[nodiscard]] CollRequest error_request(Status st);

// Wait for every collective request; returns the first non-success status
// (all requests are waited regardless).
[[nodiscard]] Status wait_all(std::span<CollRequest> requests);

} // namespace mpicd::p2p::coll

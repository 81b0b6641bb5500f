// The transport seam under Proc::send / Proc::poll.
//
// The thread backend needs no transport: a send is a locked push into the
// destination's in-memory mailbox.  Every other backend plugs in here: a
// Transport carries serialized Messages between ranks, and the Machine's
// send/poll/wait_for_mail paths route through it when one is installed.
//
// The delivery contract a transport must honor (established by the PR-3
// chaos/replay work, verified by the cross-backend conformance suite in
// tests/test_transport.cpp):
//
//   * per-sender FIFO: messages from one sender are delivered to a given
//     destination in send order (the dense per-(src, dst) Message::seq is
//     carried on the wire and re-checked at the receiver);
//   * completeness: no message is dropped or duplicated; the barrier flush
//     lemma (DESIGN.md, "Delivery model") then follows from FIFO plus the
//     centralized barrier protocol riding the same channel;
//   * liveness: a rank blocked in wait_for_mail wakes when a frame arrives;
//   * the doorbell: every rank has an arrival counter that its peers can
//     bump.  A sender bumps the destination's counter after its bytes are
//     readable, and a receiver loads its own counter before it sweeps, so a
//     sweep may be skipped while the counter has not moved: whatever the
//     loaded value announced was already readable when the sweep began.
//
// make_proc_transport implements the contract in one MAP_SHARED arena
// mapped before fork: an SPSC byte ring per ordered rank pair (per-sender
// FIFO is the ring's own order) and per rank a futex doorbell word.  Frames
// are length-prefixed; partial reads reassemble per peer.  A small control
// plane (blobs) rides the same rings for post-run stats gathers — legal
// only at quiescent points (after run()'s closing barriers), where the
// flush lemma guarantees no AM frame is still in flight.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "am/message.hpp"

namespace ace::am {

struct Stats;

/// Delivery callback: hand a deserialized message to the owning Proc's
/// mailbox (the Machine stamps arrival order there, same as a local send).
using MessageSink = std::function<void(Message&&)>;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual ProcId self() const = 0;

  /// Install the fence classifier (true for barrier-protocol handlers).
  /// Ring scan order is not causal order: a barrier release read off
  /// rank 0's ring may precede user frames from other peers that were
  /// sent strictly before it.  The delivery layer's fence semantics (and
  /// so the flush lemma under a reordering policy) assume fences arrive
  /// after everything sent before them, so a transport must re-establish
  /// that order at drain time.
  virtual void set_fence_predicate(std::function<bool(HandlerId)>) = 0;

  /// Count this rank's ring sweeps (Stats::sweeps) and blocking sleeps
  /// (Stats::sleeps) into `stats`, which must outlive the transport.
  virtual void count_into(Stats*) = 0;

  /// True when a frame may be waiting: the doorbell moved since the last
  /// sweep, or frames drained during a blocked write are still queued.  A
  /// non-blocking load; wait_for_mail spins on it before sleeping.
  virtual bool rung() const = 0;

  /// Serialize and ship one active message to `dst` (!= self).  A batching
  /// transport may coalesce the frame into a per-destination buffer instead
  /// of writing it immediately; the Machine guarantees a flush()/flush_all()
  /// follows before the sender blocks, polls, or enters a barrier, so no
  /// frame is ever delayed past the sender's next communication point.
  /// A write blocks only while the peer's ring is full, and meanwhile
  /// drains incoming frames into a spill queue, so two ranks flooding each
  /// other cannot write-write deadlock.
  virtual void send(ProcId dst, const Message& m) = 0;

  /// Push any frames coalesced for `dst` into its ring.  Called by the
  /// Machine after barrier/control sends (those protocols assume prompt
  /// visibility; per-channel FIFO pushes coalesced user frames ahead).
  virtual void flush(ProcId) = 0;
  /// Push every destination's coalesced frames (poll entry, barrier entry,
  /// blocking waits).
  virtual void flush_all() = 0;

  /// Deliver every already-arrived message to `sink` without blocking.
  /// Returns the number delivered.  Touches no ring when the doorbell has
  /// not moved since the last sweep.
  virtual std::size_t drain(const MessageSink& sink) = 0;

  /// Block until at least one message has been delivered to `sink` or the
  /// timeout expires.  Returns false on timeout (the caller escalates to
  /// the deadlock report).  On rank 0 a child that died mid-run fails the
  /// wait within about 100 ms, naming the rank.
  virtual bool wait_readable(std::chrono::milliseconds timeout,
                             const MessageSink& sink) = 0;

  /// The deadlock report's transport lines: bytes in flight each way per
  /// peer, this rank's doorbell value and sleeper count.
  virtual void describe(std::ostream&) const = 0;

  // --- control plane (rank-0 gathers at quiescent points) -----------------

  /// Ship an opaque blob to `dst` (same ordered channel as messages).
  virtual void send_blob(ProcId dst, const std::vector<std::byte>& blob) = 0;

  /// Block until the next *control* blob from `src` arrives.  AM frames
  /// that arrive first are delivered to `sink` (they belong to the previous
  /// epoch and must not be lost).  Aborts on timeout or peer death.
  virtual std::vector<std::byte> recv_blob(ProcId src,
                                           std::chrono::milliseconds timeout,
                                           const MessageSink& sink) = 0;

  /// Tear down the rank topology.  On ranks != 0 this DOES NOT RETURN: the
  /// forked child says bye to rank 0 and exits with `exit_code`.  On rank 0
  /// it waits for every child's bye, reaps every child, and returns the
  /// number that exited abnormally (nonzero status or signal).  Idempotent.
  virtual int finalize(int exit_code) = 0;
};

/// Build the fork + shared-ring transport.  MUST be called before the
/// calling process spawns threads (fork only replicates the calling
/// thread).  On return, the calling process is rank 0 and ranks 1..N-1 are
/// live children executing the same program from this point (SPMD).
std::unique_ptr<Transport> make_proc_transport(std::uint32_t nprocs,
                                               std::uint32_t watchdog_ms,
                                               std::uint32_t batch_max_msgs = 1,
                                               std::uint32_t batch_max_bytes = 64 * 1024);

}  // namespace ace::am

#include "am/machine.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "am/delivery.hpp"
#include "am/transport.hpp"

// The deadlock report runs on the stuck processor's thread while other
// processor threads may still be mutating their own state; it reads that
// state without synchronization because this is the abort path and a torn
// read in a diagnostic beats a hang with no diagnostic.  Tell TSan.
#if defined(__clang__) || defined(__GNUC__)
#define ACE_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#else
#define ACE_NO_SANITIZE_THREAD
#endif

namespace ace::am {

namespace {
thread_local Proc* tls_proc = nullptr;
}  // namespace

Proc::~Proc() = default;

std::uint32_t Proc::nprocs() const { return machine_->nprocs(); }

void Proc::send(ProcId dst, HandlerId handler, std::array<std::uint64_t, 6> args,
                PayloadRef payload) {
  ACE_CHECK_MSG(dst < machine_->nprocs(), "send to an invalid processor");
  const auto bytes = static_cast<std::uint64_t>(payload.size());
  const std::uint8_t hc = machine_->handler_class(handler);
  const bool ctrl = (hc & Machine::kHcControl) != 0;
  if (hc == 0) charge(machine_->cost().message_cost_sender(bytes));
  if (!ctrl) {
    stats_.msgs_sent += 1;
    stats_.bytes_sent += bytes;
    trace(obs::EventKind::kAmSend, vclock_ns(), obs::kNoSpace, dst, bytes);
  }

  Message m;
  m.handler = handler;
  m.src = id_;
  m.args = args;
  m.payload = std::move(payload);
  m.send_vtime_ns = vclock_ns();
  // (src, seq) names the message uniquely at dst; dense per destination and
  // origin so a replayed run assigns identical numbers regardless of how its
  // sends to *other* destinations, or its program's sends and its handlers'
  // replies, interleave.
  m.seq = dispatch_depth_ == 0 ? ++send_seq_[dst]
                               : ++handler_seq_[dst] | kHandlerSeqBit;
  if (machine_->transport_ != nullptr && dst != id_) {
    machine_->transport_->send(dst, m);
    // Barrier/control frames carry the synchronization protocols (fences,
    // arrive/release, rank_done); they must hit the wire now, pushing any
    // coalesced user frames ahead of them (per-channel FIFO).
    if (hc != 0) machine_->transport_->flush(dst);
    return;
  }
  if (dst == id_) {
    // Self-sends never touch the mailbox lock; poll() consumes self_box_ on
    // the same thread.  Interleaving with remote senders is unordered
    // either way, so this loses no delivery semantics.
    self_box_.push_back(std::move(m));
    return;
  }
  std::vector<Message>& out = outbox_[dst];
  if (out.empty()) outbox_pending_ += 1;
  out.push_back(std::move(m));
  // Flush-through for barrier/control sends: the synchronization protocols
  // (fence counting, arrive/release, rank_done) assume their messages are
  // visible to the destination as soon as they are sent — and flushing the
  // whole segment first preserves per-sender FIFO.  Delivery-policy
  // destinations (chaos/replay) also flush through: a policy's semantics
  // (parked-set candidacy, hold counting) are defined against synchronous
  // arrival, and policies are testing instruments where batching throughput
  // is irrelevant — this keeps chaos schedules and replay logs bit-for-bit
  // identical to the unbatched machine.
  if (hc != 0 || out.size() >= batch_limit_ ||
      machine_->proc(dst).delivery_ != nullptr)
    flush_to(dst);
}

void Proc::enqueue(Message&& m) {
  bool wake;
  {
    std::lock_guard lk(mail_mu_);
    m.arrival = ++arrival_seq_;
    mailbox_.push_back(std::move(m));
    mail_count_.store(mailbox_.size(), std::memory_order_release);
    wake = sleeping_;
  }
  if (wake) mail_cv_.notify_one();
}

void Proc::enqueue_batch(std::vector<Message>& seg) {
  bool wake;
  {
    std::lock_guard lk(mail_mu_);
    for (Message& m : seg) {
      m.arrival = ++arrival_seq_;
      mailbox_.push_back(std::move(m));
    }
    mail_count_.store(mailbox_.size(), std::memory_order_release);
    wake = sleeping_;
  }
  seg.clear();  // capacity stays with the sender for the next segment
  if (wake) mail_cv_.notify_one();
}

void Proc::flush_to(ProcId dst) {
  std::vector<Message>& out = outbox_[dst];
  if (out.empty()) return;
  outbox_pending_ -= 1;
  machine_->proc(dst).enqueue_batch(out);
}

void Proc::dispatch(Message& m, std::uint64_t jitter_ns) {
  // Modeled time: the receiver pays its dispatch/service cost per message.
  // We deliberately do NOT join the receiver's clock with the sender's
  // (max(now, send_time + latency)): with many simulated processors
  // multiplexed onto few host cores, real scheduling skew would leak into
  // virtual time and swamp the protocol effects being measured.  Instead,
  // requester-side stalls are charged analytically (Proc::charge_rtt at
  // every blocking wait) and clocks are joined at barriers, which is where
  // SPMD programs actually synchronize.  Barrier traffic rides the CM-5's
  // control network and charges nothing.
  const std::uint64_t t0 = vclock_ns();
  const std::uint8_t hc = machine_->handler_class(m.handler);
  const bool ctrl = (hc & Machine::kHcControl) != 0;
  if (hc == 0) charge(machine_->cost().handler_dispatch_ns + jitter_ns);
  if (!ctrl) stats_.msgs_received += 1;
  // Payload size is captured before the handler runs: data-installing
  // handlers move the payload out, which used to trace every bulk-data
  // dispatch as zero bytes.
  const auto payload_bytes = static_cast<std::uint64_t>(m.payload.size());
  ACE_DCHECK(m.handler < machine_->handlers_.size());
  dispatch_depth_ += 1;
  machine_->handlers_[m.handler](*this, m);
  dispatch_depth_ -= 1;
  trace(obs::EventKind::kAmDispatch, t0, obs::kNoSpace, m.src, payload_bytes);
}

std::size_t Proc::poll() {
  stats_.polls += 1;
  // A poll is a communication point: everything this processor has coalesced
  // is released first (batching must never delay a message past the
  // sender's own next poll), then everything that has arrived is taken.
  flush_outboxes();
  // Process backend: flush this rank's transport batches, then pull every
  // already-arrived frame out of the rings into the mailbox, so one poll()
  // sees the same "everything that has arrived" batch semantics as the
  // thread backend.  The drain makes no syscall while the doorbell is quiet.
  if (machine_->transport_ != nullptr) {
    machine_->transport_->flush_all();
    machine_->transport_->drain([this](Message&& m) { enqueue(std::move(m)); });
  }
  if (delivery_ == nullptr && self_box_.empty() &&
      mail_count_.load(std::memory_order_acquire) == 0) {
    // Hot-path exit: nothing arrived and no policy is aging held messages.
    // A message racing in right now is indistinguishable from one arriving
    // just after this poll; the caller's wait path re-checks before it
    // sleeps.
    return 0;
  }
  // Swap out the mailbox so handlers can send to *this* processor (e.g. a
  // home node forwarding to itself) without self-deadlock or iterator
  // invalidation.  The batch vector is recycled through poll_scratch_ (moved
  // out so a re-entrant poll cannot alias it; moved back below), trading
  // capacity with the mailbox each cycle instead of reallocating.
  std::vector<Message> batch = std::move(poll_scratch_);
  batch.clear();
  {
    std::lock_guard lk(mail_mu_);
    batch.swap(mailbox_);
    mail_count_.store(0, std::memory_order_relaxed);
    for (Message& m : self_box_) {
      m.arrival = ++arrival_seq_;
      batch.push_back(std::move(m));
    }
  }
  self_box_.clear();
  std::size_t n;
  if (delivery_ != nullptr) {
    // Policies keep their deque-based parking interface (they are testing
    // instruments, not a hot path); hand the arrivals over in their form.
    std::deque<Message> arrivals;
    for (Message& m : batch) arrivals.push_back(std::move(m));
    n = poll_policy(std::move(arrivals));
  } else {
    for (auto& m : batch) dispatch(m, 0);
    n = batch.size();
  }
  batch.clear();
  poll_scratch_ = std::move(batch);
  // Replies the handlers just generated are themselves a finished segment:
  // release them now instead of holding them to this processor's next
  // communication point — a peer blocked on the reply would otherwise pay
  // one extra poll-loop round of latency.
  if (n != 0) {
    flush_outboxes();
    if (machine_->transport_ != nullptr) machine_->transport_->flush_all();
  }
  return n;
}

std::size_t Proc::poll_policy(std::deque<Message>&& batch) {
  std::vector<Delivery> out;
  delivery_->select(std::move(batch), out);
  if (!out.empty()) hold_spin_armed_ = false;
  for (auto& d : out) dispatch(d.msg, d.jitter_ns);
  return out.size();
}

void Proc::charge_rtt() {
  const auto& cost = machine_->cost();
  // Two wire crossings plus the remote side's dispatch of our request; the
  // reply's dispatch is charged when poll() runs the reply handler.
  charge(2 * cost.wire_latency_ns + cost.handler_dispatch_ns);
}

void Proc::wait_for_mail() {
  if (delivery_ != nullptr && delivery_->holding()) {
    // Messages are parked inside the policy, not lost: return so wait_until
    // keeps polling and the parked messages age toward release (a chaos
    // hold expires after at most max_hold_polls polls).  The spin clock
    // still bounds this state: a diverged replay can park a message forever.
    const auto now = std::chrono::steady_clock::now();
    if (!hold_spin_armed_) {
      hold_spin_armed_ = true;
      hold_spin_start_ = now;
    } else if (now - hold_spin_start_ >= machine_->watchdog) {
      machine_->report_deadlock(
          *this, "delivery policy parked messages but released none");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(10));
    return;
  }
  // Nothing this processor still holds may be allowed to idle: a parked
  // self-send or outbox segment IS the mail being waited for.
  if (!self_box_.empty()) return;
  flush_outboxes();
  Transport* const transport = machine_->transport_.get();
  // Push out anything still coalesced: a peer may be blocked on it.
  if (transport != nullptr) transport->flush_all();
  // One wait discipline for both backends: a bounded yield-spin, then a
  // real sleep.  With more processors than host cores the yield IS the
  // handoff to the peer that will produce our mail, so the sleep (and its
  // wake-up) is only paid when mail genuinely takes a while.  The spin
  // watches the mailbox and, on proc, the transport's doorbell; a rung bell
  // returns to the caller's poll, whose drain sweeps the rings.
  for (int i = 0; i < kWaitSpinYields; ++i) {
    if (mail_count_.load(std::memory_order_acquire) != 0) return;
    if (transport != nullptr && transport->rung()) return;
    std::this_thread::yield();
  }
  if (transport != nullptr) {
    // Ring path: sleep on the doorbell's futex until a frame lands
    // in the mailbox (same watchdog escalation as the cv path below).
    if (!transport->wait_readable(
            machine_->watchdog,
            [this](Message&& m) { enqueue(std::move(m)); }))
      machine_->report_deadlock(
          *this, "rank blocked with no inbound frames past the watchdog");
    return;
  }
  std::unique_lock lk(mail_mu_);
  if (!mailbox_.empty()) return;
  sleeping_ = true;
  stats_.sleeps += 1;
  const bool got = mail_cv_.wait_for(lk, machine_->watchdog,
                                     [&] { return !mailbox_.empty(); });
  sleeping_ = false;
  if (!got) {
    lk.unlock();
    machine_->report_deadlock(
        *this, "processor blocked with an empty mailbox past the watchdog");
  }
}

void Proc::barrier() {
  stats_.barriers += 1;
  // The flush lemma's sender half: every message sent before this barrier
  // entry must be at its destination before rank 0 can release.  Coalesced
  // segments to third parties would otherwise still be local when the
  // arrive/release exchange completes.
  flush_outboxes();
  if (machine_->transport_ != nullptr) machine_->transport_->flush_all();
  const std::uint64_t t0 = vclock_ns();
  const std::uint32_t epoch = barrier_epoch_;
  // Proc backend: the flush lemma does not come for free.  On the thread
  // backend send() enqueues synchronously into the destination mailbox, so
  // any frame sent before a processor's barrier arrival is already at its
  // destination before rank 0 can release — FIFO drain then dispatches it
  // before the release.  Over rings a data frame can sit unread in its
  // ring while the release on a *different* ring overtakes it, and a
  // receiver would exit the barrier having never seen a pre-barrier update.
  // So each rank first fences all-to-all: per-channel FIFO pushes every
  // pre-barrier user frame ahead of the fence, and a rank proceeds to the
  // arrive/release phase only once it holds fences from every peer — at
  // which point all frames sent before any peer's barrier entry are in
  // local mailboxes.  Counting is cumulative (one fence per peer per
  // epoch): an epoch-k+1 fence cannot exist until every rank passed its
  // epoch-k fence wait (it requires release k, which requires every arrive
  // k), so the threshold (epoch+1)*(P-1) is reached exactly by epoch-k
  // fences.
  if (machine_->transport_ != nullptr && machine_->nprocs() > 1) {
    for (ProcId q = 0; q < machine_->nprocs(); ++q)
      if (q != id_) send(q, machine_->barrier_fence_);
    const std::uint64_t want =
        static_cast<std::uint64_t>(epoch + 1) * (machine_->nprocs() - 1);
    wait_until([&] { return fences_seen_ >= want; });
  }
  if (id_ == 0) {
    // Count self, wait for the other P-1 arrivals, then release everyone.
    arrivals_ += 1;
    barrier_max_vtime_ = std::max(barrier_max_vtime_, vclock_ns());
    wait_until([&] { return arrivals_ == machine_->nprocs(); });
    const std::uint64_t release =
        barrier_max_vtime_ + machine_->cost().barrier_ns;
    arrivals_ = 0;
    barrier_max_vtime_ = 0;
    vclock_ns_ = std::max(vclock_ns_, release);
    release_epoch_ = epoch + 1;
    for (ProcId p = 1; p < machine_->nprocs(); ++p)
      send(p, machine_->barrier_release_, {release});
  } else {
    send(0, machine_->barrier_arrive_, {vclock_ns()});
    wait_until([&] { return release_epoch_ > epoch; });
    vclock_ns_ = std::max(vclock_ns_, barrier_release_vtime_);
  }
  barrier_epoch_ = epoch + 1;
  trace(obs::EventKind::kBarrierWait, t0, obs::kNoSpace, epoch);
}

void Proc::set_delivery(std::unique_ptr<DeliveryPolicy> policy) {
  ACE_CHECK_MSG(!machine_->running_, "set_delivery during Machine::run");
  delivery_ = std::move(policy);
  hold_spin_armed_ = false;
}

std::unique_ptr<Machine> Machine::create(const MachineOptions& opts) {
  ACE_CHECK(opts.nprocs >= 1);
  std::unique_ptr<Transport> transport;
  // A 1-rank "process" machine needs no mesh; everything is a self-send.
  if (opts.backend == Backend::kProc && opts.nprocs > 1)
    transport = make_proc_transport(opts.nprocs, opts.watchdog_ms,
                                    opts.batch_max_msgs,
                                    opts.batch_max_bytes);
  return std::unique_ptr<Machine>(new Machine(opts, std::move(transport)));
}

Machine::Machine(const MachineOptions& opts, std::unique_ptr<Transport> transport)
    : cost_(opts.cost_model),
      backend_(opts.backend),
      time_mode_(opts.time_mode),
      transport_(std::move(transport)) {
  ACE_CHECK(opts.nprocs >= 1);
  self_rank_ = transport_ != nullptr ? transport_->self() : 0;
  watchdog = std::chrono::milliseconds{opts.watchdog_ms};
  const auto epoch = std::chrono::steady_clock::now();
  procs_.reserve(opts.nprocs);
  for (std::uint32_t p = 0; p < opts.nprocs; ++p) {
    auto proc = std::make_unique<Proc>();
    proc->machine_ = this;
    proc->id_ = p;
    proc->time_mode_ = time_mode_;
    proc->wall_epoch_ = epoch;
    proc->send_seq_.resize(opts.nprocs, 0);
    proc->handler_seq_.resize(opts.nprocs, 0);
    proc->outbox_.resize(opts.nprocs);
    proc->batch_limit_ = std::max<std::uint32_t>(1, opts.batch_max_msgs);
    procs_.push_back(std::move(proc));
  }
  barrier_arrive_ = register_handler(
      [](Proc& self, Message& m) {
        ACE_DCHECK(self.id() == 0);
        self.arrivals_ += 1;
        self.barrier_max_vtime_ = std::max(self.barrier_max_vtime_, m.args[0]);
      },
      "am.barrier_arrive");
  barrier_release_ = register_handler(
      [](Proc& self, Message& m) {
        self.barrier_release_vtime_ = m.args[0];
        self.release_epoch_ += 1;
      },
      "am.barrier_release");
  barrier_fence_ = register_handler(
      [](Proc& self, Message&) { self.fences_seen_ += 1; },
      "am.barrier_fence");
  rank_done_ = register_handler(
      [](Proc& self, Message& m) {
        ACE_DCHECK(self.id() == 0);
        Machine& mm = self.machine();
        mm.done_arrivals_ += 1;
        if (m.args[0] != 0) mm.any_rank_failed_ = true;
      },
      "am.rank_done");
  all_done_ = register_handler(
      [](Proc& self, Message& m) {
        Machine& mm = self.machine();
        mm.all_done_flag_ = true;
        if (m.args[0] != 0) mm.any_rank_failed_ = true;
      },
      "am.all_done");
  // Classification table for the send/dispatch hot paths (see
  // handler_class): barrier traffic charges no data-network time; control
  // traffic additionally stays out of message statistics and flushes
  // through any coalescing.
  hclass_[barrier_arrive_] = kHcBarrier;
  hclass_[barrier_release_] = kHcBarrier;
  hclass_[barrier_fence_] = kHcControl;
  hclass_[rank_done_] = kHcControl;
  hclass_[all_done_] = kHcControl;
  // Fence classification for the transport's drain reordering: ring scan
  // order is not causal order, and the delivery policies' fence semantics
  // (flush lemma under chaos) need barrier frames sequenced after the user
  // frames sent before them.
  if (transport_ != nullptr) {
    transport_->set_fence_predicate(
        [this](HandlerId h) { return is_barrier_handler(h); });
    transport_->count_into(&procs_[self_rank_]->stats_);
  }
}

Machine::~Machine() { finalize(); }

int Machine::finalize() {
  if (transport_ == nullptr || finalized_) return 0;
  finalized_ = true;
  int code = 0;
  if (self_rank_ != 0 && child_exit_code) code = child_exit_code();
  return transport_->finalize(code);  // ranks != 0 exit inside
}

HandlerId Machine::register_handler(Handler fn, std::string name) {
  ACE_CHECK_MSG(!running_, "handlers must be registered before Machine::run");
  handlers_.push_back(std::move(fn));
  handler_names_.push_back(std::move(name));
  hclass_.push_back(0);
  return static_cast<HandlerId>(handlers_.size() - 1);
}

const char* Machine::handler_name(HandlerId h) const {
  if (h >= handler_names_.size() || handler_names_[h].empty()) return "?";
  return handler_names_[h].c_str();
}

void Machine::run(const ProcFn& fn) {
  if (transport_ != nullptr) {
    run_multiprocess(fn);
    return;
  }
  const auto wall0 = std::chrono::steady_clock::now();
  running_ = true;
  // Finalize phase (MPI_Finalize-style): a processor that finishes its
  // program keeps servicing incoming requests until *every* processor has
  // finished — otherwise a straggler blocked on a request to an
  // already-finished home would deadlock.  The closing barriers drain
  // residual traffic (flush lemma) so the next run starts with empty
  // mailboxes.
  std::atomic<std::uint32_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto nprocs = static_cast<std::uint32_t>(procs_.size());
  std::vector<std::thread> threads;
  threads.reserve(procs_.size());
  for (auto& proc : procs_) {
    threads.emplace_back([&, p = proc.get()] {
      tls_proc = p;
      try {
        fn(*p);
      } catch (...) {
        {
          std::lock_guard lk(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // Order matters: `failed` must be visible before this processor
        // counts as done, so every finalize loop that observes done==nprocs
        // also observes the failure and skips the closing barriers.
        failed.store(true, std::memory_order_release);
      }
      done.fetch_add(1, std::memory_order_acq_rel);
      while (done.load(std::memory_order_acquire) < nprocs)
        if (p->poll() == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
      if (!failed.load(std::memory_order_acquire)) {
        p->barrier();
        p->barrier();
      }
      // On failure the closing barriers are skipped on *every* processor: a
      // thrower that stopped mid-program may have left the centralized
      // barrier counting mid-epoch, and joining it from the survivors would
      // corrupt the epoch bookkeeping for the next run.  Mailboxes may be
      // left non-empty; run() rethrows below, so the machine is not assumed
      // clean afterwards.
      tls_proc = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  running_ = false;
  last_run_wall_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0)
          .count());
  if (first_error) std::rethrow_exception(first_error);
}

void Machine::run_multiprocess(const ProcFn& fn) {
  Proc& p = *procs_[self_rank_];
  const auto wall0 = std::chrono::steady_clock::now();
  running_ = true;
  done_arrivals_ = 0;
  all_done_flag_ = false;
  any_rank_failed_ = false;
  tls_proc = &p;
  std::exception_ptr err;
  try {
    fn(p);
  } catch (...) {
    err = std::current_exception();
  }
  // Finalize phase, mirroring the thread backend's done-counting: a rank
  // that finishes its program keeps servicing incoming requests until every
  // rank has finished, else a straggler blocked on a request to an
  // already-finished home would deadlock.  The counting itself rides
  // control messages (rank_done to rank 0, all_done back out) because ranks
  // share no memory.
  if (err != nullptr) any_rank_failed_ = true;
  if (self_rank_ == 0) {
    done_arrivals_ += 1;  // count self
    p.wait_until([&] { return done_arrivals_ == nprocs(); });
    const std::uint64_t failed = any_rank_failed_ ? 1 : 0;
    for (ProcId r = 1; r < nprocs(); ++r) p.send(r, all_done_, {failed});
  } else {
    p.send(0, rank_done_, {err != nullptr ? std::uint64_t{1} : 0});
    p.wait_until([&] { return all_done_flag_; });
  }
  if (!any_rank_failed_) {
    // Closing barriers drain residual traffic (flush lemma) so the next
    // run starts with empty mailboxes and rings; then the wire is
    // quiescent and the stats gather may ride it as control blobs.
    p.barrier();
    p.barrier();
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());
    running_ = false;
    exchange_run_stats(wall_ns);
  }
  // On failure the closing barriers and the stats exchange are skipped on
  // every rank (same rationale as the thread backend: the barrier may be
  // mid-epoch); the machine is not assumed clean afterwards.
  tls_proc = nullptr;
  running_ = false;
  if (err != nullptr) std::rethrow_exception(err);
  if (any_rank_failed_)
    throw std::runtime_error("am::Machine::run: a peer rank failed");
}

void Machine::exchange_run_stats(std::uint64_t my_wall_ns) {
  struct Record {
    Stats stats;
    std::uint64_t vclock_ns;
    std::uint64_t wall_ns;
  };
  const auto recs = gather([my_wall_ns](Proc& p) {
    return Record{p.stats_, p.vclock_ns(), my_wall_ns};
  });
  // This rank's own stats stay live; on ranks != 0 the other entries are
  // zero, so every aggregate reads local-only there.
  remote_stats_.assign(nprocs(), Stats{});
  remote_vclock_ns_.assign(nprocs(), 0);
  last_run_wall_ns_ = 0;
  for (ProcId r = 0; r < nprocs(); ++r) {
    last_run_wall_ns_ = std::max(last_run_wall_ns_, recs[r].wall_ns);
    if (r == self_rank_) continue;
    remote_stats_[r] = recs[r].stats;
    remote_vclock_ns_[r] = recs[r].vclock_ns;
  }
}

std::vector<std::vector<std::byte>> Machine::gather_bytes(
    const std::function<std::vector<std::byte>(Proc&)>& fn) {
  ACE_CHECK_MSG(!running_,
                "Machine::gather is a collective for quiescent points "
                "between runs");
  if (transport_ != nullptr) return gather_blobs(fn(*procs_[self_rank_]));
  std::vector<std::vector<std::byte>> out;
  out.reserve(procs_.size());
  for (const auto& p : procs_) out.push_back(fn(*p));
  return out;
}

std::vector<std::vector<std::byte>> Machine::gather_blobs(
    const std::vector<std::byte>& mine) {
  ACE_CHECK_MSG(transport_ != nullptr && !running_,
                "gather_blobs is a process-backend collective for quiescent "
                "points between runs");
  std::vector<std::vector<std::byte>> out(nprocs());
  out[self_rank_] = mine;
  Proc& p = *procs_[self_rank_];
  const auto sink = [&p](Message&& m) { p.enqueue(std::move(m)); };
  if (self_rank_ == 0) {
    for (ProcId r = 1; r < nprocs(); ++r)
      out[r] = transport_->recv_blob(r, watchdog, sink);
  } else {
    transport_->send_blob(0, mine);
  }
  return out;
}

Proc& Machine::self() {
  ACE_CHECK_MSG(tls_proc != nullptr,
                "Machine::self() called outside a processor thread");
  return *tls_proc;
}

Stats Machine::aggregate_stats() const {
  Stats s;
  if (transport_ != nullptr) {
    // Ranks share no memory; rank 0 merges its own stats with the remote
    // records cached by the last run's epilogue.  On other ranks this is
    // the local contribution only.
    s.merge(procs_[self_rank_]->stats_);
    for (const auto& r : remote_stats_) s.merge(r);
    return s;
  }
  for (const auto& p : procs_) s.merge(p->stats_);
  return s;
}

std::uint64_t Machine::max_vclock_ns() const {
  if (transport_ != nullptr) {
    std::uint64_t t = procs_[self_rank_]->vclock_ns();
    for (const auto v : remote_vclock_ns_) t = std::max(t, v);
    return t;
  }
  std::uint64_t t = 0;
  for (const auto& p : procs_) t = std::max(t, p->vclock_ns());
  return t;
}

void Machine::reset_stats() {
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& p : procs_) {
    p->stats_ = Stats{};
    p->vclock_ns_ = 0;
    p->wall_epoch_ = epoch;  // TimeMode::kWall clocks restart at zero
  }
  remote_stats_.clear();
  remote_vclock_ns_.clear();
  last_run_wall_ns_ = 0;
}

ACE_NO_SANITIZE_THREAD
void Machine::write_deadlock_report(std::ostream& os, const Proc& stuck,
                                    const char* why) const {
  os << "=== ace::am deadlock report ===\n";
  os << "backend: " << backend_name(backend_);
  if (transport_ != nullptr)
    os << " (this is rank " << self_rank_ << " of " << nprocs()
       << "; peer ranks report separately)";
  os << "\n";
  os << "stuck: proc " << stuck.id_ << " — " << why << " (watchdog "
     << watchdog.count() << " ms)\n";
  for (const auto& p : procs_) {
    // Process backend: only this rank's processor is live in this address
    // space — the others are inert fork copies with nothing to report.
    if (transport_ != nullptr && p->id_ != self_rank_) continue;
    os << "proc " << p->id_ << ": vclock_ns=" << p->vclock_ns_
       << " barrier_epoch=" << p->barrier_epoch_
       << " release_epoch=" << p->release_epoch_;
    if (p->id_ == 0) os << " arrivals=" << p->arrivals_;
    for (const auto& [name, field] : kStatsFields)
      os << " " << name << "=" << p->stats_.*field;
    os << "\n";
    {
      std::lock_guard lk(p->mail_mu_);
      for (const Message& m : p->mailbox_) {
        os << "  pending: handler=" << handler_name(m.handler) << "("
           << m.handler << ") src=" << m.src << " seq=" << m.seq
           << " arrival=" << m.arrival << " args=[";
        for (std::size_t a = 0; a < m.args.size(); ++a)
          os << (a != 0 ? " " : "") << m.args[a];
        os << "] payload=" << m.payload.size() << "B\n";
      }
    }
    if (!p->self_box_.empty())
      os << "  self_box: " << p->self_box_.size() << " message(s) pending\n";
    for (ProcId dst = 0; dst < p->outbox_.size(); ++dst)
      if (!p->outbox_[dst].empty())
        os << "  outbox[" << dst << "]: " << p->outbox_[dst].size()
           << " coalesced message(s) not yet flushed\n";
    if (transport_ != nullptr) transport_->describe(os);
    if (p->delivery_ != nullptr) p->delivery_->dump(os);
    for (unsigned slot = 0; slot < kCtxSlots; ++slot)
      if (p->dumpers_[slot]) p->dumpers_[slot](os);
  }
  os << "=== end deadlock report ===\n";
}

void Machine::report_deadlock(const Proc& stuck, const char* why) const {
  // In a real deadlock several processors hit their watchdogs together;
  // only the first reporter writes (the lock is never released — the
  // report ends in abort, so latecomers just park until the process dies).
  static std::mutex report_mu;
  report_mu.lock();
  write_deadlock_report(std::cerr, stuck, why);
  std::cerr.flush();
  check_failed("wait_for_mail watchdog", __FILE__, __LINE__,
               "protocol deadlock — structured report above");
}

void Machine::enable_tracing(std::size_t events_per_proc) {
  ACE_CHECK_MSG(!running_, "enable_tracing during Machine::run");
  rings_.clear();
  for (auto& p : procs_) {
    rings_.push_back(std::make_unique<obs::TraceRing>(events_per_proc));
    p->trace_ = rings_.back().get();
  }
}

void Machine::disable_tracing() {
  ACE_CHECK_MSG(!running_, "disable_tracing during Machine::run");
  for (auto& p : procs_) p->trace_ = nullptr;
  rings_.clear();
}

std::vector<obs::ProcTrace> Machine::traces() const {
  std::vector<obs::ProcTrace> out;
  for (std::size_t p = 0; p < rings_.size(); ++p)
    out.push_back({static_cast<std::uint32_t>(p), rings_[p].get()});
  return out;
}

bool Machine::write_trace(const std::string& path) const {
  return obs::write_chrome_trace(path, traces());
}

}  // namespace ace::am

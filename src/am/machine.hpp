// The distributed-memory machine.
//
// `Machine` models the paper's hardware substrate (a 32-node CM-5): P
// "processors" communicating *only* through Active-Message mailboxes.  Two
// backends carry the processors (am/options.hpp):
//
//   * Backend::kThread — one OS thread per processor in this process,
//     mailboxes are vectors that poll() swaps out whole, time is modeled.
//     Deterministic; the substrate for tests, fuzzing, and replay.
//   * Backend::kProc — one OS *process* per processor, messages serialized
//     through shared-memory rings (am/transport.hpp).  The creating
//     process is rank 0; ranks 1..N-1 fork at Machine::create, execute the
//     same program SPMD, and exit when the Machine is destroyed (so code
//     after destruction runs on rank 0 only — where benches report).
//
// Construction goes through Machine::create(MachineOptions), the one way
// to build a Machine on either backend.
//
// The delivery discipline on both backends is CRL's polling model, which
// the paper's runtime inherits:
//
//   * a handler runs only on its destination processor's own thread, when
//     that processor polls (at protocol entry points and inside blocking
//     waits);
//   * handlers never block — multi-step protocol transitions are
//     continuation-based at the home node;
//   * a processor that blocks waiting for a reply keeps polling, so it
//     continues to service requests directed at it (no deadlock through
//     mutual requests).
//
// Each processor carries a virtual clock advanced by CostModel charges; see
// stats.hpp for why experiments report modeled time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "am/message.hpp"
#include "am/options.hpp"
#include "am/stats.hpp"
#include "common/align.hpp"
#include "common/check.hpp"
#include "obs/trace.hpp"

namespace ace::am {

class Machine;
class DeliveryPolicy;
class Transport;
struct ChaosOptions;

/// Context-slot indices for layers that attach per-processor state to a Proc.
enum CtxSlot : unsigned { kCtxAce = 0, kCtxCrl = 1, kCtxApp = 2, kCtxSlots = 4 };

class Proc {
 public:
  Proc() = default;
  ~Proc();  // out of line: unique_ptr<DeliveryPolicy> needs the full type
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  ProcId id() const { return id_; }
  Machine& machine() const { return *machine_; }
  std::uint32_t nprocs() const;

  /// Send an active message to `dst`; charges sender-side costs.
  void send(ProcId dst, HandlerId handler,
            std::array<std::uint64_t, 6> args = {},
            PayloadRef payload = {});

  /// Drain the mailbox, running handlers inline on this thread.
  /// Returns the number of messages handled.
  std::size_t poll();

  /// Poll until `pred()` holds.  `pred` is satisfied only by handlers that
  /// run on this same thread during poll(), so no memory-order subtleties
  /// arise.  Aborts after a configurable watchdog interval (a blocked DSM
  /// operation that long is a protocol bug, not a slow network).
  template <class Pred>
  void wait_until(Pred&& pred) {
    while (!pred()) {
      if (poll() != 0) continue;
      wait_for_mail();
    }
  }

  /// Advance the virtual clock (software path or compute cost).  A no-op
  /// in TimeMode::kWall, where the clock reads the host's monotonic clock.
  void charge(std::uint64_t ns) {
    if (time_mode_ == TimeMode::kModeled) vclock_ns_ += ns;
  }

  /// Charge the network round trip a blocking request stalls for (the
  /// requester's side of a miss).  See stats.hpp for the modeled-time rules.
  void charge_rtt();
  std::uint64_t vclock_ns() const {
    if (time_mode_ == TimeMode::kWall) refresh_wall_clock();
    return vclock_ns_;
  }
  void set_vclock_ns(std::uint64_t t) {
    if (time_mode_ == TimeMode::kModeled) vclock_ns_ = t;
  }

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  /// Record a trace event spanning virtual time [t0, now].  Costs one
  /// branch when tracing is off; compiled out under ACE_OBS_TRACE=0.
  /// Never charges the virtual clock — tracing must not perturb modeled
  /// time (see obs/trace.hpp).
  void trace(obs::EventKind kind, std::uint64_t t0,
             std::uint32_t space = obs::kNoSpace, std::uint64_t arg0 = 0,
             std::uint64_t arg1 = 0) {
#if ACE_OBS_TRACE
    if (trace_ != nullptr)
      trace_->record({t0, vclock_ns() - t0, kind, space, arg0, arg1});
#else
    (void)kind; (void)t0; (void)space; (void)arg0; (void)arg1;
#endif
  }

  /// This processor's event ring; nullptr unless Machine::enable_tracing.
  obs::TraceRing* trace_ring() const { return trace_; }

  /// Per-layer attachment points (the Ace runtime, the CRL runtime, apps).
  void* ctx(CtxSlot slot) const { return ctx_[slot]; }
  void set_ctx(CtxSlot slot, void* p) { ctx_[slot] = p; }

  /// A layer attached to a ctx slot may register a state dumper; the
  /// deadlock report calls every registered dumper so the report shows each
  /// DSM layer's region/protocol state, not just raw mailboxes.
  void set_state_dumper(CtxSlot slot, std::function<void(std::ostream&)> fn) {
    dumpers_[slot] = std::move(fn);
  }

  /// Install a delivery policy (fault injection / replay; see
  /// am/delivery.hpp) or reset to the default FIFO drain with nullptr.
  /// Must not be called while the machine is running.
  void set_delivery(std::unique_ptr<DeliveryPolicy> policy);
  DeliveryPolicy* delivery() const { return delivery_.get(); }

  /// Machine-wide barrier (control-network style; used by DSM layers as the
  /// raw synchronization mechanism under protocol barrier hooks).
  void barrier();

 private:
  friend class Machine;

  void enqueue(Message&& m);
  /// Move a whole outbox segment into this mailbox: one lock, one arrival
  /// stamp per message, at most one wakeup.  Leaves `seg` empty with its
  /// capacity intact (the sender reuses it as the next segment).
  void enqueue_batch(std::vector<Message>& seg);
  /// Hand the pending outbox segment for `dst` to its destination.
  void flush_to(ProcId dst);
  /// Flush every non-empty outbox segment (poll entry, barrier entry).
  void flush_outboxes() {
    if (outbox_pending_ == 0) return;
    for (ProcId p = 0; p < static_cast<ProcId>(outbox_.size()); ++p)
      flush_to(p);
  }
  /// Blocks until mail has (probably) arrived: the mailbox is non-empty
  /// or, on proc, the transport's doorbell moved.  Watchdog inside.
  void wait_for_mail();
  /// Dispatch one released message (shared by the FIFO and policy paths).
  void dispatch(Message& m, std::uint64_t jitter_ns);
  /// The policy half of poll(): the installed policy picks the order.
  std::size_t poll_policy(std::deque<Message>&& batch);
  /// TimeMode::kWall: vclock_ns_ mirrors the host monotonic clock.
  void refresh_wall_clock() const {
    vclock_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_epoch_)
            .count());
  }

  Machine* machine_ = nullptr;
  ProcId id_ = 0;
  TimeMode time_mode_ = TimeMode::kModeled;
  mutable std::uint64_t vclock_ns_ = 0;
  std::chrono::steady_clock::time_point wall_epoch_{};
  Stats stats_;
  obs::TraceRing* trace_ = nullptr;
  void* ctx_[kCtxSlots] = {};
  std::function<void(std::ostream&)> dumpers_[kCtxSlots];

  // Delivery-policy seam (null = the default strict-FIFO drain).
  std::unique_ptr<DeliveryPolicy> delivery_;
  std::vector<std::uint64_t> send_seq_;     ///< per-destination, program sends
  std::vector<std::uint64_t> handler_seq_;  ///< per-destination, handler sends
  std::uint32_t dispatch_depth_ = 0;        ///< >0 while a handler runs
  std::uint64_t arrival_seq_ = 0;           ///< under mail_mu_

  // --- sender-side batching (owner thread only) ---------------------------
  // send() appends to outbox_[dst]; segments are handed over wholesale at
  // poll/barrier entry, on barrier/control sends, or at the count watermark
  // (MachineOptions::batch_max_msgs).  Self-sends bypass the mailbox lock
  // entirely via self_box_, consumed by this processor's own poll().
  std::vector<std::vector<Message>> outbox_;
  std::uint32_t outbox_pending_ = 0;  ///< count of non-empty outbox segments
  std::vector<Message> self_box_;
  std::uint32_t batch_limit_ = 1;
  // A policy holding parked messages turns wait_for_mail into a poll spin;
  // this clock bounds that spin so a stuck replay still hits the watchdog.
  bool hold_spin_armed_ = false;
  std::chrono::steady_clock::time_point hold_spin_start_{};

  // Barrier bookkeeping (centralized at proc 0; see machine.cpp).
  std::uint32_t barrier_epoch_ = 0;       // epochs this proc has completed
  std::uint32_t release_epoch_ = 0;       // epochs proc 0 has released
  std::uint32_t arrivals_ = 0;            // proc 0 only: arrivals this epoch
  std::uint64_t barrier_max_vtime_ = 0;   // proc 0 only: max arrival vclock
  std::uint64_t barrier_release_vtime_ = 0;
  // Proc backend only: cumulative count of barrier-fence frames received
  // (each peer sends exactly one per barrier epoch; see Proc::barrier).
  std::uint64_t fences_seen_ = 0;

  std::mutex mail_mu_;
  std::condition_variable mail_cv_;
  std::vector<Message> mailbox_;
  // Drained-batch scratch: poll() swaps the mailbox out against this, so in
  // steady state the two vectors trade capacity and the hot path never
  // reallocates (the deque it replaced paid chunk churn on every cycle).
  std::vector<Message> poll_scratch_;
  // Eventcount-lite around the mailbox: senders skip the notify syscall
  // unless the receiver declared itself asleep (sleeping_, under mail_mu_),
  // and a waiting receiver spins on mail_count_ (and, on proc, on the
  // transport's doorbell) for kWaitSpinYields sched_yields — on hosts with
  // fewer cores than processors the yield IS the handoff — before paying
  // for a real sleep (a condition variable on thread, a futex on proc).
  static constexpr int kWaitSpinYields = 128;
  std::atomic<std::uint64_t> mail_count_{0};
  bool sleeping_ = false;  ///< under mail_mu_
};

class Machine {
 public:
  using Handler = std::function<void(Proc&, Message&)>;
  using ProcFn = std::function<void(Proc&)>;

  /// The factory: builds the requested backend.  With Backend::kProc this
  /// FORKS — on return the calling process is rank 0 and ranks 1..N-1 are
  /// children executing the same program from this call (SPMD).  Everything
  /// after the Machine's destruction runs on rank 0 only.
  static std::unique_ptr<Machine> create(const MachineOptions& opts);

  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  std::uint32_t nprocs() const { return static_cast<std::uint32_t>(procs_.size()); }
  Proc& proc(ProcId p) { return *procs_[p]; }
  const CostModel& cost() const { return cost_; }

  Backend backend() const { return backend_; }
  TimeMode time_mode() const { return time_mode_; }
  /// True when processors are OS processes (a Transport is installed).
  bool multiprocess() const { return transport_ != nullptr; }
  /// This process's rank (0 on the thread backend and on rank 0).
  ProcId self_rank() const { return self_rank_; }
  /// True on the rank that should own shared side effects (writing bench
  /// JSON / trace files, printing reports).  Always true on the thread
  /// backend; rank 0 only on the process backend.
  bool is_primary() const { return self_rank_ == 0; }

  /// Tear down the rank topology early (the destructor calls this too).
  /// On ranks != 0 this DOES NOT RETURN — the forked child exits with
  /// child_exit_code() (so everything after it is rank-0-only code).  On
  /// rank 0 it reaps every child and returns the number that exited
  /// abnormally; tests assert the return value is 0 so a child-side
  /// assertion failure fails the parent test.  No-op (returns 0) on the
  /// thread backend; idempotent.
  int finalize();

  /// Consulted by finalize() on ranks != 0 for the child's exit status.
  /// Tests point this at their framework's failure flag so a child-side
  /// EXPECT failure turns into a nonzero exit that finalize() reports.
  std::function<int()> child_exit_code;

  /// Wall-clock duration of the last completed run(): on the process
  /// backend the max across ranks (gathered in the run epilogue), else this
  /// process's own measurement.  Valid on is_primary() after run().
  std::uint64_t last_run_wall_ns() const { return last_run_wall_ns_; }

  /// The one way results cross ranks: a collective at a quiescent point
  /// (between run()s).  `fn(Proc&)` runs for every processor that lives in
  /// this process (all of them on the thread backend, this rank's own on
  /// the process backend) and returns a trivially copyable T.  The primary
  /// gets all nprocs values in rank order; other ranks get only their own
  /// entry, the rest value-initialized.
  template <class Fn, class T = std::invoke_result_t<Fn&, Proc&>>
  std::vector<T> gather(Fn&& fn) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Machine::gather carries raw bytes between forked ranks");
    const auto blobs = gather_bytes([&fn](Proc& p) {
      const T v = fn(p);
      std::vector<std::byte> b(sizeof v);
      std::memcpy(b.data(), &v, sizeof v);
      return b;
    });
    std::vector<T> out(blobs.size());
    for (std::size_t r = 0; r < blobs.size(); ++r) {
      if (blobs[r].empty()) continue;  // another rank's, not ours to see
      ACE_CHECK(blobs[r].size() == sizeof(T));
      std::memcpy(&out[r], blobs[r].data(), sizeof(T));
    }
    return out;
  }

  /// gather() for variable-length records: `fn` encodes its processor's
  /// result as bytes.  Same contract; an entry the caller may not see is
  /// left empty.
  std::vector<std::vector<std::byte>> gather_bytes(
      const std::function<std::vector<std::byte>(Proc&)>& fn);

  /// The process-backend transport under gather_bytes: every rank
  /// contributes `mine`; rank 0 gets all nprocs blobs (indexed by rank),
  /// other ranks get only their own entry filled.
  std::vector<std::vector<std::byte>> gather_blobs(
      const std::vector<std::byte>& mine);

  /// Register a handler; must happen before run().  Returns a stable id
  /// valid on every processor (SPMD: same handler table machine-wide).
  /// `name` is optional and only used by diagnostics (deadlock reports,
  /// delivery-policy dumps).
  HandlerId register_handler(Handler fn, std::string name = {});
  /// The registered name of `h` ("?" if none was given).
  const char* handler_name(HandlerId h) const;

  /// Run `fn` on every processor (SPMD).  May be called repeatedly; per-proc
  /// state (ctx slots, clocks, stats) persists across runs.
  void run(const ProcFn& fn);

  /// The processor bound to the calling thread (only valid inside run()).
  static Proc& self();

  Stats aggregate_stats() const;
  std::uint64_t max_vclock_ns() const;
  void reset_stats();

  // --- observability (ace::obs) -----------------------------------------
  /// Allocate per-processor event rings and start recording.  May be called
  /// before or between run()s; rings persist until disable_tracing().
  void enable_tracing(std::size_t events_per_proc = 1u << 16);
  void disable_tracing();
  bool tracing() const { return !rings_.empty(); }
  /// The per-processor rings, labeled for obs::write_chrome_trace.
  std::vector<obs::ProcTrace> traces() const;
  /// Convenience: export the recorded trace as Chrome trace-event JSON.
  bool write_trace(const std::string& path) const;

  // --- fault injection (ace::am delivery policies) -----------------------
  /// Install a seeded ChaosPolicy on every processor (legal delivery
  /// perturbation; see am/delivery.hpp).  Call outside run().
  void set_chaos(const ChaosOptions& opt);
  /// Install ReplayPolicies re-imposing `logs` (one log per processor, as
  /// returned by delivery_logs()); the run reproduces the logged schedule
  /// and jitter bit-for-bit.
  void set_replay(std::vector<DeliveryLog> logs);
  /// Remove every delivery policy (back to the default FIFO drain).
  void clear_delivery();
  /// Snapshot every processor's delivery log (empty entries for processors
  /// without a logging policy).  Call outside run().
  std::vector<DeliveryLog> delivery_logs() const;

  /// Write the structured deadlock report: per-processor virtual clocks and
  /// barrier epochs, pending mailbox contents, delivery-policy state, and
  /// every registered DSM-layer state dumper.  Best-effort by design: it
  /// runs on the stuck processor's thread while others may still be live
  /// (this is the abort path).
  void write_deadlock_report(std::ostream& os, const Proc& stuck,
                             const char* why) const;
  /// Print the report to stderr, then abort via check_failed.
  [[noreturn]] void report_deadlock(const Proc& stuck, const char* why) const;

  /// Handler classification bits, kept in a dense per-handler table so the
  /// send/dispatch hot paths pay one byte load instead of five id compares.
  enum : std::uint8_t { kHcBarrier = 1, kHcControl = 2 };

  /// Barrier traffic models the CM-5's dedicated control network: it is
  /// counted in message statistics but charges no data-network time.
  bool is_barrier_handler(HandlerId h) const {
    return (hclass_[h] & kHcBarrier) != 0;
  }

  /// Run-finalize control traffic (rank_done / all_done) and the proc
  /// backend's barrier fences: pure machinery with no thread-backend
  /// counterpart, so it neither charges time nor counts in message
  /// statistics (stats must agree across backends).
  bool is_control_handler(HandlerId h) const {
    return (hclass_[h] & kHcControl) != 0;
  }

  /// Both classification bits in one load (the hot-path form).
  std::uint8_t handler_class(HandlerId h) const { return hclass_[h]; }

  /// Watchdog for wait_until; generous because benches serialize many
  /// processors onto few host cores.  (Milliseconds so tests that exercise
  /// the deadlock report can keep their death-test children fast.)
  /// Seeded from MachineOptions::watchdog_ms; writable for tests.
  std::chrono::milliseconds watchdog{120'000};

 private:
  friend class Proc;

  Machine(const MachineOptions& opts, std::unique_ptr<Transport> transport);

  /// run() on the process backend: fn executes on the calling thread for
  /// this rank's processor; peers are reached through transport_.
  void run_multiprocess(const ProcFn& fn);
  /// Post-run stats exchange (process backend, successful runs only): a
  /// gather of every rank's {Stats, vclock, wall}, which rank 0 caches so
  /// aggregate_stats()/max_vclock_ns() stay local calls.
  void exchange_run_stats(std::uint64_t my_wall_ns);

  CostModel cost_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<std::unique_ptr<obs::TraceRing>> rings_;
  std::vector<Handler> handlers_;
  std::vector<std::string> handler_names_;
  std::vector<std::uint8_t> hclass_;  ///< kHcBarrier/kHcControl per handler
  HandlerId barrier_arrive_ = 0;
  HandlerId barrier_release_ = 0;
  HandlerId barrier_fence_ = 0;
  bool running_ = false;

  // --- backend state ------------------------------------------------------
  Backend backend_ = Backend::kThread;
  TimeMode time_mode_ = TimeMode::kModeled;
  std::unique_ptr<Transport> transport_;  ///< null on the thread backend
  ProcId self_rank_ = 0;
  bool finalized_ = false;

  // Run-finalize protocol (process backend; single-threaded per rank).
  HandlerId rank_done_ = 0;
  HandlerId all_done_ = 0;
  std::uint32_t done_arrivals_ = 0;  ///< rank 0: ranks finished (incl. self)
  bool all_done_flag_ = false;       ///< ranks != 0: release received
  bool any_rank_failed_ = false;     ///< set via rank_done/all_done args

  // Rank-0 cache of remote per-rank results (filled by exchange_run_stats).
  std::vector<Stats> remote_stats_;
  std::vector<std::uint64_t> remote_vclock_ns_;
  std::uint64_t last_run_wall_ns_ = 0;
};

}  // namespace ace::am

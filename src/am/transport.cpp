#include "am/transport.hpp"

#include <errno.h>
#include <linux/futex.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <ostream>

#include "am/stats.hpp"
#include "common/check.hpp"

namespace ace::am {

namespace {

// --- wire format -----------------------------------------------------------
// frame   := u32 magic | u32 kind | u32 body_len | body
// kAm     := WireHeader | payload bytes
// kBlob   := opaque bytes (control plane)
// kBatch  := a run of complete frames, written as one segment; body_len
//            counts the enclosed bytes, but receivers consume the wrapper
//            header alone and parse the enclosed frames incrementally (a
//            batch needs no reassembly of its own)
//
// Headers are raw host-endian structs (every rank today is a fork of the
// same binary), but the wire is guarded so the TCP-across-hosts follow-on
// cannot silently desequence: the magic encodes a wire version, the
// static_asserts pin the struct ABI, and a peer whose byte order or layout
// drifted fails the magic check on its first frame.

inline constexpr std::uint32_t kWireVersion = 2;  // v2: magic + batch frames
inline constexpr std::uint32_t kFrameMagic = 0xACE50000u | kWireVersion;

static_assert(std::endian::native == std::endian::little,
              "wire format is little-endian; a big-endian build needs "
              "byte-order-stable framing first");

enum Kind : std::uint32_t { kAm = 1, kBlob = 2, kBye = 3, kBatch = 4 };

struct WireHeader {
  std::uint32_t handler = 0;
  std::uint32_t src = 0;
  std::uint64_t seq = 0;
  std::uint64_t send_vtime_ns = 0;
  std::uint64_t args[6] = {};
};
static_assert(sizeof(WireHeader) == 72, "wire header layout drifted");

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t kind = 0;
  std::uint32_t body_len = 0;
};
static_assert(sizeof(FrameHeader) == 12, "frame header layout drifted");

void append(std::vector<std::byte>& buf, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  buf.insert(buf.end(), b, b + n);
}

void append_message(std::vector<std::byte>& out, const Message& m) {
  WireHeader h;
  h.handler = m.handler;
  h.src = m.src;
  h.seq = m.seq;
  h.send_vtime_ns = m.send_vtime_ns;
  for (std::size_t i = 0; i < m.args.size(); ++i) h.args[i] = m.args[i];
  const FrameHeader f{kFrameMagic, kAm,
                      static_cast<std::uint32_t>(sizeof h + m.payload.size())};
  out.reserve(out.size() + sizeof f + f.body_len);
  append(out, &f, sizeof f);
  append(out, &h, sizeof h);
  append(out, m.payload.data(), m.payload.size());
}

Message decode_message(const std::byte* body, std::size_t n) {
  ACE_CHECK_MSG(n >= sizeof(WireHeader), "truncated AM frame");
  WireHeader h;
  std::memcpy(&h, body, sizeof h);
  Message m;
  m.handler = h.handler;
  m.src = h.src;
  m.seq = h.seq;
  m.send_vtime_ns = h.send_vtime_ns;
  for (std::size_t i = 0; i < m.args.size(); ++i) m.args[i] = h.args[i];
  // Reassemble straight into a pooled buffer (no vector round trip).
  m.payload = PayloadRef::copy_of(body + sizeof h, n - sizeof h);
  return m;
}

void check_magic(const FrameHeader& f) {
  ACE_CHECK_MSG(f.magic == kFrameMagic,
                "frame magic mismatch — peer speaks a different wire version "
                "or byte order (mixed-build or mixed-endian mesh?)");
}

using Clock = std::chrono::steady_clock;

// --- the shared arena -------------------------------------------------------
// One MAP_SHARED | MAP_ANONYMOUS mapping made before fork, so every rank
// sees the same pages: a Bell per rank, then a Ring per ordered (src, dst)
// pair, all lock-free atomics and plain bytes.

/// Ring capacity, one power of two for every pair: wall time is flat from
/// 8 to 64 KiB, and each touched shared page counts in every rank's RSS.
inline constexpr std::size_t kRingBytes = std::size_t{16} << 10;
static_assert(std::has_single_bit(kRingBytes));

/// bell[r]: `rung` counts the writes peers made toward rank r (and the room
/// a consumer freed for r while r was blocked on a full ring); rank r
/// sleeps on it as a futex, with `sleepers` non-zero meanwhile so ringers
/// pay FUTEX_WAKE only then.  `gone`: rank r finalized (not a crash).
struct alignas(64) Bell {
  std::atomic<std::uint32_t> rung{0};
  std::atomic<std::uint32_t> sleepers{0};
  std::atomic<std::uint32_t> gone{0};
};
static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free &&
                  sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "the arena is shared between processes; the bell is a futex");
static_assert(sizeof(Bell) == 64, "one bell per cache line");

/// One single-producer/single-consumer byte ring.  Only the consumer writes
/// `head` (bytes consumed) and only the producer `tail` (bytes published,
/// release), each on its own cache line.  `blocked` is set while the
/// producer waits for room, so the consumer that frees some rings it.
struct Ring {
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint32_t> blocked{0};
  alignas(64) std::byte data[kRingBytes];

  std::size_t in_flight() const {
    return static_cast<std::size_t>(tail.load(std::memory_order_acquire) -
                                    head.load(std::memory_order_acquire));
  }
  /// Producer side, after setting `blocked`: seq_cst against ring_take.
  bool has_room() const {
    return tail.load(std::memory_order_relaxed) -
               head.load(std::memory_order_seq_cst) < kRingBytes;
  }
};

/// Copy up to `n` bytes into the ring; returns how many fit (0 when full).
std::size_t ring_put(Ring& r, const std::byte* p, std::size_t n) {
  const std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  n = std::min(n, kRingBytes - static_cast<std::size_t>(tail - head));
  if (n == 0) return 0;
  const std::size_t at = tail & (kRingBytes - 1);
  const std::size_t first = std::min(n, kRingBytes - at);
  std::memcpy(r.data + at, p, first);
  std::memcpy(r.data, p + first, n - first);
  r.tail.store(tail + n, std::memory_order_release);
  return n;
}

/// Move every published byte onto the end of `out`.  Returns true when the
/// producer was blocked on a full ring (the caller rings its bell).
bool ring_take(Ring& r, std::vector<std::byte>& out) {
  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = r.tail.load(std::memory_order_acquire);
  const auto n = static_cast<std::size_t>(tail - head);
  if (n == 0) return false;
  const std::size_t at = head & (kRingBytes - 1);
  const std::size_t first = std::min(n, kRingBytes - at);
  out.insert(out.end(), r.data + at, r.data + at + first);
  out.insert(out.end(), r.data, r.data + (n - first));
  // seq_cst against the producer's `blocked` store then `head` load: either
  // it sees this room or this load sees it blocked.
  r.head.store(tail, std::memory_order_seq_cst);
  return r.blocked.load(std::memory_order_seq_cst) != 0 &&
         r.blocked.exchange(0, std::memory_order_seq_cst) != 0;
}

// The bell is shared across processes, so no FUTEX_PRIVATE.  A wait
// returns on a wake, a moved word (EAGAIN), a signal or the timeout alike.
void futex(std::atomic<std::uint32_t>& word, int op, std::uint32_t val,
           const timespec* timeout = nullptr) {
  (void)::syscall(SYS_futex, &word, op, val, timeout, nullptr, 0);
}

/// The longest futex sleep: rank 0 re-checks its children this often.
inline constexpr std::chrono::milliseconds kSleepSlice{100};

// --- the ring transport -----------------------------------------------------

class RingTransport final : public Transport {
 public:
  RingTransport(ProcId self, std::uint32_t nprocs, std::vector<pid_t> pids,
                Bell* arena, std::size_t arena_bytes,
                std::uint32_t watchdog_ms, std::uint32_t batch_max_msgs,
                std::uint32_t batch_max_bytes)
      : self_(self),
        nprocs_(nprocs),
        pids_(std::move(pids)),
        status_(pids_.size(), kUnreaped),
        bells_(arena),
        arena_bytes_(arena_bytes),
        watchdog_(watchdog_ms),
        batch_msgs_(batch_max_msgs < 1 ? 1 : batch_max_msgs),
        batch_bytes_(batch_max_bytes),
        rx_(nprocs),
        tx_(nprocs),
        ctrl_(nprocs),
        expect_seq_(nprocs, {0, 0}),
        bye_(nprocs, false) {}

  ~RingTransport() override {
    finalize(0);
    ::munmap(bells_, arena_bytes_);
  }
  RingTransport(const RingTransport&) = delete;
  RingTransport& operator=(const RingTransport&) = delete;

  ProcId self() const override { return self_; }

  void send(ProcId dst, const Message& m) override {
    ACE_CHECK_MSG(dst < nprocs_ && dst != self_,
                  "ring transport send to an invalid rank");
    TxBuf& tx = tx_[dst];
    if (tx.batch_hdr == TxBuf::kNoBatch) open_batch(tx);
    append_message(tx.buf, m);
    tx.msgs += 1;
    if (tx.msgs >= batch_msgs_ || tx.pending() >= batch_bytes_) flush(dst);
  }

  void flush(ProcId dst) override {
    TxBuf& tx = tx_[dst];
    close_batch(tx);
    if (tx.pending() != 0) drain_tx(dst);
  }

  void flush_all() override {
    for (ProcId p = 0; p < nprocs_; ++p)
      if (p != self_) flush(p);
  }

  void send_blob(ProcId dst, const std::vector<std::byte>& blob) override {
    // Control frames never ride inside a batch wrapper: close any open
    // batch first so the blob lands frame-aligned on the stream.
    TxBuf& tx = tx_[dst];
    close_batch(tx);
    const FrameHeader f{kFrameMagic, kBlob,
                        static_cast<std::uint32_t>(blob.size())};
    append(tx.buf, &f, sizeof f);
    append(tx.buf, blob.data(), blob.size());
    drain_tx(dst);
  }

  void set_fence_predicate(std::function<bool(HandlerId)> pred) override {
    is_fence_ = std::move(pred);
  }

  void count_into(Stats* stats) override { stats_ = stats; }

  bool rung() const override { return !spill_.empty() || bell() != swept_bell_; }

  std::size_t drain(const MessageSink& sink) override {
    std::size_t n = flush_spill(sink);
    // The doorbell: no ring is touched unless a peer wrote since the last
    // sweep.  A peer bumps the bell after its tail store, so whatever the
    // loaded value announces is readable by the sweep that follows.
    const std::uint32_t rung = bell();
    if (rung == swept_bell_) return n;
    swept_bell_ = rung;
    // Stage one full sweep of every peer.  If the sweep picked up a fence
    // (barrier) frame, sweep again: everything sent before that fence was
    // already in its own ring when the fence was read (a write returns only
    // once its last byte is in the ring), so one more pass closes the
    // causal set.  Repeat while fences keep arriving.
    bool saw_fence = true;
    while (saw_fence) {
      saw_fence = false;
      const std::size_t before = staged_.size();
      sweep([this](Message&& m) { staged_.push_back(std::move(m)); });
      for (std::size_t i = before; i < staged_.size(); ++i)
        if (is_fence(staged_[i].handler)) saw_fence = true;
    }
    // Emit with fence frames deferred past the user frames of this drain:
    // ring scan order is not causal order (see set_fence_predicate), and
    // delaying a fence is always legal — the receiver just leaves its
    // barrier a moment later.  Per-sender FIFO still holds: a deferred
    // fence is flushed before any later frame from its own sender.
    for (auto& m : staged_) {
      if (is_fence(m.handler)) {
        fences_.push_back(std::move(m));
        continue;
      }
      for (auto it = fences_.begin(); it != fences_.end();) {
        if (it->src == m.src) {
          sink(std::move(*it));
          it = fences_.erase(it);
          n += 1;
        } else {
          ++it;
        }
      }
      sink(std::move(m));
      n += 1;
    }
    for (auto& f : fences_) {
      sink(std::move(f));
      n += 1;
    }
    staged_.clear();
    fences_.clear();
    return n;
  }

  bool wait_readable(std::chrono::milliseconds timeout,
                     const MessageSink& sink) override {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      if (drain(sink) != 0) return true;
      if (stats_ != nullptr) stats_->sleeps += 1;
      if (!sleep_while(swept_bell_, deadline)) return false;
    }
  }

  std::vector<std::byte> recv_blob(ProcId src,
                                   std::chrono::milliseconds timeout,
                                   const MessageSink& sink) override {
    const auto deadline = Clock::now() + timeout;
    flush_all();  // defensive: never block on a peer with frames still queued
    for (;;) {
      flush_spill(sink);
      if (!ctrl_[src].empty()) {
        auto blob = std::move(ctrl_[src].front());
        ctrl_[src].pop_front();
        return blob;
      }
      const std::uint32_t seen = bell();
      read_available(src, sink);
      if (!ctrl_[src].empty()) continue;
      ACE_CHECK_MSG(sleep_while(seen, deadline),
                    "recv_blob timed out waiting for a peer rank");
    }
  }

  void describe(std::ostream& os) const override {
    os << "  rings: bell=" << bells_[self_].rung.load()
       << " swept=" << swept_bell_
       << " sleepers=" << bells_[self_].sleepers.load()
       << " spilled=" << spill_.size() << "\n";
    for (ProcId p = 0; p < nprocs_; ++p)
      if (p != self_)
        os << "  ring " << self_ << "->" << p << ": "
           << ring(self_, p).in_flight() << " B in flight, " << p << "->"
           << self_ << ": " << ring(p, self_).in_flight() << " B in flight\n";
  }

  int finalize(int exit_code) override {
    if (finalized_) return 0;
    finalized_ = true;
    // A child says bye through its ring to rank 0 and exits at once (the
    // arena outlives it, so peers still read all it wrote); `gone`, set
    // after the bye, tells rank 0 the exit was orderly.
    if (self_ != 0) {
      TxBuf& tx = tx_[0];
      close_batch(tx);
      const FrameHeader bye{kFrameMagic, kBye, 0};
      append(tx.buf, &bye, sizeof bye);
      drain_tx(0);
      bells_[self_].gone.store(1, std::memory_order_seq_cst);
      // Forked rank: this process exists only to be a processor.  _Exit
      // skips atexit/static destruction and, crucially, does not flush
      // stdio buffers inherited from the pre-fork parent (which would
      // duplicate the parent's pending output N times).
      std::_Exit(exit_code);
    }
    for (ProcId r = 1; r < nprocs_; ++r) wait_bye(r);
    int bad = 0;
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (!reap(i, 0)) continue;  // reaped elsewhere: nothing to classify
      if (!WIFEXITED(status_[i]) || WEXITSTATUS(status_[i]) != 0) {
        std::fprintf(stderr,
                     "ace::am proc backend: child pid %d exited abnormally "
                     "(status 0x%x)\n",
                     static_cast<int>(pids_[i]), status_[i]);
        bad += 1;
      }
    }
    pids_.clear();
    return bad;
  }

 private:
  static constexpr int kUnreaped = -1;

  /// Per-peer receive reassembly: a byte buffer accumulating ring bytes
  /// until complete frames can be cut off its front.
  struct RxBuf {
    std::vector<std::byte> buf;
    std::size_t consumed = 0;  ///< parsed prefix (compacted lazily)

    void compact() {
      if (consumed == 0) return;
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
      consumed = 0;
    }
    std::size_t pending() const { return buf.size() - consumed; }
    const std::byte* front() const { return buf.data() + consumed; }
  };

  /// The rings follow the bells in the arena, indexed src * nprocs + dst.
  Ring& ring(ProcId src, ProcId dst) const {
    return reinterpret_cast<Ring*>(bells_ + nprocs_)[src * nprocs_ + dst];
  }

  bool is_fence(HandlerId h) const { return is_fence_ && is_fence_(h); }

  /// Bump rank `r`'s bell, and wake it if it sleeps.  seq_cst against the
  /// sleeper's `sleepers` increment then `rung` load: either it sees this
  /// bump or this load sees it asleep.
  void ring_bell(ProcId r) {
    Bell& b = bells_[r];
    b.rung.fetch_add(1, std::memory_order_seq_cst);
    if (b.sleepers.load(std::memory_order_seq_cst) != 0)
      futex(b.rung, FUTEX_WAKE, 1);
  }

  /// Sleep while this rank's bell still reads `seen`, in slices of at most
  /// kSleepSlice so rank 0 notices a dead child promptly.  Returns false
  /// once the deadline passes with the bell unmoved.
  bool sleep_while(std::uint32_t seen, Clock::time_point deadline) {
    while (bell() == seen) {
      if (Clock::now() >= deadline) return false;
      sleep_once(seen);
      check_children();
    }
    return true;
  }

  /// One FUTEX_WAIT of at most kSleepSlice on this rank's bell while it
  /// reads `seen`.  seq_cst against ring_bell: either this load sees the
  /// ringer's bump or the ringer sees `sleepers` and wakes us.
  void sleep_once(std::uint32_t seen) {
    static constexpr timespec kSlice{0, kSleepSlice.count() * 1'000'000};
    Bell& b = bells_[self_];
    b.sleepers.fetch_add(1, std::memory_order_seq_cst);
    if (b.rung.load(std::memory_order_seq_cst) == seen)
      futex(b.rung, FUTEX_WAIT, seen, &kSlice);
    b.sleepers.fetch_sub(1, std::memory_order_seq_cst);
  }

  std::uint32_t bell() const { return bells_[self_].rung.load(); }

  /// Rank 0: reap any child that has exited.  One that exited without
  /// finalizing crashed mid-run, and nothing it owed will ever arrive, so
  /// fail now, naming it.  Its status is kept for finalize either way.
  void check_children() {
    const auto now = Clock::now();
    if (pids_.empty() || now < next_reap_check_) return;
    next_reap_check_ = now + kSleepSlice;
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (!reap(i)) continue;
      const ProcId r = static_cast<ProcId>(i + 1);
      if (bells_[r].gone.load(std::memory_order_seq_cst) != 0) continue;
      const int st = status_[i];
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "peer rank %u (pid %d) died mid-run: %s %d", r,
                    static_cast<int>(pids_[i]),
                    WIFSIGNALED(st) ? "signal" : "exit status",
                    WIFSIGNALED(st) ? WTERMSIG(st) : WEXITSTATUS(st));
      check_failed("ring transport", __FILE__, __LINE__, msg);
    }
  }

  /// Rank 0: reap child `i` (rank i + 1), by default without blocking.
  /// True when it has exited (now or before), with its status recorded.
  bool reap(std::size_t i, int flags = WNOHANG) {
    while (status_[i] == kUnreaped) {
      int status = 0;
      const pid_t got = ::waitpid(pids_[i], &status, flags);
      if (got == pids_[i]) status_[i] = status;
      else if (got == 0 || errno != EINTR) return false;
    }
    return true;
  }

  /// One pass over every peer's ring.
  void sweep(const MessageSink& sink) {
    if (stats_ != nullptr) stats_->sweeps += 1;
    for (ProcId p = 0; p < nprocs_; ++p)
      if (p != self_) read_available(p, sink);
  }

  std::size_t flush_spill(const MessageSink& sink) {
    std::size_t n = 0;
    while (!spill_.empty()) {
      Message m = std::move(spill_.front());
      spill_.pop_front();
      sink(std::move(m));
      n += 1;
    }
    return n;
  }

  /// Take everything peer `p` has published; complete AM frames go to
  /// `sink`, control frames queue on ctrl_[p].
  std::size_t read_available(ProcId p, const MessageSink& sink) {
    if (ring_take(ring(p, self_), rx_[p].buf)) ring_bell(p);
    return parse_frames(p, sink);
  }

  std::size_t parse_frames(ProcId p, const MessageSink& sink) {
    RxBuf& rx = rx_[p];
    std::size_t delivered = 0;
    while (rx.pending() >= sizeof(FrameHeader)) {
      FrameHeader f;
      std::memcpy(&f, rx.front(), sizeof f);
      check_magic(f);
      if (f.kind == kBatch) {
        // A batch is just a wrapper: consume its header alone and parse the
        // enclosed frames incrementally — never wait for the full batch body
        // (it may be larger than the ring, still being written).
        rx.consumed += sizeof f;
        continue;
      }
      if (rx.pending() < sizeof f + f.body_len) break;
      const std::byte* body = rx.front() + sizeof f;
      if (f.kind == kAm) {
        Message m = decode_message(body, f.body_len);
        // The wire carries the sender's dense per-(src, dst, origin)
        // sequence number; a gap or reorder here is a transport bug, not a
        // protocol bug, so it is checked at this layer.
        const std::uint64_t origin = m.seq & kHandlerSeqBit;
        std::uint64_t& expect = expect_seq_[p][origin != 0 ? 1 : 0];
        expect += 1;
        ACE_CHECK_MSG(m.seq == (expect | origin),
                      "per-sender FIFO violated on the ring transport");
        sink(std::move(m));
        delivered += 1;
      } else if (f.kind == kBlob) {
        ctrl_[p].emplace_back(body, body + f.body_len);
      } else if (f.kind == kBye) {
        bye_[p] = true;
      } else {
        check_failed("ring transport", __FILE__, __LINE__,
                     "unknown frame kind on the wire");
      }
      rx.consumed += sizeof f + f.body_len;
    }
    rx.compact();
    return delivered;
  }

  /// Rank 0, teardown: wait until child `r` announces bye, exits, or the
  /// watchdog passes (then it is killed, so the reap cannot hang).
  /// Tolerant by design — this runs on the report path too, where the
  /// child may already be dead; the reap is what classifies child exits.
  void wait_bye(ProcId r) {
    const auto deadline = Clock::now() + std::chrono::milliseconds{watchdog_};
    for (;;) {
      const std::uint32_t seen = bell();
      // Residual frames ahead of the bye belong to a failed run that never
      // quiesced; they have no consumer anymore.
      read_available(r, [](Message&&) {});
      if (bye_[r] || reap(r - 1)) return;
      if (Clock::now() >= deadline) {
        ::kill(pids_[r - 1], SIGKILL);
        return;
      }
      sleep_once(seen);
    }
  }

  /// Per-peer transmit queue.  Every byte bound for a peer (AM batches,
  /// blobs, the bye) is appended here and drained in order from `sent`, so
  /// a short ring write resumes at the exact byte where it stopped and no
  /// later frame can interleave into an unfinished one.
  struct TxBuf {
    static constexpr std::size_t kNoBatch = static_cast<std::size_t>(-1);
    std::vector<std::byte> buf;
    std::size_t sent = 0;            ///< bytes already in the ring
    std::uint32_t msgs = 0;          ///< messages in the open batch
    std::size_t batch_hdr = kNoBatch;  ///< offset of the open kBatch header

    std::size_t pending() const { return buf.size() - sent; }
  };

  /// Start a batch wrapper: placeholder header patched at close time.
  void open_batch(TxBuf& tx) {
    tx.batch_hdr = tx.buf.size();
    const FrameHeader f{kFrameMagic, kBatch, 0};
    append(tx.buf, &f, sizeof f);
    tx.msgs = 0;
  }

  /// Seal the open batch wrapper (patch its body_len in place).
  void close_batch(TxBuf& tx) {
    if (tx.batch_hdr == TxBuf::kNoBatch) return;
    const std::uint32_t body_len = static_cast<std::uint32_t>(
        tx.buf.size() - tx.batch_hdr - sizeof(FrameHeader));
    std::memcpy(tx.buf.data() + tx.batch_hdr + offsetof(FrameHeader, body_len),
                &body_len, sizeof body_len);
    tx.batch_hdr = TxBuf::kNoBatch;
    tx.msgs = 0;
  }

  /// Push the peer's queued (sealed) bytes into its ring.  The peer's bell
  /// is rung once the last byte is in, and also before each wait for room,
  /// so a peer that only polls still reads the part already written.
  void drain_tx(ProcId dst) {
    TxBuf& tx = tx_[dst];
    ACE_CHECK_MSG(tx.batch_hdr == TxBuf::kNoBatch,
                  "drain_tx with an unsealed batch wrapper");
    Ring& r = ring(self_, dst);
    bool unrung = false;  // bytes written since the last bump
    while (tx.sent < tx.buf.size()) {
      const std::size_t w =
          ring_put(r, tx.buf.data() + tx.sent, tx.buf.size() - tx.sent);
      if (w != 0) {
        tx.sent += w;
        unrung = true;
        continue;
      }
      if (unrung) ring_bell(dst);
      unrung = false;
      wait_for_room(dst);
    }
    if (unrung) ring_bell(dst);
    tx.buf.clear();
    tx.sent = 0;
  }

  /// The ring to `dst` is full: wait until its consumer frees room (it
  /// rings our bell when it sees `blocked`), spilling what peers send us
  /// meanwhile, or two ranks flooding each other would wait on each other.
  void wait_for_room(ProcId dst) {
    Ring& r = ring(self_, dst);
    const auto deadline = Clock::now() + std::chrono::milliseconds{watchdog_};
    for (;;) {
      const std::uint32_t seen = bell();
      sweep([this](Message&& m) { spill_.push_back(std::move(m)); });
      r.blocked.store(1, std::memory_order_seq_cst);
      if (r.has_room()) {
        r.blocked.store(0, std::memory_order_relaxed);
        return;
      }
      ACE_CHECK_MSG(bells_[dst].gone.load(std::memory_order_acquire) == 0,
                    "ring transport write to a rank that already exited");
      ACE_CHECK_MSG(sleep_while(seen, deadline),
                    "ring transport write stalled past watchdog");
    }
  }

  ProcId self_;
  std::uint32_t nprocs_;
  std::vector<pid_t> pids_;  ///< rank 0 only: children, ranks 1..N-1
  std::vector<int> status_;  ///< rank 0: each child's wait status once reaped
  Clock::time_point next_reap_check_{};
  Bell* bells_;  ///< the arena: one bell per rank, then the rings
  std::size_t arena_bytes_;
  std::uint32_t swept_bell_ = 0;  ///< bells_[self_] as of the last sweep
  std::uint32_t watchdog_;
  std::uint32_t batch_msgs_;   ///< count watermark (1 = batching off)
  std::uint32_t batch_bytes_;  ///< byte watermark for early flush
  std::vector<RxBuf> rx_;
  std::vector<TxBuf> tx_;
  std::vector<std::deque<std::vector<std::byte>>> ctrl_;
  /// Last AM seq seen per sender: program sends, handler sends.
  std::vector<std::array<std::uint64_t, 2>> expect_seq_;
  std::deque<Message> spill_;  ///< messages drained during a blocked write
  // drain's scratch, kept across drains for its capacity (empty between).
  std::vector<Message> staged_;  ///< the frames of one drain's sweeps
  std::vector<Message> fences_;  ///< fence frames deferred past user frames
  Stats* stats_ = nullptr;       ///< sweep/sleep counters (count_into)
  std::vector<bool> bye_;      ///< rank 0: which children announced teardown
  std::function<bool(HandlerId)> is_fence_;  ///< barrier-handler classifier
  bool finalized_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_proc_transport(std::uint32_t nprocs,
                                               std::uint32_t watchdog_ms,
                                               std::uint32_t batch_max_msgs,
                                               std::uint32_t batch_max_bytes) {
  ACE_CHECK_MSG(nprocs >= 1, "ring transport needs at least one rank");
  ACE_CHECK_MSG(nprocs <= 64, "ring transport capped at 64 ranks");
  // The arena, shared by every rank because it is mapped before fork.  A
  // rank's RSS counts only the pages it touches: the headers set up here,
  // and the data of the rings it actually uses.
  const std::size_t arena_bytes =
      sizeof(Bell) * nprocs + sizeof(Ring) * nprocs * nprocs;
  void* arena = ::mmap(nullptr, arena_bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ACE_CHECK_MSG(arena != MAP_FAILED, "cannot map the transport arena");
  auto* bells = static_cast<Bell*>(arena);
  auto* rings = reinterpret_cast<Ring*>(bells + nprocs);
  for (std::uint32_t r = 0; r < nprocs; ++r) new (&bells[r]) Bell;
  for (std::uint32_t i = 0; i < nprocs * nprocs; ++i) new (&rings[i]) Ring;

  // Pending stdio output would be duplicated into every child; flush first.
  std::fflush(nullptr);

  ProcId self = 0;
  std::vector<pid_t> pids;
  for (std::uint32_t r = 1; r < nprocs; ++r) {
    const pid_t pid = ::fork();
    ACE_CHECK_MSG(pid >= 0, "fork failed for a proc-backend rank");
    if (pid == 0) {
      self = r;
      pids.clear();
      // If the parent (rank 0) dies, take the whole job down with it
      // instead of leaving orphan ranks spinning in wait_for_mail.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      break;
    }
    pids.push_back(pid);
  }

  return std::make_unique<RingTransport>(self, nprocs, std::move(pids), bells,
                                         arena_bytes, watchdog_ms,
                                         batch_max_msgs, batch_max_bytes);
}

}  // namespace ace::am

#include "am/transport.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#include <signal.h>
#endif

#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "am/stats.hpp"
#include "common/check.hpp"

namespace ace::am {

namespace {

// --- wire format -----------------------------------------------------------
// frame   := u32 magic | u32 kind | u32 body_len | body
// kAm     := WireHeader | payload bytes
// kBlob   := opaque bytes (control plane)
// kBatch  := a run of complete frames, written in one syscall; body_len
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

std::chrono::steady_clock::time_point deadline_after(
    std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

int ms_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 1000) return 1000;  // re-check peers at least once/sec
  return static_cast<int>(left.count());
}

// --- the arrival doorbell -------------------------------------------------
// One cache line per rank in a MAP_SHARED page mapped before fork: bell[r]
// counts the writes other ranks made toward rank r.  A sender bumps it
// (release) once its bytes are in the kernel; a receiver loads it (acquire)
// before a sweep, and skips the sweep when it has not moved since the last
// one.  Bytes whose bump the receiver saw were in the kernel before its
// load, so the sweep after the load reads them; bytes whose bump it did not
// see move the bell for the next check.  A poll(2) wake sweeps regardless,
// because the kernel can report readable before the sender's bump lands.

struct alignas(64) Bell {
  std::atomic<std::uint64_t> rung{0};
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the doorbell is shared between processes: it must be lock-free");
static_assert(sizeof(Bell) == 64, "one bell per cache line");

// --- the fork + socketpair mesh -------------------------------------------

class SocketTransport final : public Transport {
 public:
  SocketTransport(ProcId self, std::uint32_t nprocs, std::vector<int> fds,
                  std::vector<pid_t> pids, Bell* bells, std::size_t bells_bytes,
                  std::uint32_t watchdog_ms, std::uint32_t batch_max_msgs,
                  std::uint32_t batch_max_bytes)
      : self_(self),
        nprocs_(nprocs),
        fds_(std::move(fds)),
        pids_(std::move(pids)),
        bells_(bells),
        bells_bytes_(bells_bytes),
        watchdog_(watchdog_ms),
        batch_msgs_(batch_max_msgs < 1 ? 1 : batch_max_msgs),
        batch_bytes_(batch_max_bytes),
        rx_(nprocs),
        tx_(nprocs),
        ctrl_(nprocs),
        expect_seq_(nprocs, {0, 0}),
        bye_(nprocs, false) {
    for (ProcId p = 0; p < nprocs_; ++p)
      if (fds_[p] >= 0) pfds_.push_back({fds_[p], POLLIN, 0});
  }

  ~SocketTransport() override {
    finalize(0);
    ::munmap(bells_, bells_bytes_);
  }
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  ProcId self() const override { return self_; }
  std::uint32_t nprocs() const override { return nprocs_; }
  const char* name() const override { return "proc-socket"; }

  void send(ProcId dst, const Message& m) override {
    ACE_CHECK_MSG(dst < nprocs_ && dst != self_ && fds_[dst] >= 0,
                  "socket transport send to an invalid rank");
    TxBuf& tx = tx_[dst];
    if (batch_msgs_ <= 1) {
      // Batching off: plain frame, straight onto the wire.
      append_message(tx.buf, m);
      drain_tx(dst);
      return;
    }
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
      if (fds_[p] >= 0) flush(p);
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

  bool rung() const override {
    return !spill_.empty() ||
           bells_[self_].rung.load(std::memory_order_acquire) != swept_bell_;
  }

  std::size_t drain(const MessageSink& sink) override {
    std::size_t n = flush_spill(sink);
    // The doorbell: no syscall unless a peer finished a write since the
    // last sweep, or poll(2) woke us (readable can precede the bump).
    const std::uint64_t bell = bells_[self_].rung.load(std::memory_order_acquire);
    if (bell == swept_bell_ && !woke_) return n;
    swept_bell_ = bell;
    woke_ = false;
    // Stage one full sweep of every peer.  If the sweep picked up a fence
    // (barrier) frame, sweep again: everything sent before that fence was
    // already buffered on its own stream when the fence was read (stream
    // writes complete synchronously into the peer's kernel buffer), so one
    // more pass closes the causal set.  Repeat while fences keep arriving.
    bool saw_fence = true;
    while (saw_fence) {
      saw_fence = false;
      const std::size_t before = staged_.size();
      sweep([this](Message&& m) { staged_.push_back(std::move(m)); });
      for (std::size_t i = before; i < staged_.size(); ++i)
        if (is_fence(staged_[i].handler)) saw_fence = true;
    }
    // Emit with fence frames deferred past the user frames of this drain:
    // fd-scan order is not causal order (see set_fence_predicate), and
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
    const auto deadline = deadline_after(timeout);
    for (;;) {
      if (drain(sink) != 0) return true;
      if (!poll_in(deadline)) return false;
    }
  }

  std::vector<std::byte> recv_blob(ProcId src,
                                   std::chrono::milliseconds timeout,
                                   const MessageSink& sink) override {
    const auto deadline = deadline_after(timeout);
    flush_all();  // defensive: never block on a peer with frames still queued
    for (;;) {
      flush_spill(sink);
      if (!ctrl_[src].empty()) {
        auto blob = std::move(ctrl_[src].front());
        ctrl_[src].pop_front();
        return blob;
      }
      read_available(src, sink);
      if (!ctrl_[src].empty()) continue;
      struct pollfd pfd = {fds_[src], POLLIN, 0};
      const int r = ::poll(&pfd, 1, ms_until(deadline));
      ACE_CHECK_MSG(r >= 0 || errno == EINTR, "poll failed in recv_blob");
      ACE_CHECK_MSG(std::chrono::steady_clock::now() < deadline,
                    "recv_blob timed out waiting for a peer rank");
    }
  }

  int finalize(int exit_code) override {
    if (finalized_) return 0;
    finalized_ = true;
    // Teardown must be orderly: a rank that closed its sockets unilaterally
    // would race peers still draining their last frames (they would read
    // EOF mid-protocol and report a crash).  So children announce "bye" to
    // rank 0 and then wait for rank 0 — who closes the whole mesh only
    // after every child said bye (or died) — to hang up on them first.
    if (self_ != 0) {
      if (fds_[0] >= 0) {
        TxBuf& tx = tx_[0];
        close_batch(tx);
        const FrameHeader bye{kFrameMagic, kBye, 0};
        append(tx.buf, &bye, sizeof bye);
        drain_tx(0);
        wait_peer_eof(fds_[0]);
      }
      for (int& fd : fds_)
        if (fd >= 0) {
          ::close(fd);
          fd = -1;
        }
      // Forked rank: this process exists only to be a processor.  _Exit
      // skips atexit/static destruction and, crucially, does not flush
      // stdio buffers inherited from the pre-fork parent (which would
      // duplicate the parent's pending output N times).
      std::_Exit(exit_code);
    }
    for (ProcId r = 1; r < nprocs_; ++r) wait_bye(r);
    for (int& fd : fds_)
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    int bad = 0;
    for (pid_t pid : pids_) {
      int status = 0;
      pid_t r;
      do {
        r = ::waitpid(pid, &status, 0);
      } while (r < 0 && errno == EINTR);
      if (r < 0) continue;  // already reaped
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr,
                     "ace::am proc backend: child pid %d exited abnormally "
                     "(status 0x%x)\n",
                     static_cast<int>(pid), status);
        bad += 1;
      }
    }
    pids_.clear();
    return bad;
  }

 private:
  /// Per-peer receive reassembly: a byte buffer accumulating stream data
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

  bool is_fence(HandlerId h) const { return is_fence_ && is_fence_(h); }

  /// One non-blocking `recv` pass over every peer.
  void sweep(const MessageSink& sink) {
    if (stats_ != nullptr) stats_->sweeps += 1;
    for (ProcId p = 0; p < nprocs_; ++p)
      if (fds_[p] >= 0) read_available(p, sink);
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

  /// Non-blocking read of everything available from peer `p`; complete AM
  /// frames go to `sink`, control frames queue on ctrl_[p].
  std::size_t read_available(ProcId p, const MessageSink& sink) {
    RxBuf& rx = rx_[p];
    char tmp[64 * 1024];
    for (;;) {
      const ssize_t r = ::recv(fds_[p], tmp, sizeof tmp, 0);
      if (r > 0) {
        append(rx.buf, tmp, static_cast<std::size_t>(r));
        if (static_cast<std::size_t>(r) < sizeof tmp) break;
        continue;
      }
      if (r == 0)
        check_failed("socket transport", __FILE__, __LINE__,
                     "peer rank closed the connection (did it crash?)");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      check_failed("socket transport", __FILE__, __LINE__,
                   "read from peer rank failed");
    }
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
        // (it may still be in flight, or cut short by a kernel-buffer
        // boundary mid-batch).
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
                      "per-sender FIFO violated on the socket transport");
        sink(std::move(m));
        delivered += 1;
      } else if (f.kind == kBlob) {
        ctrl_[p].emplace_back(body, body + f.body_len);
      } else if (f.kind == kBye) {
        bye_[p] = true;
      } else {
        check_failed("socket transport", __FILE__, __LINE__,
                     "unknown frame kind on the wire");
      }
      rx.consumed += sizeof f + f.body_len;
    }
    rx.compact();
    return delivered;
  }

  /// Rank 0, teardown: wait until child `r` announces bye, closes its end,
  /// or the watchdog passes.  Tolerant by design — this runs on the report
  /// path too, where the child may already be dead; the reap below is what
  /// classifies child exits.
  void wait_bye(ProcId r) {
    if (fds_[r] < 0) return;
    const auto deadline =
        deadline_after(std::chrono::milliseconds{watchdog_});
    while (!bye_[r]) {
      struct pollfd pfd = {fds_[r], POLLIN, 0};
      const int pr = ::poll(&pfd, 1, ms_until(deadline));
      if (pr < 0 && errno != EINTR) return;
      if (std::chrono::steady_clock::now() >= deadline) return;
      if (pr <= 0) continue;
      char tmp[4096];
      const ssize_t n = ::recv(fds_[r], tmp, sizeof tmp, 0);
      if (n == 0) return;  // child hung up (crashed or already exiting)
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        return;
      }
      append(rx_[r].buf, tmp, static_cast<std::size_t>(n));
      // Residual frames ahead of the bye belong to a failed run that never
      // quiesced; they have no consumer anymore, so scan-and-discard.
      RxBuf& rx = rx_[r];
      while (rx.pending() >= sizeof(FrameHeader)) {
        FrameHeader f;
        std::memcpy(&f, rx.front(), sizeof f);
        if (f.kind == kBatch) {  // wrapper only — scan the enclosed frames
          rx.consumed += sizeof f;
          continue;
        }
        if (rx.pending() < sizeof f + f.body_len) break;
        if (f.kind == kBye) bye_[r] = true;
        rx.consumed += sizeof f + f.body_len;
      }
      rx.compact();
    }
  }

  /// Child, teardown: drain-and-discard until rank 0 closes the mesh (EOF)
  /// or the watchdog passes.
  void wait_peer_eof(int fd) {
    const auto deadline =
        deadline_after(std::chrono::milliseconds{watchdog_});
    for (;;) {
      struct pollfd pfd = {fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, ms_until(deadline));
      if (pr < 0 && errno != EINTR) return;
      if (std::chrono::steady_clock::now() >= deadline) return;
      if (pr <= 0) continue;
      char tmp[4096];
      const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
      if (n == 0) return;
      if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
        return;
    }
  }

  /// Block until any peer is readable or the deadline passes.
  bool poll_in(std::chrono::steady_clock::time_point deadline) {
    if (stats_ != nullptr) stats_->sleeps += 1;
    for (;;) {
      const int r = ::poll(pfds_.data(), pfds_.size(), ms_until(deadline));
      if (r > 0) {
        woke_ = true;
        return true;
      }
      if (r < 0 && errno != EINTR)
        check_failed("socket transport", __FILE__, __LINE__, "poll failed");
      if (std::chrono::steady_clock::now() >= deadline) return false;
    }
  }

  /// Per-peer transmit queue.  Every byte bound for a peer — batched AM
  /// frames, control blobs, the teardown bye — is appended here and drained
  /// in order from the `sent` offset, so a partial kernel write (short
  /// send / EAGAIN mid-payload) resumes at the exact byte where it stopped
  /// and no later frame can interleave into an unfinished one.  (The old
  /// per-frame write loop recomputed its offset per call; a single ordered
  /// queue makes the interleave bug structurally impossible.)
  struct TxBuf {
    static constexpr std::size_t kNoBatch = static_cast<std::size_t>(-1);
    std::vector<std::byte> buf;
    std::size_t sent = 0;            ///< bytes already on the wire
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

  /// Push the peer's queued bytes onto the wire (everything before any
  /// still-open batch wrapper was already sealed by the callers).  On a
  /// full send buffer, drain incoming frames into the spill queue while
  /// waiting for POLLOUT — the classic fix for two ranks flooding each
  /// other past both kernel buffers.  The peer's bell is rung once the
  /// last byte is in the kernel, and also before each wait for POLLOUT, so
  /// a peer that only polls still reads the part already written and frees
  /// the window this write is waiting on.
  void drain_tx(ProcId dst) {
    TxBuf& tx = tx_[dst];
    ACE_CHECK_MSG(tx.batch_hdr == TxBuf::kNoBatch,
                  "drain_tx with an unsealed batch wrapper");
    bool unrung = false;  // bytes written since the last bump
    while (tx.sent < tx.buf.size()) {
      // MSG_NOSIGNAL: a dead peer must surface as a checkable error (EPIPE
      // below), not kill this rank with SIGPIPE.
      const ssize_t w = ::send(fds_[dst], tx.buf.data() + tx.sent,
                               tx.buf.size() - tx.sent, MSG_NOSIGNAL);
      if (w > 0) {
        tx.sent += static_cast<std::size_t>(w);
        unrung = true;
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (unrung) ring(dst);
        unrung = false;
        // Receiver not keeping up: pull what peers have sent us (so they
        // can make progress too), then wait for writability.
        sweep([this](Message&& m) { spill_.push_back(std::move(m)); });
        struct pollfd pfd = {fds_[dst], POLLOUT, 0};
        const int r = ::poll(&pfd, 1, static_cast<int>(watchdog_));
        ACE_CHECK_MSG(r != 0, "socket transport write stalled past watchdog");
        continue;
      }
      check_failed("socket transport", __FILE__, __LINE__,
                   "write to peer rank failed (peer crashed?)");
    }
    if (unrung) ring(dst);
    tx.buf.clear();
    tx.sent = 0;
  }

  void ring(ProcId dst) {
    bells_[dst].rung.fetch_add(1, std::memory_order_release);
  }

  ProcId self_;
  std::uint32_t nprocs_;
  std::vector<int> fds_;     ///< fds_[p]: stream to rank p (-1 for self)
  std::vector<pid_t> pids_;  ///< rank 0 only: children, ranks 1..N-1
  Bell* bells_;              ///< the shared page: one bell per rank
  std::size_t bells_bytes_;
  std::uint64_t swept_bell_ = 0;  ///< bells_[self_] as of the last sweep
  bool woke_ = false;  ///< poll(2) saw a readable peer: sweep next drain
  std::vector<struct pollfd> pfds_;  ///< every peer, POLLIN (poll_in)
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

void set_socket_options(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ACE_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "cannot make transport socket non-blocking");
  // Bigger kernel buffers shrink the window where drain_tx has to spill;
  // best-effort (capped by wmem_max without privileges).  ACE_SOCK_SNDBUF
  // overrides both directions — tests shrink it to force short writes.
  int sz = 1 << 20;
  if (const char* env = std::getenv("ACE_SOCK_SNDBUF")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) sz = static_cast<int>(v);
  }
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof sz);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof sz);
}

}  // namespace

std::unique_ptr<Transport> make_socket_transport(std::uint32_t nprocs,
                                                 std::uint32_t watchdog_ms,
                                                 std::uint32_t batch_max_msgs,
                                                 std::uint32_t batch_max_bytes) {
  ACE_CHECK_MSG(nprocs >= 1, "socket transport needs at least one rank");
  ACE_CHECK_MSG(nprocs <= 64,
                "socket transport mesh capped at 64 ranks (fd budget)");
  // Full mesh of stream socketpairs, created BEFORE fork so every rank
  // inherits every endpoint and just closes the ones it does not own.
  // mesh[i][j] (i < j): end [0] belongs to rank i, end [1] to rank j.
  std::vector<std::vector<std::array<int, 2>>> mesh(nprocs);
  for (std::uint32_t i = 0; i < nprocs; ++i) {
    mesh[i].resize(nprocs, {-1, -1});
    for (std::uint32_t j = i + 1; j < nprocs; ++j) {
      int sv[2];
      ACE_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                    "socketpair failed (fd limit? try fewer ranks)");
      mesh[i][j] = {sv[0], sv[1]};
    }
  }

  // The doorbell page, shared by every rank because it is mapped before fork.
  const std::size_t bells_bytes = sizeof(Bell) * nprocs;
  void* page = ::mmap(nullptr, bells_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ACE_CHECK_MSG(page != MAP_FAILED, "cannot map the transport doorbell page");
  auto* bells = static_cast<Bell*>(page);
  for (std::uint32_t r = 0; r < nprocs; ++r) new (&bells[r]) Bell;

  // Pending stdio output would be duplicated into every child; flush first.
  std::fflush(nullptr);

  ProcId self = 0;
  std::vector<pid_t> pids;
  for (std::uint32_t r = 1; r < nprocs; ++r) {
    const pid_t pid = ::fork();
    ACE_CHECK_MSG(pid >= 0, "fork failed for socket-transport rank");
    if (pid == 0) {
      self = r;
      pids.clear();
#if defined(__linux__)
      // If the parent (rank 0) dies, take the whole job down with it
      // instead of leaving orphan ranks spinning in wait_for_mail.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
      break;
    }
    pids.push_back(pid);
  }

  // Keep only this rank's endpoints; close the rest of the mesh.
  std::vector<int> fds(nprocs, -1);
  for (std::uint32_t i = 0; i < nprocs; ++i)
    for (std::uint32_t j = i + 1; j < nprocs; ++j) {
      const auto [a, b] = mesh[i][j];
      if (self == i) {
        fds[j] = a;
        ::close(b);
      } else if (self == j) {
        fds[i] = b;
        ::close(a);
      } else {
        ::close(a);
        ::close(b);
      }
    }
  for (std::uint32_t p = 0; p < nprocs; ++p)
    if (fds[p] >= 0) set_socket_options(fds[p]);

  return std::make_unique<SocketTransport>(
      self, nprocs, std::move(fds), std::move(pids), bells, bells_bytes,
      watchdog_ms, batch_max_msgs, batch_max_bytes);
}

}  // namespace ace::am

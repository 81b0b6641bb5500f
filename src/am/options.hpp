// Machine construction options: the backend-neutral bring-up surface.
//
// Historically a Machine was constructed directly as "N OS threads in one
// process under modeled time".  With a second, multi-process backend
// the construction parameters (which backend, which cost model, which time
// source, how patient the deadlock watchdog is) became part of the API, so
// they live in one options struct consumed by Machine::create, the only
// way to construct a Machine.
#pragma once

#include <cstdint>
#include <string>

#include "am/stats.hpp"

namespace ace::am {

/// Which substrate carries the processors.
enum class Backend : std::uint8_t {
  /// One OS thread per processor in this process, mailboxes are in-memory
  /// vectors that poll() swaps out whole.  Deterministic under delivery
  /// policies; the only backend that supports replay logs, fuzzing, and
  /// cross-processor introspection.
  kThread,
  /// One OS *process* per processor (fork + a shared-memory ring per
  /// ordered rank pair); messages are serialized through the rings.  The
  /// calling process is rank 0; ranks 1..N-1 are forked at Machine::create
  /// and exit when the Machine is destroyed.  Honors the same delivery
  /// contract (per-sender FIFO, barrier flush lemma); wall time on this
  /// backend is real IPC.
  kProc,
};

/// What a processor's clock measures.
enum class TimeMode : std::uint8_t {
  /// Virtual clocks advanced by CostModel charges (the paper's modeled
  /// time; host-independent, the default).
  kModeled,
  /// Clocks read the host's monotonic clock; CostModel charges are ignored.
  /// With Backend::kProc this makes max_vclock_ns an honest wall-time
  /// measurement of real inter-process execution.
  kWall,
};

/// Everything Machine::create needs.  Aggregate-initializable:
///   Machine::create({.nprocs = 8, .backend = Backend::kProc})
struct MachineOptions {
  std::uint32_t nprocs = 1;
  Backend backend = Backend::kThread;
  CostModel cost_model{};
  TimeMode time_mode = TimeMode::kModeled;
  /// Deadlock watchdog for blocking waits (wait_until / wait_for_mail).
  /// Generous because benches serialize many processors onto few host
  /// cores; tests that exercise the deadlock report shrink it.
  std::uint32_t watchdog_ms = 120'000;
  /// Per-(src, dst) send coalescing (the delivery hot path's batching
  /// layer).  Outgoing messages accumulate in a per-destination buffer and
  /// are handed to the destination in one operation — one mailbox lock per
  /// segment on the thread backend, one multi-frame ring write per segment
  /// on the proc backend — when the sender polls, enters a barrier, sends a
  /// barrier/control message, or hits this count watermark.  0 or 1
  /// disables coalescing (every send flushes immediately).  Semantics are
  /// unaffected: per-sender FIFO, the barrier flush lemma, delivery
  /// policies, statistics, and modeled time are identical either way.
  std::uint32_t batch_max_msgs = 64;
  /// Proc backend: flush a destination's batch early once its encoded
  /// frames exceed this many bytes (bounds peak buffering; large payloads
  /// flush immediately).
  std::uint32_t batch_max_bytes = 64 * 1024;
};

inline const char* backend_name(Backend b) {
  return b == Backend::kThread ? "thread" : "proc-socket";
}

/// Parse a --backend flag value ("thread" | "proc").  Returns kThread for
/// unknown strings and reports via the bool, so CLIs can fail cleanly.
inline bool parse_backend(const std::string& s, Backend& out) {
  if (s == "thread") {
    out = Backend::kThread;
    return true;
  }
  if (s == "proc" || s == "process" || s == "socket") {
    out = Backend::kProc;
    return true;
  }
  return false;
}

}  // namespace ace::am

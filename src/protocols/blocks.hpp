// Protocol building blocks (§6): "Protocol development would also be
// facilitated by the creation of a library of protocol building blocks ...
// We are currently attempting to isolate the primitives needed for such a
// library."
//
// These are the primitives that kept recurring while writing the shipped
// protocol library; new protocols (see race_check.hpp for a worked example)
// compose them instead of re-deriving the idioms:
//
//   * SharerSet      — a home-side sharer directory with the insert/remove
//                      discipline every update/invalidate protocol needs;
//   * EpochLog       — per-region reader/writer sets for the current
//                      barrier epoch (conflict detection, adaptivity);
//   * fetch_service  — the request/reply pair behind every "fetch the
//                      region from its home" miss path.
//
// On top of the primitives sit the three *stateful* fetch-stage engines a
// composed protocol (`stack { ... }` in protocols.cfg) is driven by:
//
//   * ValidBitBlock  — per-copy valid bit + home fetch, parameterized by the
//                      write and order blocks (covers the DynamicUpdate /
//                      StaticUpdate / HomeWrite family and its new siblings);
//   * DirectoryBlock — the full MSI home directory with exclusive recalls
//                      (the SC engine; a host over dsm::DirectoryEngine,
//                      which the CRL baseline runs too);
//   * OwnerBlock     — single migrating owner (the Migratory engine).
//
// The driver that routes Protocol hooks into an engine is
// protocols::ComposedProtocol (composed.hpp); the static derivation of hook
// bits and cost descriptors from a stack is src/ace/stack.{hpp,cpp}.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "ace/protocol.hpp"
#include "ace/runtime.hpp"
#include "dsm/directory.hpp"

namespace ace::protocols::blocks {

/// Home-side sharer directory.
class SharerSet {
 public:
  void add(am::ProcId p) {
    if (!contains(p)) procs_.push_back(p);
  }
  void remove(am::ProcId p) {
    procs_.erase(std::remove(procs_.begin(), procs_.end(), p), procs_.end());
  }
  bool contains(am::ProcId p) const {
    return std::find(procs_.begin(), procs_.end(), p) != procs_.end();
  }
  void clear() { procs_.clear(); }
  bool empty() const { return procs_.empty(); }
  std::size_t size() const { return procs_.size(); }
  const std::vector<am::ProcId>& procs() const { return procs_; }

  /// Send `op` with the region's current contents to every sharer except
  /// `skip` (the canonical update-push loop).
  void push_to_all(RuntimeProc& rp, Region& r, std::uint32_t op,
                   am::ProcId skip = dsm::kNoProc) const {
    if (procs_.empty()) return;
    // One pooled snapshot shared (refcounted) across every sharer's message.
    const am::PayloadRef snap = rp.snapshot(r);
    for (am::ProcId p : procs_) {
      if (p == skip) continue;
      rp.dstats(r.space()).updates += 1;
      rp.send_proto(p, r.id(), op, 0, 0, snap);
    }
  }

 private:
  std::vector<am::ProcId> procs_;
};

/// Who touched a region in the current barrier epoch (home side).
struct EpochLog {
  SharerSet readers;
  SharerSet writers;

  void clear() {
    readers.clear();
    writers.clear();
  }

  /// Record an access; returns true if it conflicts with an access already
  /// logged this epoch by a *different* processor (write-write, or
  /// read-write in either order).
  bool record(am::ProcId p, bool is_write) {
    bool conflict = false;
    if (is_write) {
      conflict = other_than(writers, p) || other_than(readers, p);
      writers.add(p);
    } else {
      conflict = other_than(writers, p);
      readers.add(p);
    }
    return conflict;
  }

 private:
  static bool other_than(const SharerSet& s, am::ProcId p) {
    for (am::ProcId q : s.procs())
      if (q != p) return true;
    return false;
  }
};

/// The miss path: a requester blocks on a fetch; the home replies with the
/// region contents.  Callers provide the two opcodes.
inline void fetch_blocking(RuntimeProc& rp, Region& r, std::uint32_t req_op) {
  rp.dstats(r.space()).read_misses += 1;
  rp.blocking_request(r,
                      [&] { rp.send_proto(r.home_proc(), r.id(), req_op); });
}

/// Home-side half: serve a fetch request.
inline void fetch_serve(RuntimeProc& rp, Region& r, am::ProcId requester,
                        std::uint32_t reply_op) {
  rp.dstats(r.space()).fetches += 1;
  rp.send_proto(requester, r.id(), reply_op, 0, 0, rp.snapshot(r));
}

/// Requester-side half: install the reply and wake the blocked op.
inline void fetch_install(RuntimeProc& rp, Region& r, const am::Message& m) {
  rp.install_data(r, m.payload);
  r.op_done = true;
}

// --- stateful fetch-stage engines -----------------------------------------

/// Valid-bit engine: remote copies carry a per-copy valid bit; a miss blocks
/// on a home fetch.  The write block decides what writes oblige the writer
/// to do, the order block what Ace_Barrier settles.  Together they cover the
/// update/home-write protocol family.
class ValidBitBlock {
 public:
  enum PState : std::uint32_t {
    kValid = 1,
    /// Written locally since the last release (downgrade_on_release only):
    /// the copy holds buffered writes the home has not seen yet.
    kDirty = 2,
  };
  enum Op : std::uint32_t {
    kFetch,
    kFetchData,
    kUpdate,
    kPush,
    kDrop,
    kWriteBack,  ///< dirty copy contents -> home (release/barrier/flush)
    kWbAck,      ///< home's confirmation; Ace_Release blocks on these
  };

  /// Home-side state: recorded sharers (update stacks only) plus the
  /// written-since-last-barrier bit the mark_dirty write block sets.
  struct HomeDir : dsm::RegionExt {
    SharerSet sharers;
    bool dirty = false;
  };

  ValidBitBlock(RuntimeProc& rp, std::uint32_t space_id,
                const ProtocolInfo& info)
      : rp_(rp), space_id_(space_id), info_(info) {}

  void start_read(Region& r);
  void start_write(Region& r);
  void end_write(Region& r);
  void barrier();
  /// Acquire/release ordering events (order block self_invalidate only;
  /// no-ops otherwise).  Acquire drops clean remote copies locally — zero
  /// messages.  Release writes dirty copies back (downgrade_on_release) and
  /// blocks until the home has acknowledged every outstanding write-back /
  /// eager update, so a subsequent acquirer's refetch observes the data.
  void acquire();
  void release();
  void flush();
  void on_message(Region& r, std::uint32_t op, am::Message& m);

 private:
  void fetch(Region& r);
  /// Update stacks record who fetched a copy; home-fetch stacks do not (the
  /// home never pushes, so a sharer list would be dead weight).
  bool track_sharers() const {
    return info_.stack.write == WriteBlock::kPushOnWrite ||
           info_.stack.write == WriteBlock::kMarkDirty;
  }
  bool self_invalidate() const {
    return info_.stack.order == OrderBlock::kSelfInvalidate;
  }

  RuntimeProc& rp_;
  std::uint32_t space_id_;
  const ProtocolInfo& info_;
  /// Write-backs / acked updates in flight (self_invalidate order only).
  std::uint32_t pending_acks_ = 0;
};

/// The SC fetch stage: the shared MSI home-directory engine
/// (dsm::DirectoryEngine, dsm/directory.hpp) hosted over this processor's
/// RuntimeProc, charging the space's counters.  CRL runs the same engine.
class DirectoryBlock {
 public:
  DirectoryBlock(RuntimeProc& rp, std::uint32_t space_id)
      : rp_(rp), space_id_(space_id) {}

  void start_read(Region& r) { engine_.start_read(r); }
  void end_read(Region& r) { engine_.end_access(r); }
  void start_write(Region& r) { engine_.start_write(r); }
  void end_write(Region& r) { engine_.end_access(r); }
  void flush() {
    rp_.regions().for_each_in_space(space_id_,
                                    [&](Region& r) { engine_.flush(r); });
  }
  void on_message(Region& r, std::uint32_t op, am::Message& m) {
    engine_.on_message(r, op, m.src, m.args[3], m.payload);
  }

 private:
  friend class dsm::DirectoryEngine<DirectoryBlock>;

  // --- the engine's host interface ---
  am::ProcId me() const { return rp_.me(); }
  am::Proc& proc() { return rp_.proc(); }
  void send(am::ProcId dst, Region& r, std::uint32_t op, std::uint64_t a,
            am::PayloadRef payload) {
    rp_.send_proto(dst, r.id(), op, a, 0, std::move(payload));
  }
  void install(Region& r, const am::PayloadRef& payload) {
    rp_.install_data(r, payload);
  }
  am::PayloadRef snapshot(Region& r) { return rp_.snapshot(r); }
  DsmStats& stats() { return rp_.dstats(space_id_); }

  RuntimeProc& rp_;
  std::uint32_t space_id_;
  dsm::DirectoryEngine<DirectoryBlock> engine_{*this};
};

/// Migrating-owner engine: ownership (and the data) moves to whichever
/// processor touches the region, with home-serialized transfers (the
/// Migratory protocol's mechanics, hosted as a composable fetch stage).
class OwnerBlock {
 public:
  enum PState : std::uint32_t {
    kOwned = 1,
    kPendingRecall = 2,
    /// Ownership granted but not yet used; defers a chasing recall (and the
    /// home's queue drain) until the granted access episode completes.
    kFreshGrant = 4,
  };

  struct HomeDir : dsm::RegionExt {
    am::ProcId owner = dsm::kNoProc;
    bool busy = false;
    bool waiting_local_drain = false;
    am::ProcId requester = dsm::kNoProc;
    std::deque<am::ProcId> queue;
  };

  OwnerBlock(RuntimeProc& rp, std::uint32_t space_id)
      : rp_(rp), space_id_(space_id) {}

  void acquire(Region& r);
  void maybe_release(Region& r);
  void region_created(Region& r);
  void init();
  void flush();
  void on_message(Region& r, std::uint32_t op, am::Message& m);

 private:
  enum Op : std::uint32_t { kAcquire, kRecall, kMigData, kGrant };

  void serve(Region& r, am::ProcId requester);
  void grant(Region& r, am::ProcId requester, bool deferred = false);
  void home_release_check(Region& r);

  RuntimeProc& rp_;
  std::uint32_t space_id_;
};

}  // namespace ace::protocols::blocks

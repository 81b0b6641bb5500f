// The MSI home-directory engine with exclusive recalls: the one coherence
// state machine behind both Ace's SC protocol (the `directory` fetch stage,
// protocols::blocks::DirectoryBlock) and the CRL baseline (crl::CrlProc).
// Figure 7a compares the two systems on the same protocol, so they run the
// same engine; what differs is the front end around it (mapping path, per-op
// cost, dispatch), never the coherence traffic.
//
// The engine is a class template over its Host, so every call into the host
// is direct (no indirect call on the Ace SC path).  A Host supplies:
//
//   am::ProcId me();
//   am::Proc& proc();                    // charge_rtt, wait_until
//   void send(am::ProcId dst, Region& r, std::uint32_t op, std::uint64_t a,
//             am::PayloadRef payload);   // deliver op to dst's engine
//   void install(Region& r, const am::PayloadRef& payload);
//   am::PayloadRef snapshot(Region& r);
//   DsmStats& stats();                   // misses, invalidations, recalls,
//                                        // fetches, flushes
//
// and routes each message it receives for op < kNumOps to on_message, with
// the sender, the `a` word and the payload.  Opcodes from kNumOps up are the
// host's own.
//
// Home side: the directory entry (HomeDir) records the sharers or the
// exclusive owner.  A request that needs a recall, invalidations, or the
// home's own access to drain first makes the entry busy; later requests
// queue behind it, and complete_pending serves the deferred request once
// the blocking condition clears.  Handlers never block, so every multi-step
// transition is a continuation at the home.  The home's own accesses go
// through the same queue (home_request) and wait for their turn.
//
// Requester side: a copy's state lives in Region::pstate (RState).  A recall
// or invalidation that lands while an access is in progress is remembered
// in a pending bit and acted on when the access episode drains (end_access).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ostream>
#include <utility>
#include <vector>

#include "am/machine.hpp"
#include "common/check.hpp"
#include "dsm/region.hpp"
#include "obs/metrics.hpp"

namespace ace::dsm {

template <class Host>
class DirectoryEngine {
 public:
  /// Remote-copy state in Region::pstate.
  enum RState : std::uint32_t {
    kInvalid = 0,
    kShared = 1,
    kModified = 2,
    kStateMask = 3,
    kPendingInv = 1u << 2,
    kPendingRecallShared = 1u << 3,
    kPendingRecallExcl = 1u << 4,
    /// Grant received but not yet used by the waiting access.  A recall or
    /// invalidation that arrives in the same delivery batch defers as if the
    /// access were in progress, so every grant is used at least once.
    /// Without it, message coalescing turns the grant/recall race into a
    /// deterministic livelock.  Set by the grant handlers, cleared when the
    /// access episode drains.
    kFreshGrant = 1u << 5,
  };

  /// Home directory entry.
  struct HomeDir : RegionExt {
    enum class Kind : std::uint8_t {
      kNone,
      kRemoteRead,
      kRemoteWrite,
      kLocalRead,
      kLocalWrite,
    };
    std::vector<ProcId> sharers;
    ProcId owner = kNoProc;
    bool busy = false;
    bool waiting_local_drain = false;
    std::uint32_t pending_acks = 0;
    Kind kind = Kind::kNone;
    ProcId requester = kNoProc;
    std::deque<std::pair<Kind, ProcId>> queue;
  };

  enum Op : std::uint32_t {
    kReadReq,
    kWriteReq,
    kReadData,
    kWriteData,
    kUpgradeAck,
    kInv,
    kInvAck,
    kRecallShared,
    kRecallExcl,
    kRecallData,
    kFlushMsg,
    kNumOps,
  };

  explicit DirectoryEngine(Host& host) : host_(host) {}

  static std::uint32_t rstate(const Region& r) { return r.pstate & kStateMask; }

  /// The region's copy state and, at its home, the directory entry, for a
  /// deadlock report line.
  static void dump(std::ostream& os, const Region& r) {
    os << " rstate=" << rstate(r);
    const auto* dir = dynamic_cast<const HomeDir*>(r.ext.get());
    if (dir == nullptr) return;
    os << " dir{owner=";
    if (dir->owner == kNoProc)
      os << "-";
    else
      os << dir->owner;
    os << " sharers=" << dir->sharers.size() << " busy=" << dir->busy
       << " pending_acks=" << dir->pending_acks
       << " queue=" << dir->queue.size() << "}";
  }

  /// Acquire read access; returns once the local copy is valid.
  void start_read(Region& r) {
    if (r.is_home()) {
      auto& dir = r.ext_as<HomeDir>();
      // Home data is valid whenever no remote holds exclusivity.  Loop: a
      // queued remote write may steal exclusivity back in the same poll
      // batch that completed our request.
      while (dir.owner != kNoProc || dir.busy)
        home_request(r, Kind::kLocalRead);
      return;
    }
    while (rstate(r) == kInvalid) {
      host_.stats().read_misses += 1;
      remote_request(r, kReadReq);
    }
  }

  /// Acquire exclusive access; returns once no other copy exists.
  void start_write(Region& r) {
    if (r.is_home()) {
      ACE_CHECK_MSG(r.active_readers == 0,
                    "home write while holding a read on the same region");
      auto& dir = r.ext_as<HomeDir>();
      while (dir.owner != kNoProc || !dir.sharers.empty() || dir.busy)
        home_request(r, Kind::kLocalWrite);
      return;
    }
    ACE_CHECK_MSG(rstate(r) == kModified || r.active_readers == 0,
                  "write upgrade while holding a read on the same region");
    while (rstate(r) != kModified) {
      host_.stats().write_misses += 1;
      remote_request(r, kWriteReq);
    }
  }

  /// End of a read or write; the caller has already dropped the region's
  /// active reader/writer count.  When the episode drains, run what it
  /// deferred.
  void end_access(Region& r) {
    if (r.active_readers != 0 || r.active_writers != 0) return;
    if (r.is_home()) {
      auto& dir = r.ext_as<HomeDir>();
      if (dir.busy && dir.waiting_local_drain) complete_pending(r);
      return;
    }
    r.pstate &= ~kFreshGrant;
    if (r.pstate & kPendingInv) {
      ACE_DCHECK(rstate(r) == kShared);
      r.pstate = kInvalid;
      host_.send(r.home_proc(), r, kInvAck, 0, {});
    } else if (r.pstate & kPendingRecallShared) {
      set_rstate(r, kShared);
      r.pstate &= ~kPendingRecallShared;
      host_.send(r.home_proc(), r, kRecallData, /*shared=*/1,
                 host_.snapshot(r));
    } else if (r.pstate & kPendingRecallExcl) {
      r.pstate = kInvalid;
      host_.send(r.home_proc(), r, kRecallData, /*shared=*/0,
                 host_.snapshot(r));
    }
  }

  /// Return a remote copy to the base state "all data valid at its home"
  /// (Ace_ChangeProtocol): a modified copy sends its data home.
  void flush(Region& r) {
    if (r.is_home()) return;
    if (rstate(r) == kModified) {
      host_.stats().flushes += 1;
      host_.send(r.home_proc(), r, kFlushMsg, 0, host_.snapshot(r));
    }
    r.pstate = kInvalid;
  }

  void on_message(Region& r, std::uint32_t op, ProcId src, std::uint64_t a,
                  const am::PayloadRef& payload) {
    switch (static_cast<Op>(op)) {
      case kReadReq:
        enqueue_or_serve(r, Kind::kRemoteRead, src);
        return;
      case kWriteReq:
        enqueue_or_serve(r, Kind::kRemoteWrite, src);
        return;
      case kReadData:
        if (a == 1) host_.proc().charge_rtt();  // recall round first
        host_.install(r, payload);
        set_rstate(r, kShared);
        r.pstate |= kFreshGrant;
        r.op_done = true;
        return;
      case kWriteData:
        if (a == 1) host_.proc().charge_rtt();
        host_.install(r, payload);
        set_rstate(r, kModified);
        r.pstate |= kFreshGrant;
        r.op_done = true;
        return;
      case kUpgradeAck:
        if (a == 1) host_.proc().charge_rtt();
        ACE_DCHECK(rstate(r) == kShared);
        set_rstate(r, kModified);
        r.pstate |= kFreshGrant;
        r.op_done = true;
        return;
      case kInv:
        ACE_CHECK_MSG(rstate(r) == kShared, "INV for a non-shared copy");
        if (r.active_readers > 0 || (r.pstate & kFreshGrant) != 0) {
          r.pstate |= kPendingInv;
        } else {
          r.pstate = kInvalid;
          host_.send(r.home_proc(), r, kInvAck, 0, {});
        }
        return;
      case kInvAck: {
        auto& dir = r.ext_as<HomeDir>();
        ACE_DCHECK(dir.busy && dir.pending_acks > 0);
        // The acker's copy is gone; drop it from the directory, or the next
        // write would re-invalidate an already-invalid copy.
        dir.sharers.erase(
            std::remove(dir.sharers.begin(), dir.sharers.end(), src),
            dir.sharers.end());
        if (--dir.pending_acks == 0) complete_pending(r);
        return;
      }
      case kRecallShared:
        ACE_CHECK_MSG(rstate(r) == kModified, "recall for a non-owned copy");
        if (r.active_writers > 0 || (r.pstate & kFreshGrant) != 0) {
          r.pstate |= kPendingRecallShared;
        } else {
          set_rstate(r, kShared);
          host_.send(r.home_proc(), r, kRecallData, /*shared=*/1,
                     host_.snapshot(r));
        }
        return;
      case kRecallExcl:
        ACE_CHECK_MSG(rstate(r) == kModified, "recall for a non-owned copy");
        if (r.active_writers > 0 || r.active_readers > 0 ||
            (r.pstate & kFreshGrant) != 0) {
          r.pstate |= kPendingRecallExcl;
        } else {
          r.pstate = kInvalid;
          host_.send(r.home_proc(), r, kRecallData, /*shared=*/0,
                     host_.snapshot(r));
        }
        return;
      case kRecallData: {
        auto& dir = r.ext_as<HomeDir>();
        ACE_DCHECK(dir.busy);
        host_.install(r, payload);
        if (a == 1) dir.sharers.push_back(src);  // owner downgraded to sharer
        dir.owner = kNoProc;
        complete_pending(r);
        return;
      }
      case kFlushMsg: {
        auto& dir = r.ext_as<HomeDir>();
        ACE_CHECK_MSG(!dir.busy, "flush while a transition is in progress");
        host_.install(r, payload);
        dir.owner = kNoProc;
        return;
      }
      case kNumOps:
        break;
    }
    ACE_CHECK_MSG(false, "unknown directory opcode");
  }

 private:
  using Kind = typename HomeDir::Kind;

  static void set_rstate(Region& r, std::uint32_t s) {
    r.pstate = (r.pstate & ~kStateMask) | s;
  }

  void remote_request(Region& r, Op op) {
    r.op_done = false;
    host_.send(r.home_proc(), r, op, 0, {});
    host_.proc().charge_rtt();
    host_.proc().wait_until([&r] { return r.op_done; });
  }

  void home_request(Region& r, Kind kind) {
    r.op_done = false;
    enqueue_or_serve(r, kind, host_.me());
    // If the op did not complete synchronously, the home stalls for at
    // least one remote round trip (invalidations or a recall).
    if (!r.op_done) host_.proc().charge_rtt();
    host_.proc().wait_until([&r] { return r.op_done; });
  }

  void enqueue_or_serve(Region& r, Kind kind, ProcId requester) {
    auto& dir = r.ext_as<HomeDir>();
    if (dir.busy)
      dir.queue.emplace_back(kind, requester);
    else
      serve(r, kind, requester);
  }

  /// Mark the entry busy with a deferred request.
  static void defer(HomeDir& dir, Kind kind, ProcId requester) {
    dir.busy = true;
    dir.kind = kind;
    dir.requester = requester;
  }

  /// `deferred`: the grant needed a recall or invalidation round first; the
  /// reply carries the flag so the requester charges the second round trip.
  void serve(Region& r, Kind kind, ProcId requester, bool deferred = false) {
    auto& dir = r.ext_as<HomeDir>();
    ACE_DCHECK(!dir.busy);
    switch (kind) {
      case Kind::kRemoteRead: {
        if (r.active_writers > 0) {
          // Home itself is writing; defer until its end_write.
          defer(dir, kind, requester);
          dir.waiting_local_drain = true;
          return;
        }
        if (dir.owner != kNoProc) {
          defer(dir, kind, requester);
          host_.stats().recalls += 1;
          host_.send(dir.owner, r, kRecallShared, 0, {});
          return;
        }
        if (std::find(dir.sharers.begin(), dir.sharers.end(), requester) ==
            dir.sharers.end())
          dir.sharers.push_back(requester);
        host_.stats().fetches += 1;
        host_.send(requester, r, kReadData, deferred ? 1 : 0,
                   host_.snapshot(r));
        return;
      }
      case Kind::kRemoteWrite: {
        if (r.active_readers > 0 || r.active_writers > 0) {
          defer(dir, kind, requester);
          dir.waiting_local_drain = true;
          return;
        }
        if (dir.owner != kNoProc) {
          ACE_CHECK_MSG(dir.owner != requester,
                        "owner re-requesting exclusivity it already holds");
          defer(dir, kind, requester);
          host_.stats().recalls += 1;
          host_.send(dir.owner, r, kRecallExcl, 0, {});
          return;
        }
        std::uint32_t invs = 0;
        for (ProcId s : dir.sharers)
          if (s != requester) {
            host_.send(s, r, kInv, 0, {});
            invs += 1;
          }
        if (invs > 0) {
          defer(dir, kind, requester);
          dir.pending_acks = invs;
          host_.stats().invalidations += invs;
          return;
        }
        grant_write(r, requester, deferred);
        return;
      }
      case Kind::kLocalRead: {
        if (dir.owner != kNoProc) {
          defer(dir, kind, requester);
          host_.stats().recalls += 1;
          host_.send(dir.owner, r, kRecallShared, 0, {});
          return;
        }
        r.op_done = true;  // home data already valid
        return;
      }
      case Kind::kLocalWrite: {
        if (dir.owner != kNoProc) {
          defer(dir, kind, requester);
          host_.stats().recalls += 1;
          host_.send(dir.owner, r, kRecallExcl, 0, {});
          return;
        }
        if (!dir.sharers.empty()) {
          defer(dir, kind, requester);
          dir.pending_acks = static_cast<std::uint32_t>(dir.sharers.size());
          host_.stats().invalidations += dir.pending_acks;
          for (ProcId s : dir.sharers) host_.send(s, r, kInv, 0, {});
          return;
        }
        r.op_done = true;
        return;
      }
      case Kind::kNone:
        ACE_CHECK(false);
    }
  }

  void grant_write(Region& r, ProcId requester, bool deferred) {
    auto& dir = r.ext_as<HomeDir>();
    const bool upgrade =
        std::find(dir.sharers.begin(), dir.sharers.end(), requester) !=
        dir.sharers.end();
    dir.sharers.clear();
    dir.owner = requester;
    host_.stats().fetches += 1;
    const std::uint64_t d = deferred ? 1 : 0;
    if (upgrade)
      host_.send(requester, r, kUpgradeAck, d, {});
    else
      host_.send(requester, r, kWriteData, d, host_.snapshot(r));
  }

  void complete_pending(Region& r) {
    auto& dir = r.ext_as<HomeDir>();
    ACE_DCHECK(dir.busy);
    const Kind kind = dir.kind;
    const ProcId requester = dir.requester;
    dir.busy = false;
    dir.waiting_local_drain = false;
    dir.kind = Kind::kNone;
    dir.requester = kNoProc;
    switch (kind) {
      case Kind::kRemoteRead:
        // Re-run the request now that the blocking condition cleared; it
        // either completes or (if the home started another access
        // meanwhile) re-defers.
        serve(r, Kind::kRemoteRead, requester, /*deferred=*/true);
        break;
      case Kind::kRemoteWrite:
        if (r.active_readers > 0 || r.active_writers > 0 ||
            dir.owner != kNoProc) {
          serve(r, Kind::kRemoteWrite, requester, /*deferred=*/true);
        } else {
          // Sharers other than the requester were invalidated (or
          // recalled); anything left is the requester itself, which
          // grant_write upgrades.
          grant_write(r, requester, /*deferred=*/true);
        }
        break;
      case Kind::kLocalRead:
      case Kind::kLocalWrite:
        r.op_done = true;
        break;
      case Kind::kNone:
        ACE_CHECK(false);
    }
    drain_queue(r);
  }

  void drain_queue(Region& r) {
    auto& dir = r.ext_as<HomeDir>();
    while (!dir.busy && !dir.queue.empty()) {
      auto [kind, requester] = dir.queue.front();
      dir.queue.pop_front();
      // A completed local op only flips r.op_done; if the next queued op
      // also completes synchronously the loop continues.
      serve(r, kind, requester);
    }
  }

  Host& host_;
};

}  // namespace ace::dsm

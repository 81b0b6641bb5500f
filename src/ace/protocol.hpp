// The Ace protocol interface — "full access control" (§2.1, §3.2).
//
// A protocol designer writes hooks for each access and synchronization
// point: before/after read, before/after write, barrier, lock, unlock — plus
// lifecycle hooks (region creation, mapping, space init, and the flush that
// defines Ace_ChangeProtocol's transition semantics) and an Active-Message
// entry point for the protocol's own coherence messages.
//
// One Protocol instance exists per (space, processor): the per-processor
// instance holds that processor's protocol state for the space, while
// per-region state lives in Region::pstate / Region::ext.  This is the
// paper's "separate instances of the same protocol operate on different data
// structures" (§2.2) made concrete.
//
// Hooks are invoked by the runtime's dispatch layer (ACE_START_READ etc. look
// up the region's space, then the space's protocol — §4.1), or directly when
// the compiler's direct-call optimization applies (§4.2).
#pragma once

#include <cstdint>
#include <string>

#include "am/message.hpp"
#include "dsm/region.hpp"

namespace ace {

class RuntimeProc;
class Space;

using dsm::Region;
using dsm::RegionId;

/// Which hooks a protocol implements (the Figure-1 registration fields).
/// A cleared bit means the hook is null: the compiler's direct-call pass
/// deletes calls to it outright.
enum HookBit : unsigned {
  kHookStartRead = 1u << 0,
  kHookEndRead = 1u << 1,
  kHookStartWrite = 1u << 2,
  kHookEndWrite = 1u << 3,
  kHookBarrier = 1u << 4,
  kHookLock = 1u << 5,
  kHookUnlock = 1u << 6,
  /// Acquire/release ordering events (Ace_Acquire / Ace_Release).  Only the
  /// self-invalidation family hooks them; for every other protocol the
  /// annotations are ordering no-ops, so the bits stay clear.
  kHookAcquire = 1u << 7,
  kHookRelease = 1u << 8,
};

/// The seven Figure-1 hook points.  Acquire/release are deliberately NOT in
/// this mask: kAllHooks is "every access + barrier-synchronization hook",
/// the registration default for bespoke protocols, none of which implement
/// release consistency.
inline constexpr unsigned kAllHooks =
    kHookStartRead | kHookEndRead | kHookStartWrite | kHookEndWrite |
    kHookBarrier | kHookLock | kHookUnlock;

/// How a protocol propagates writes to other processors — the axis the
/// adaptive advisor's cost model (src/adapt) discriminates on.  Declared at
/// registration time next to the hook set, because it is a *promise about
/// semantics* the runtime cannot infer from the hook bits alone.
enum class WritePolicy : std::uint8_t {
  kInvalidate,     ///< exclusivity + invalidations; readers refetch (SC)
  kPushOnWrite,    ///< every END_WRITE pushes data to sharers (DynamicUpdate)
  kPushAtBarrier,  ///< dirty regions pushed once per barrier (StaticUpdate)
  kHomeFetch,      ///< consumers invalidate + refetch per epoch (HomeWrite)
  kMigrate,        ///< data/ownership moves to the accessor (Migratory)
  kLocalOnly,      ///< no coherence traffic at all (Null)
  kSelfDowngrade,  ///< writes buffer dirty; written back whole at release
};

/// Per-protocol cost descriptor: the registration-time facts the adaptive
/// advisor needs to predict a protocol's per-phase cost and to know whether
/// it is even a *legal* target for an automatic Ace_ChangeProtocol.
struct ProtocolCosts {
  WritePolicy write_policy = WritePolicy::kInvalidate;
  /// Machine barriers one Ace_Barrier on this protocol costs (update
  /// protocols pay extra rounds to drain pushes).
  std::uint32_t barrier_rounds = 1;
  /// Whether non-home writes are legal (StaticUpdate/HomeWrite ACE_CHECK
  /// that writes are owner-computes; choosing them for a space with remote
  /// writers would abort the program, so the advisor must know).
  bool remote_writes = true;
  /// Whether reads observe remote writes of the previous epoch.  An
  /// incoherent protocol (Null) is never chosen automatically unless the
  /// application opts in: past observation cannot prove future privacy.
  bool coherent = true;
  /// Whether the advisor may select this protocol at all.  Semantic
  /// protocols (Counter's fetch-and-add, PipelinedWrite's accumulation,
  /// RaceCheck's diagnostics) change the *meaning* of accesses, not just
  /// their cost, so swapping them in or out is never a pure optimization.
  bool advisable = false;

  bool operator==(const ProtocolCosts&) const = default;
};

// --- protocol building-block vocabulary (§6: "a library of protocol
// building blocks") -------------------------------------------------------
//
// A *composed* protocol is a stack of three orthogonal stages.  Each stage
// names one block; the legal combinations and the derivation of hook bits /
// cost descriptors from a stack live in src/ace/stack.{hpp,cpp}, and the
// runtime driver that executes a stack is protocols::ComposedProtocol.

/// Miss/fetch stage: how a processor obtains data it does not hold.
enum class FetchBlock : std::uint8_t {
  kNone,      ///< no miss path — accesses are always local (Null)
  kValidBit,  ///< per-copy valid bit; miss blocks on a home fetch
  kDirectory, ///< full MSI directory with exclusive recalls (SC)
  kOwner,     ///< single migrating owner; miss acquires ownership (Migratory)
};

/// Write-propagation stage: what a write obliges the writer to do.
enum class WriteBlock : std::uint8_t {
  kLocal,        ///< writes stay local; no propagation (Null)
  kExclusive,    ///< writes demand exclusivity via the directory (SC)
  kPushOnWrite,  ///< every END_WRITE pushes data to sharers (DynamicUpdate)
  kMarkDirty,    ///< home-only writes set a dirty bit, settled at barrier
  kHomeOnly,     ///< home-only writes; consumers refetch per epoch (HomeWrite)
  kWriteThrough, ///< remote writes forward to the home copy eagerly
  kMigrate,      ///< writes ride on ownership migration (Migratory)
  kDowngradeOnRelease,  ///< writes buffer in the local copy (dirty bit);
                        ///< Ace_Release / barrier writes them back home
};

/// Barrier-drain/ordering stage: what Ace_Barrier does beyond synchronizing.
enum class OrderBlock : std::uint8_t {
  kPlain,      ///< a machine barrier, nothing else
  kDrainTwo,   ///< two rounds so in-flight pushes drain (DynamicUpdate)
  kPushDirty,  ///< push dirty home regions to sharers, then barrier
  kInvalDirty, ///< invalidate sharers of dirty home regions, then barrier
  kDropRemote, ///< drop local validity of remote copies, then barrier
  kSelfInvalidate,  ///< release consistency: Ace_Acquire drops clean remote
                    ///< copies, Ace_Release writes dirty data back and waits
                    ///< for the home's acks; barrier = release + acquire
};

/// A declared block composition (the `stack { ... }` form in protocols.cfg).
struct StackSpec {
  FetchBlock fetch = FetchBlock::kNone;
  WriteBlock write = WriteBlock::kLocal;
  OrderBlock order = OrderBlock::kPlain;

  bool operator==(const StackSpec&) const = default;
};

/// Static description of a protocol — the contents of the registration
/// script in Figure 1: name, hook points, and whether the protocol's
/// semantics permit the compiler's code-motion optimizations (§4.2: "we
/// allow protocol writers to specify, when registering a protocol, whether a
/// protocol's semantics allow optimizations").
struct ProtocolInfo {
  std::string name;
  unsigned hooks = kAllHooks;
  bool optimizable = false;
  /// Footnote 1 of §4.2: "a possible optimization is to allow protocol
  /// designers to specify whether a protocol's semantics allow reads and
  /// writes to be merged."  When set, the MC pass may delete an
  /// END_READ/START_WRITE (or END_WRITE/START_READ) pair on the same region,
  /// extending one access episode across both modes.  Safe only when the
  /// protocol's write path does not depend on a fresh start (e.g. HomeWrite,
  /// whose writes are plain home-local stores) — NOT for PipelinedWrite,
  /// whose start_write re-initializes the accumulation scratch.
  bool merge_rw = false;
  /// Cost/legality descriptor for the adaptive advisor (src/adapt).
  ProtocolCosts costs;
  /// True when this protocol is a block composition (`stack { ... }` in
  /// protocols.cfg): `stack` names the blocks, and hooks/optimizable/
  /// merge_rw/costs above are *derived* from them (stack.cpp), not trusted.
  bool composed = false;
  StackSpec stack;
};

/// Which access episodes RuntimeProc::*_direct keep a nesting count for:
/// those whose opening and closing hooks are both non-null, since the
/// direct-call pass deletes null ones.  Under merge_rw a read may close
/// with END_WRITE, so then all four hooks must be non-null.
struct DirectNesting {
  bool reads = false;
  bool writes = false;

  static DirectNesting of(const ProtocolInfo& info) {
    const unsigned h = info.hooks;
    const bool r = (h & kHookStartRead) && (h & kHookEndRead);
    const bool w = (h & kHookStartWrite) && (h & kHookEndWrite);
    return info.merge_rw ? DirectNesting{r && w, r && w} : DirectNesting{r, w};
  }
};

class Protocol;

/// Resolved per-hook entry points — the runtime's *dynamic* analogue of the
/// compiler's direct-call optimization (§4.2).  A Space caches the thunk
/// table of its installed protocol, so the per-annotation dispatch makes one
/// predicted indirect call (or none at all, for a hook the protocol declared
/// null in protocols.cfg) instead of a space→protocol→virtual-hook walk.
///
/// Invalidation protocol: the table is rebuilt at the only two points that
/// can change a space's resolved (protocol, hook) pairs — Ace_NewSpace and
/// Ace_ChangeProtocol (Space::set_protocol).  Both are collective and
/// quiesce accesses first, so no processor can observe a stale thunk.
///
/// A nullptr access thunk means the hook provably has no body for this
/// protocol, so the dispatch layer skips the call entirely.  The dispatch
/// layer still charges the annotation's modeled cost either way (the charge
/// is for the annotation, not the hook body), so modeled time and DsmStats
/// are bit-identical with and without the cache.
struct HookThunks {
  using AccessFn = void (*)(Protocol&, Region&);
  using MessageFn = void (*)(Protocol&, Region&, std::uint32_t, am::Message&);
  AccessFn start_read = nullptr;
  AccessFn end_read = nullptr;
  AccessFn start_write = nullptr;
  AccessFn end_write = nullptr;
  MessageFn on_message = nullptr;  ///< always resolved (never nullptr)
};

class Protocol {
 public:
  Protocol(RuntimeProc& rp, std::uint32_t space_id)
      : rp_(rp), space_id_(space_id) {}
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  virtual const ProtocolInfo& info() const = 0;

  /// Build this protocol's resolved thunk table.  The default routes every
  /// hook back through its virtual call unconditionally (cleared hook bits
  /// are a promise to the compiler's direct-call pass, not to the runtime —
  /// owner-computes protocols keep their defensive checks in "null" hooks).
  /// Protocols with an internal dispatch layer of their own override it
  /// with engine-direct thunks and genuine null-hook elision derived from
  /// their registration facts (ComposedProtocol, from the protocols.cfg
  /// stack declaration).
  virtual HookThunks hook_thunks();

  // --- access hooks ------------------------------------------------------
  virtual void start_read(Region&) {}
  virtual void end_read(Region&) {}
  virtual void start_write(Region&) {}
  virtual void end_write(Region&) {}

  // --- synchronization hooks ----------------------------------------------
  /// Default: a plain machine barrier.  Update-style protocols override to
  /// push/flush before synchronizing.
  virtual void barrier();
  /// Default: the system's home-side queue lock.
  virtual void lock(Region&);
  virtual void unlock(Region&);
  /// Acquire/release ordering events (Ace_Acquire / Ace_Release).  Default:
  /// nothing — on protocols without release consistency the annotations are
  /// pure ordering no-ops.  The self-invalidation family overrides: acquire
  /// drops clean remote copies so later reads refetch, release writes dirty
  /// buffered data back home and waits until the home has acknowledged it.
  virtual void acquire() {}
  virtual void release() {}

  // --- lifecycle hooks ----------------------------------------------------
  virtual void region_created(Region&) {}
  virtual void mapped(Region&) {}
  virtual void unmapped(Region&) {}
  /// Ace_ChangeProtocol semantics are defined by the *old* protocol (§3.1):
  /// bring every region of the space back to the base state (all data valid
  /// at its home, no remote copies, no protocol metadata).  Called on every
  /// processor, bracketed by machine barriers.
  virtual void flush(Space&) {}
  /// Called after this protocol is installed on a space (Ace_NewSpace or the
  /// tail of Ace_ChangeProtocol).
  virtual void init(Space&) {}

  // --- protocol messages ---------------------------------------------------
  /// Region-targeted protocol message.  `op` and `m.args[2..5]` are
  /// protocol-defined; `m.payload` carries region data.
  virtual void on_message(Region&, std::uint32_t op, am::Message& m);

 protected:
  RuntimeProc& rp_;
  std::uint32_t space_id_;
};

}  // namespace ace

// The Ace runtime (§4.1): spaces, the annotation primitives (ACE_MAP,
// ACE_START_READ, ...), space->protocol dispatch, the default system
// synchronization (barriers, home-side queue locks), and collective helpers.
//
// One `Runtime` exists per machine; one `RuntimeProc` per processor.  Apps
// written against the paper's C API use the free functions at the bottom
// (Ace_GMalloc, ACE_MAP, ...), which route through the calling thread's
// RuntimeProc; library-style C++ code can use RuntimeProc methods and the
// typed layer in ace/typed.hpp directly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ace/protocol.hpp"
#include "ace/registry.hpp"
#include "am/machine.hpp"
#include "dsm/mapper.hpp"
#include "dsm/region.hpp"
#include "obs/metrics.hpp"

namespace ace {

using dsm::Region;
using dsm::RegionId;
using am::ProcId;
// SpaceId and DsmStats live in obs/metrics.hpp (the bottom of the
// observability layer) so the bench harness can consume per-space metrics
// without pulling in the whole runtime.

/// The default space (sequentially consistent invalidation protocol),
/// available without any Ace_NewSpace call (§3.1).
inline constexpr SpaceId kDefaultSpace = 0;

/// A space: the indirection between data structures and protocols (§2.2).
/// Holds this processor's protocol instance for the space.
class Space {
 public:
  Space(SpaceId id, std::string proto_name, std::unique_ptr<Protocol> proto)
      : id_(id),
        proto_name_(std::move(proto_name)),
        proto_(std::move(proto)),
        thunks_(proto_->hook_thunks()),
        nesting_(DirectNesting::of(proto_->info())) {}

  SpaceId id() const { return id_; }
  const std::string& protocol_name() const { return proto_name_; }
  Protocol& protocol() { return *proto_; }

  /// The installed protocol's resolved hook table (the per-space inline
  /// cache; see HookThunks).  Rebuilt by set_protocol — the only
  /// invalidation point a space needs.
  const HookThunks& thunks() const { return thunks_; }
  /// Which episodes the direct-call entries count for the installed
  /// protocol; rebuilt with the thunks.
  DirectNesting nesting() const { return nesting_; }

  void set_protocol(std::string name, std::unique_ptr<Protocol> p) {
    proto_name_ = std::move(name);
    proto_ = std::move(p);
    thunks_ = proto_->hook_thunks();
    nesting_ = DirectNesting::of(proto_->info());
  }

 private:
  SpaceId id_;
  std::string proto_name_;
  std::unique_ptr<Protocol> proto_;
  HookThunks thunks_;
  DirectNesting nesting_;
};

class Runtime;

/// Observation seam on the annotation dispatch path.  At most one observer
/// per (processor, space); the runtime calls it after the protocol hook has
/// run, so observers see the post-protocol region state (miss already
/// serviced, counters already charged).  The adaptive advisor (src/adapt)
/// is the shipped implementation; the seam lives here so the core never
/// depends on the layers above it.
///
/// `on_barrier` runs after the space's protocol barrier completes — every
/// processor is at the same epoch, so an observer may safely issue
/// *collective* operations (reductions, Ace_ChangeProtocol) from it,
/// provided it does so deterministically on all processors.
class SpaceObserver {
 public:
  virtual ~SpaceObserver() = default;
  virtual void on_read(Region&) {}
  virtual void on_write(Region&) {}
  virtual void on_barrier(SpaceId) {}
  /// Called at the tail of Ace_ChangeProtocol (fresh metric segment open,
  /// new protocol installed), including changes the observer itself issued.
  virtual void on_protocol_change(SpaceId, const std::string& /*protocol*/) {}
};

/// Per-processor half of the runtime.  All methods must be called from the
/// owning processor's thread (SPMD model, one user thread per processor).
class RuntimeProc {
 public:
  RuntimeProc(Runtime& rt, am::Proc& proc);
  ~RuntimeProc();

  // --- the Ace library routines (Table 2) --------------------------------
  SpaceId new_space(const std::string& protocol);           // collective
  void change_protocol(SpaceId s, const std::string& protocol);  // collective
  RegionId gmalloc(SpaceId s, std::uint32_t size);
  void ace_barrier(SpaceId s);
  /// Acquire/release ordering events.  One-sided (not collective): acquire
  /// tells the space's protocol that stale data must not be observed past
  /// this point; release that this processor's writes must be visible to a
  /// subsequent acquirer.  No-ops on protocols without release consistency;
  /// the self-invalidation family (order block `self_invalidate`) drops
  /// clean copies at acquire and writes dirty data back at release.
  void ace_acquire(SpaceId s);
  void ace_release(SpaceId s);
  void ace_lock(void* mapped);
  void ace_unlock(void* mapped);

  // --- the runtime annotations (Figure 3) --------------------------------
  void* map(RegionId id);
  void unmap(void* mapped);
  void start_read(void* mapped);
  void end_read(void* mapped);
  void start_write(void* mapped);
  void end_write(void* mapped);

  /// Feed application compute into the virtual clock (apps charge their
  /// work per unit so modeled time has a realistic compute/comm ratio).
  void charge_compute(std::uint64_t ns) { proc_.charge(ns); }

  // --- direct-call variants (the compiler's "Avoiding Dispatching
  // Overhead" optimization, §4.2: dispatch replaced by a direct call to the
  // unique protocol's routine).  The caller has already resolved `proto`.
  void start_read_direct(Region& r, Protocol& proto);
  void end_read_direct(Region& r, Protocol& proto);
  void start_write_direct(Region& r, Protocol& proto);
  void end_write_direct(Region& r, Protocol& proto);

  // --- collectives (runtime-provided conveniences for SPMD apps) ---------
  void bcast_bytes(void* data, std::uint32_t n, ProcId root);
  RegionId bcast_region(RegionId id, ProcId root);
  /// Floating-point sum.  Contributions are gathered per source rank and
  /// summed in rank order at processor 0, so the result is bit-identical
  /// across delivery schedules AND across machine backends (the thread-vs-
  /// process checksum parity tests depend on this).
  double allreduce_sum(double v);
  std::uint64_t allreduce_min(std::uint64_t v);
  /// Element-wise integer reduction over a fixed-length vector.  Integer
  /// sum/max are order-free, so the result is identical on every processor
  /// and across delivery schedules — the advisor's decisions depend on it.
  enum class ReduceOp : std::uint8_t { kSum, kMax };
  void allreduce_u64(std::uint64_t* v, std::uint32_t n, ReduceOp op);

  // --- services for protocol implementations ------------------------------
  am::Proc& proc() { return proc_; }
  Runtime& runtime() { return rt_; }
  ProcId me() const;
  std::uint32_t nprocs() const;
  const am::CostModel& cost() const;

  /// DSM op counters for the space's *current* (space, protocol) segment.
  /// Protocols charge their own space: `rp_.dstats(space_id_).updates += 1`.
  DsmStats& dstats(SpaceId s) { return smetrics(s).dsm; }
  /// The space's current counter segment (opened by Ace_NewSpace, re-opened
  /// by Ace_ChangeProtocol).
  obs::SpaceMetrics& smetrics(SpaceId s);
  /// Attribute one sent active message (and its payload bytes) to a space.
  void note_space_msg(SpaceId s, std::uint64_t bytes) {
    obs::SpaceMetrics& m = smetrics(s);
    m.msgs += 1;
    m.bytes += bytes;
  }
  /// This processor's DSM counters summed over every (space, protocol)
  /// segment — the old machine-wide view.
  DsmStats dstats_total() const;
  /// All of this processor's counter segments, in creation order.
  const std::vector<obs::SpaceMetrics>& metric_segments() const {
    return segs_;
  }
  /// Zero every counter segment (keeps the segment structure).  Benches use
  /// this to exclude setup traffic, next to Machine::reset_stats().
  void reset_metrics();

  Space& space(SpaceId s);
  std::uint32_t num_spaces() const {
    return static_cast<std::uint32_t>(spaces_.size());
  }
  dsm::RegionSet& regions() { return regions_; }

  /// Attach an observer to a space (replacing any previous one; nullptr
  /// detaches).  The runtime takes ownership.  Collective in spirit: attach
  /// the same observer type with the same options on every processor, or an
  /// observer that issues collectives will deadlock.  Returns the raw
  /// pointer for caller-side bookkeeping.
  SpaceObserver* attach_observer(SpaceId s, std::unique_ptr<SpaceObserver> o);
  /// The observer attached to a space on this processor (nullptr if none).
  SpaceObserver* observer(SpaceId s) const {
    return s < observers_.size() ? observers_[s].get() : nullptr;
  }

  /// Write this processor's DSM state (spaces, regions, protocol state
  /// words, locks, collective scratch) for the machine's deadlock report;
  /// registered as the kCtxAce state dumper.
  void dump_state(std::ostream& os);

  /// Send a protocol message: delivered to the destination's instance of the
  /// protocol of `space_of_region`, with the (possibly placeholder) region.
  void send_proto(ProcId dst, RegionId region, std::uint32_t op,
                  std::uint64_t a = 0, std::uint64_t b = 0,
                  am::PayloadRef payload = {});

  /// Run a blocking request: clears r.op_done, runs `send` (which should
  /// issue the request), then polls until a handler sets r.op_done.
  /// Charges the requester the modeled network round trip it stalls for.
  template <class SendFn>
  void blocking_request(Region& r, SendFn&& send) {
    r.op_done = false;
    send();
    proc_.charge_rtt();
    proc_.wait_until([&r] { return r.op_done; });
  }

  Region& region_of(void* mapped) { return *Region::from_data(mapped); }
  Region* find_region(RegionId id) { return regions_.find(id); }
  Region& find_or_create_remote(RegionId id);

  /// Copy a message payload into the region's buffer and bump its version.
  void install_data(Region& r, const am::PayloadRef& payload);
  /// Copy the region's buffer into a fresh pooled payload.  The returned
  /// handle can be shared across any number of sends without re-copying.
  am::PayloadRef snapshot(Region& r);

  /// The system's default queue lock (home-side queue; used by
  /// Protocol::lock/unlock unless a protocol overrides them).
  void sys_lock(Region& r);
  void sys_unlock(Region& r);

 private:
  friend class Runtime;

  Protocol& protocol_of(Region& r);
  void handle_map_req(am::Message& m);
  void handle_lock_req(am::Message& m);
  void handle_unlock(am::Message& m);
  void lock_grant_local(Region& r, ProcId requester);
  void lock_release_local(Region& r, ProcId from);
  /// Open a fresh (space, protocol) counter segment for `s`.
  void open_segment(SpaceId s, const std::string& protocol);

  Runtime& rt_;
  am::Proc& proc_;
  dsm::RegionSet regions_;
  dsm::FastMapper mapper_;
  std::vector<std::unique_ptr<Space>> spaces_;
  std::uint64_t next_seq_ = 1;
  // Per-(space, protocol) counter segments; cur_seg_[space] indexes the
  // space's open segment.  See obs/metrics.hpp.
  std::vector<obs::SpaceMetrics> segs_;
  std::vector<std::uint32_t> cur_seg_;
  // Per-space observers, indexed by SpaceId (sparse; usually empty).
  std::vector<std::unique_ptr<SpaceObserver>> observers_;

  // Collective scratch state (one outstanding collective at a time).
  struct Collective {
    bool flag = false;
    am::PayloadRef buf;
    std::uint32_t arrived = 0;
    // allreduce_sum contributions, indexed by source rank so proc 0 can sum
    // them in rank order (deterministic across schedules and backends).
    std::vector<double> dsum;
    std::uint64_t min = UINT64_MAX;
    // allreduce_u64 accumulator; handlers resize on demand so contributions
    // that arrive before proc 0 reaches the call site still land correctly.
    std::vector<std::uint64_t> vec;
  } coll_;
};

/// Machine-wide runtime: owns the registry, the AM handler ids, and the
/// per-processor RuntimeProcs (which persist across run() calls so that
/// multi-phase tests and benches can reuse one machine).
class Runtime {
 public:
  explicit Runtime(am::Machine& machine,
                   Registry registry = Registry::with_builtins());

  am::Machine& machine() { return machine_; }
  const Registry& registry() const { return registry_; }

  /// Run `fn` on every processor with its RuntimeProc bound to the thread.
  void run(const std::function<void(RuntimeProc&)>& fn);

  /// The RuntimeProc bound to the calling thread (valid inside run()).
  static RuntimeProc& cur();

  /// The (persistent) RuntimeProc of processor `p`; nullptr before the
  /// first run() touched it.  Post-run analysis (the advisor's report
  /// collection) reads per-processor state through this.
  RuntimeProc* rproc(ProcId p) const {
    return p < rprocs_.size() ? rprocs_[p].get() : nullptr;
  }

  /// Machine-wide DSM counters (all spaces, all processors).
  DsmStats aggregate_dstats() const;
  /// Per-(space, protocol) counters merged across processors, in
  /// first-creation order.  The bench harness serializes these rows into
  /// BENCH_<name>.json.
  std::vector<obs::SpaceMetrics> aggregate_space_metrics() const;
  /// Zero every processor's counter segments (see RuntimeProc::reset_metrics).
  void reset_metrics();

 private:
  friend class RuntimeProc;
  am::Machine& machine_;
  Registry registry_;
  std::vector<std::unique_ptr<RuntimeProc>> rprocs_;

  am::HandlerId h_map_req_ = 0;
  am::HandlerId h_map_ack_ = 0;
  am::HandlerId h_lock_req_ = 0;
  am::HandlerId h_lock_grant_ = 0;
  am::HandlerId h_unlock_ = 0;
  am::HandlerId h_proto_ = 0;
  am::HandlerId h_bcast_ = 0;
  am::HandlerId h_gather_ = 0;
  am::HandlerId h_reduce_u64_ = 0;
};

// --- the paper's C-style API (Table 2 / Figure 3), routed through the
// calling processor thread's RuntimeProc --------------------------------
using ::ace::SpaceId;

SpaceId Ace_NewSpace(const std::string& protocol);
void Ace_ChangeProtocol(SpaceId space, const std::string& protocol);
RegionId Ace_GMalloc(SpaceId space, std::uint32_t size);
void Ace_Barrier(SpaceId space);
void Ace_Acquire(SpaceId space);
void Ace_Release(SpaceId space);
void Ace_Lock(void* mapped);
void Ace_UnLock(void* mapped);
void* ACE_MAP(RegionId id);
void ACE_UNMAP(void* mapped);
void ACE_START_READ(void* mapped);
void ACE_END_READ(void* mapped);
void ACE_START_WRITE(void* mapped);
void ACE_END_WRITE(void* mapped);

}  // namespace ace

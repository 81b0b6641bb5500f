// CRL baseline: an independent region-based software DSM with CRL 1.0's
// programming interface and its fixed sequentially consistent
// invalidation-based protocol (Johnson, Kaashoek, Wallach, SOSP '95).
//
// This is the comparison system for Figure 7a.  It runs the same MSI
// home-directory engine as Ace's SC protocol (dsm::DirectoryEngine,
// dsm/directory.hpp), so the two systems make the same coherence traffic,
// and differs from the Ace runtime in exactly the ways §5.1 attributes the
// performance gap to:
//
//   * mapping uses CRL's two-level mapped-table + unmapped-region-cache
//     (URC) path (dsm::UrcMapper) — slower per rgn_map, with URC eviction
//     costs on working sets larger than the URC;
//   * the protocol fast path is the stock CRL state walk (charged at
//     CostModel::crl_op_ns), not Ace's redesigned one — but CRL pays *no*
//     space->protocol dispatch indirection (it calls the engine directly),
//     which is why coarse-grained applications (BSC) come out even;
//   * there are no spaces, no pluggable protocols, and no user-visible
//     synchronization beyond the global barrier — shared variables all look
//     alike ("In CRL, shared variables all have the same type", §1.1).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "am/machine.hpp"
#include "dsm/directory.hpp"
#include "dsm/mapper.hpp"
#include "dsm/region.hpp"
#include "obs/metrics.hpp"

namespace crl {

using ace::am::Machine;
using ace::am::Message;
using ace::am::Proc;
using ace::am::ProcId;
using rid_t = ace::dsm::RegionId;
using ace::dsm::Region;
using ace::DsmStats;

class CrlRuntime;

/// Per-processor half of the CRL runtime (all calls from the owning thread).
class CrlProc {
 public:
  CrlProc(CrlRuntime& rt, Proc& proc);
  ~CrlProc();

  // --- the CRL 1.0 interface ------------------------------------------------
  rid_t create(std::uint32_t size);  // rgn_create: creator is home
  void* map(rid_t rid);              // rgn_map
  void unmap(void* mapped);          // rgn_unmap (demotes into the URC)
  void start_read(void* mapped);
  void end_read(void* mapped);
  void start_write(void* mapped);
  void end_write(void* mapped);
  void barrier();

  // --- conveniences shared with the Ace API for the templated apps ---------
  void bcast_bytes(void* data, std::uint32_t n, ProcId root);
  rid_t bcast_region(rid_t id, ProcId root);
  double allreduce_sum(double v);
  std::uint64_t allreduce_min(std::uint64_t v);

  /// Feed application compute into the virtual clock (mirrors
  /// ace::RuntimeProc::charge_compute so apps::CrlApi stays a pure forward).
  void charge_compute(std::uint64_t ns) { proc_.charge(ns); }

  Proc& proc() { return proc_; }
  ProcId me() const { return proc_.id(); }
  std::uint32_t nprocs() const { return proc_.nprocs(); }
  /// CRL's counters, in the Ace runtime's schema: maps, map_meta_misses,
  /// start_reads/start_writes, and the engine's misses, invalidations,
  /// recalls and fetches.
  DsmStats& stats() { return stats_; }

  /// Write this processor's CRL state (regions, MSI states, home directory
  /// entries) for the machine's deadlock report; registered as the kCtxCrl
  /// state dumper.
  void dump_state(std::ostream& os);

 private:
  friend class CrlRuntime;
  friend class ace::dsm::DirectoryEngine<CrlProc>;
  using Engine = ace::dsm::DirectoryEngine<CrlProc>;

  /// CRL's own opcodes on the crl.op handler, numbered above the engine's.
  enum Op : std::uint32_t {
    kMapReq = Engine::kNumOps,
    kMapAck,
  };

  void handle(Message& m);

  // --- the engine's host interface ---
  void send(ProcId dst, Region& r, std::uint32_t op, std::uint64_t a,
            ace::am::PayloadRef payload);
  void install(Region& r, const ace::am::PayloadRef& payload);
  ace::am::PayloadRef snapshot(Region& r);

  CrlRuntime& rt_;
  Proc& proc_;
  ace::dsm::RegionSet regions_;
  ace::dsm::UrcMapper mapper_;
  std::uint64_t next_seq_ = 1;
  DsmStats stats_;
  Engine engine_{*this};

  struct Collective {
    bool flag = false;
    ace::am::PayloadRef buf;
    std::uint32_t arrived = 0;
    // Per-source-rank allreduce_sum slots, folded in rank order at proc 0
    // (bit-identical results across delivery schedules and backends; same
    // scheme as the Ace runtime's).
    std::vector<double> dsum;
    std::uint64_t min = UINT64_MAX;
  } coll_;
};

class CrlRuntime {
 public:
  explicit CrlRuntime(Machine& machine);

  Machine& machine() { return machine_; }
  void run(const std::function<void(CrlProc&)>& fn);
  static CrlProc& cur();
  DsmStats aggregate_stats() const;

 private:
  friend class CrlProc;
  Machine& machine_;
  std::vector<std::unique_ptr<CrlProc>> procs_;
  ace::am::HandlerId h_op_ = 0;
  ace::am::HandlerId h_bcast_ = 0;
  ace::am::HandlerId h_gather_ = 0;
};

// --- CRL's C-style names, routed through the calling thread ---------------
rid_t rgn_create(std::uint32_t size);
void* rgn_map(rid_t rid);
void rgn_unmap(void* mapped);
void rgn_start_read(void* mapped);
void rgn_end_read(void* mapped);
void rgn_start_write(void* mapped);
void rgn_end_write(void* mapped);
void crl_barrier();

}  // namespace crl

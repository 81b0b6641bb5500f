// acefuzz — fault-injecting delivery-schedule fuzzer for the Ace stack.
//
// Every shipped protocol is "chaos-clean" by construction: its invariants
// must hold under ANY delivery schedule the machine's guarantees permit
// (per-sender FIFO, barrier fences — see am/delivery.hpp).  acefuzz checks
// that empirically: it runs a battery of self-verifying scenarios — the
// conformance patterns from tests/test_protocols.cpp plus small instances
// of the real application kernels — under a seeded am::ChaosPolicy, one
// child process per (scenario, seed) so an ACE_CHECK abort or a watchdog
// deadlock is contained and attributed to its seed.
//
// On failure the child's check hook dumps every processor's delivery log to
// FUZZ_<scenario>_<seed>.replay before aborting, and the parent re-runs the
// seed under am::ReplayPolicy to confirm the schedule reproduces.  The
// replay file plus `--replay` then gives a fixed schedule to debug against
// (`--no-fork` keeps everything in one process for a debugger).
//
// Usage:
//   acefuzz [--seeds=64] [--seed0=1] [--procs=4] [--scenario=substring]
//           [--backend=thread|proc] [--p-hold=0.25] [--max-hold=4]
//           [--jitter=2000] [--watchdog-ms=20000] [--batch=64] [--list]
//           [--no-fork] [--replay=FILE --scenario=exact-name --seed0=N]
//
// --batch sets MachineOptions::batch_max_msgs — the sender-side coalescing
// watermark (1 disables batching entirely).  Chaos destinations flush
// through regardless, so this perturbs the flush/fence paths, not the
// delivered schedules.
//
// --backend=proc runs every scenario over the multi-process socket
// transport: each rank is a forked process, chaos perturbs each rank's
// local drain independently (same seed, per-proc stream).  Scenarios that
// inspect cross-rank state after the run are thread-only and are skipped,
// and so are replay dumps / auto-replay — a per-rank delivery log is not a
// machine-wide schedule.
//
// Exit status: 0 if every (scenario, seed) passed, 1 otherwise.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "ace/registry.hpp"
#include "ace/runtime.hpp"
#include "ace/stack.hpp"
#include "adapt/advisor.hpp"
#include "am/delivery.hpp"
#include "am/machine.hpp"
#include "apps/api.hpp"
#include "apps/bsc.hpp"
#include "apps/em3d.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "crl/crl.hpp"

namespace {

using ace::RegionId;
using ace::RuntimeProc;
using ace::SpaceId;
using ace::am::Machine;
using ace::am::ProcId;
namespace proto = ace::proto_names;

struct FuzzOptions {
  std::uint32_t procs = 4;
  std::uint64_t seeds = 64;
  std::uint64_t seed0 = 1;
  double p_hold = 0.25;
  std::uint32_t max_hold = 4;
  std::uint64_t jitter_ns = 2000;
  std::uint64_t watchdog_ms = 20000;
  std::uint32_t batch = 64;  ///< MachineOptions::batch_max_msgs (1 = off)
  bool no_fork = false;
  ace::am::Backend backend = ace::am::Backend::kThread;
};

// --- scenario helpers -------------------------------------------------------

/// Home proc allocates, everyone else learns the id (the standard SPMD
/// region-publishing idiom from the conformance tests).
RegionId shared_region(RuntimeProc& rp, SpaceId sp, std::uint32_t size,
                       ProcId home) {
  RegionId id = 0;
  if (rp.me() == home) id = rp.gmalloc(sp, size);
  return rp.bcast_region(id, home);
}

bool near(double a, double b, double rel = 1e-9) {
  const double scale = std::max({1.0, a < 0 ? -a : a, b < 0 ? -b : b});
  const double d = a - b;
  return (d < 0 ? -d : d) <= rel * scale;
}

// --- scenarios --------------------------------------------------------------
//
// Each scenario is a self-verifying SPMD program: any protocol bug a chaos
// schedule exposes trips an ACE_CHECK_MSG inside the run.  Scenarios take
// only (machine, procs); the workload is fixed — the chaos seed is the sole
// source of variation, so a failing (scenario, seed) pair is reproducible.

/// Barrier-phased single-writer rounds, writer = home.  Legal for every
/// shipped coherence protocol (the ProtocolSweep pattern).
void sweep(Machine& machine, const char* proto_name) {
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_name);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    rp.start_read(p);  // prime every proc as a sharer
    rp.end_read(p);
    rp.ace_barrier(sp);
    for (std::uint64_t round = 1; round <= 6; ++round) {
      if (rp.me() == 0) {
        rp.start_write(p);
        *p = round;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);
      ACE_CHECK_MSG(*p == round, "sweep: stale value visible after barrier");
      rp.end_read(p);
      rp.ace_barrier(sp);
    }
  });
}

/// Same, but the writer rotates — only legal for protocols that support
/// arbitrary writers (SC, DynamicUpdate, Migratory).
void rotate(Machine& machine, const char* proto_name) {
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_name);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(sp);
    for (std::uint64_t round = 1; round <= 5; ++round) {
      const ProcId writer = static_cast<ProcId>(round % rp.nprocs());
      if (rp.me() == writer) {
        rp.start_write(p);
        *p = round * 100 + writer;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);
      ACE_CHECK_MSG(*p == round * 100 + writer,
                    "rotate: stale value visible after barrier");
      rp.end_read(p);
      rp.ace_barrier(sp);
    }
  });
}

void sweep_sc(Machine& m, std::uint32_t) { sweep(m, proto::kSC); }
void sweep_dynamic(Machine& m, std::uint32_t) { sweep(m, proto::kDynamicUpdate); }
void sweep_static(Machine& m, std::uint32_t) { sweep(m, proto::kStaticUpdate); }
void sweep_home_write(Machine& m, std::uint32_t) { sweep(m, proto::kHomeWrite); }
void sweep_migratory(Machine& m, std::uint32_t) { sweep(m, proto::kMigratory); }
void rotate_sc(Machine& m, std::uint32_t) { rotate(m, proto::kSC); }
void rotate_dynamic(Machine& m, std::uint32_t) { rotate(m, proto::kDynamicUpdate); }
void rotate_migratory(Machine& m, std::uint32_t) { rotate(m, proto::kMigratory); }

/// Every legal block composition from enumerate_stacks(), each registered
/// fresh under its own name and run through barrier-phased writer-at-home
/// rounds (plus rotating-writer rounds when the stack propagates remote
/// writes).  The acemc model checker proves these compositions' litmus
/// expectations over the abstract semantics; this scenario fuzzes the real
/// ComposedProtocol implementations of the same compositions under chaos
/// schedules.  The one incoherent composition (none/local/plain) keeps
/// purely local semantics, so only the writer's read-your-writes is
/// checkable there.
void stack_family(Machine& machine, std::uint32_t) {
  ace::Registry reg = ace::Registry::with_builtins();
  std::vector<std::string> names;
  std::vector<ace::ProtocolInfo> infos;
  for (const ace::StackSpec& s : ace::enumerate_stacks()) {
    const std::string name = "fuzz:" + ace::stack_label(s);
    reg.add_stack(name, s);
    names.push_back(name);
    infos.push_back(ace::derive_stack_info(name, s));
  }
  ace::Runtime rt(machine, std::move(reg));
  rt.run([&](RuntimeProc& rp) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const bool coherent = infos[i].costs.coherent;
      const SpaceId sp = rp.new_space(names[i]);
      const RegionId id = shared_region(rp, sp, 8, 0);
      auto* p = static_cast<std::uint64_t*>(rp.map(id));
      rp.start_read(p);  // prime every proc as a sharer
      rp.end_read(p);
      rp.ace_barrier(sp);
      for (std::uint64_t round = 1; round <= 3; ++round) {
        if (rp.me() == 0) {
          rp.start_write(p);
          *p = round;
          rp.end_write(p);
        }
        rp.ace_barrier(sp);
        rp.start_read(p);
        if (coherent)
          ACE_CHECK_MSG(*p == round,
                        "stack_family: stale value after barrier");
        else if (rp.me() == 0)
          ACE_CHECK_MSG(*p == round,
                        "stack_family: writer lost its own write");
        rp.end_read(p);
        rp.ace_barrier(sp);
      }
      if (!coherent || !infos[i].costs.remote_writes) continue;
      for (std::uint64_t round = 1; round <= 3; ++round) {
        const ProcId writer = static_cast<ProcId>(round % rp.nprocs());
        if (rp.me() == writer) {
          rp.start_write(p);
          *p = round * 100 + writer;
          rp.end_write(p);
        }
        rp.ace_barrier(sp);
        rp.start_read(p);
        ACE_CHECK_MSG(*p == round * 100 + writer,
                      "stack_family: stale value after rotating write");
        rp.end_read(p);
        rp.ace_barrier(sp);
      }
    }
  });
}

/// The self-invalidation family (write_through and downgrade_on_release
/// over the self_invalidate order stage): lock-protected increments where
/// every critical section opens with Ace_Acquire and closes with
/// Ace_Release.  An acquire must observe every write the previous lock
/// holder released, so a lost write-back, a skipped ack wait, or a stale
/// copy surviving the acquire all show up as a lost increment.  Rotating-
/// writer barrier rounds then exercise the order stage's barrier
/// (write-back + drop-all-copies) path.
void sisd_family(Machine& machine, std::uint32_t) {
  constexpr std::uint64_t kRounds = 4;
  ace::Registry reg = ace::Registry::with_builtins();
  std::vector<std::string> names;
  for (const ace::StackSpec& s : ace::enumerate_stacks()) {
    if (s.order != ace::OrderBlock::kSelfInvalidate) continue;
    const std::string name = "fuzz:" + ace::stack_label(s);
    reg.add_stack(name, s);
    names.push_back(name);
  }
  ACE_CHECK_MSG(names.size() == 2, "sisd_family: expected two SI/SD stacks");
  ace::Runtime rt(machine, std::move(reg));
  rt.run([&](RuntimeProc& rp) {
    for (const std::string& name : names) {
      const SpaceId sp = rp.new_space(name);
      const RegionId id = shared_region(rp, sp, 8, 0);
      auto* p = static_cast<std::uint64_t*>(rp.map(id));
      if (rp.me() == 0) {
        rp.start_write(p);
        *p = 0;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);  // plant a (soon stale) copy on every proc
      rp.end_read(p);
      rp.ace_barrier(sp);
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        rp.ace_lock(p);
        rp.ace_acquire(sp);
        rp.start_read(p);
        const std::uint64_t seen = *p;
        rp.end_read(p);
        rp.start_write(p);
        *p = seen + 1;
        rp.end_write(p);
        rp.ace_release(sp);
        rp.ace_unlock(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);
      ACE_CHECK_MSG(*p == kRounds * rp.nprocs(),
                    "sisd_family: acquire missed a released increment");
      rp.end_read(p);
      rp.ace_barrier(sp);
      for (std::uint64_t round = 1; round <= 3; ++round) {
        const ProcId writer = static_cast<ProcId>(round % rp.nprocs());
        if (rp.me() == writer) {
          rp.start_write(p);
          *p = round * 100 + writer;
          rp.end_write(p);
        }
        rp.ace_barrier(sp);
        rp.start_read(p);
        ACE_CHECK_MSG(*p == round * 100 + writer,
                      "sisd_family: stale value after barrier");
        rp.end_read(p);
        rp.ace_barrier(sp);
      }
    }
  });
}

/// Counter protocol: concurrent ticket draws must come out dense and unique
/// no matter how the fetch-and-add requests interleave at the home.
void counter_tickets(Machine& machine, std::uint32_t procs) {
  constexpr int kDraws = 12;
  std::vector<std::vector<std::uint64_t>> tickets(procs);
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto::kCounter);
    const RegionId id = shared_region(rp, sp, 8, 1 % rp.nprocs());
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (int i = 0; i < kDraws; ++i) {
      rp.start_write(p);  // atomic fetch-and-add at the home
      tickets[rp.me()].push_back(*p);
      rp.end_write(p);
    }
    rp.proc().barrier();
  });
  std::vector<std::uint64_t> all;
  for (const auto& t : tickets) all.insert(all.end(), t.begin(), t.end());
  std::sort(all.begin(), all.end());
  ACE_CHECK_MSG(all.size() == std::size_t(procs) * kDraws,
                "counter: wrong number of tickets");
  for (std::size_t i = 0; i < all.size(); ++i)
    ACE_CHECK_MSG(all[i] == i, "counter: tickets not dense/unique");
}

/// PipelinedWrite: non-blocking remote accumulations across many regions
/// must all land at their homes by the barrier.
void pipelined_accumulate(Machine& machine, std::uint32_t) {
  constexpr int kRegions = 8;
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto::kPipelinedWrite);
    std::vector<RegionId> ids(kRegions);
    for (int r = 0; r < kRegions; ++r)
      ids[r] = shared_region(rp, sp, sizeof(double),
                             static_cast<ProcId>(r % rp.nprocs()));
    std::vector<double*> ptr(kRegions);
    for (int r = 0; r < kRegions; ++r)
      ptr[r] = static_cast<double*>(rp.map(ids[r]));
    for (int r = 0; r < kRegions; ++r) {
      rp.start_write(ptr[r]);
      *ptr[r] += rp.me() + 1;
      rp.end_write(ptr[r]);  // non-blocking send to home
    }
    rp.ace_barrier(sp);
    const double want = rp.nprocs() * (rp.nprocs() + 1) / 2.0;
    for (int r = 0; r < kRegions; ++r) {
      rp.start_read(ptr[r]);
      ACE_CHECK_MSG(*ptr[r] == want, "pipelined: contribution lost");
      rp.end_read(ptr[r]);
    }
    rp.ace_barrier(sp);
  });
}

/// Home-side queue locks give mutual exclusion: concurrent lock/increment/
/// unlock rounds must not lose updates.
void locks_mutex(Machine& machine, std::uint32_t) {
  constexpr std::uint64_t kRounds = 8;
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto::kSC);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0) {
      rp.start_write(p);
      *p = 0;
      rp.end_write(p);
    }
    rp.ace_barrier(sp);
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      rp.ace_lock(p);
      rp.start_write(p);
      *p += 1;
      rp.end_write(p);
      rp.ace_unlock(p);
    }
    rp.ace_barrier(sp);
    rp.start_read(p);
    ACE_CHECK_MSG(*p == kRounds * rp.nprocs(), "locks: lost an increment");
    rp.end_read(p);
    rp.ace_barrier(sp);
  });
}

/// The examples/producer_consumer.cpp pattern, cycled across four protocols
/// via Ace_ChangeProtocol (the change itself runs under chaos too).
void producer_consumer(Machine& machine, std::uint32_t) {
  constexpr std::uint64_t kRegions = 6;
  constexpr std::uint64_t kRounds = 3;
  static const char* const kProtos[] = {proto::kSC, proto::kDynamicUpdate,
                                        proto::kStaticUpdate, proto::kHomeWrite};
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto::kSC);
    std::vector<RegionId> ids(kRegions);
    for (std::uint64_t r = 0; r < kRegions; ++r)
      ids[r] = shared_region(rp, sp, 8, 0);
    std::vector<std::uint64_t*> ptr(kRegions);
    for (std::uint64_t r = 0; r < kRegions; ++r)
      ptr[r] = static_cast<std::uint64_t*>(rp.map(ids[r]));
    for (auto* p : ptr) {
      rp.start_read(p);
      rp.end_read(p);
    }
    rp.ace_barrier(sp);
    for (const char* pr : kProtos) {
      rp.change_protocol(sp, pr);
      for (std::uint64_t round = 1; round <= kRounds; ++round) {
        if (rp.me() == 0)
          for (std::uint64_t r = 0; r < kRegions; ++r) {
            rp.start_write(ptr[r]);
            *ptr[r] = round * 1000 + r;
            rp.end_write(ptr[r]);
          }
        rp.ace_barrier(sp);
        std::uint64_t sum = 0;
        for (auto* p : ptr) {
          rp.start_read(p);
          sum += *p;
          rp.end_read(p);
        }
        const std::uint64_t want =
            kRegions * round * 1000 + kRegions * (kRegions - 1) / 2;
        ACE_CHECK_MSG(sum == want, "producer_consumer: bad round checksum");
        rp.ace_barrier(sp);
      }
    }
  });
}

/// The adaptive advisor under chaos: a producer/consumer space in auto mode
/// (adapt::auto_space, starting on SC).  Self-verifies that (a) data stays
/// coherent across the advisor's own Ace_ChangeProtocol switches, (b) every
/// processor records the identical decision sequence (the decisions ride
/// order-free integer reductions), and (c) the switch sequence matches a
/// clean no-chaos run — decisions are a function of the access pattern, not
/// of the delivery schedule, so the same seed trivially reproduces them.
void auto_advisor(Machine& machine, std::uint32_t procs) {
  using ace::adapt::Decision;
  constexpr std::uint64_t kRegions = 6;
  constexpr std::uint64_t kRounds = 12;

  SpaceId auto_sp = 0;
  auto workload = [&](RuntimeProc& rp) {
    const SpaceId sp = ace::adapt::auto_space(rp, proto::kSC);
    if (rp.me() == 0) auto_sp = sp;
    std::vector<RegionId> ids(kRegions);
    for (auto& id : ids) id = shared_region(rp, sp, 8, 0);
    std::vector<std::uint64_t*> ptr;
    for (auto id : ids) ptr.push_back(static_cast<std::uint64_t*>(rp.map(id)));
    rp.ace_barrier(sp);
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
      if (rp.me() == 0)
        for (std::uint64_t r = 0; r < kRegions; ++r) {
          rp.start_write(ptr[r]);
          *ptr[r] = round * 1000 + r;
          rp.end_write(ptr[r]);
        }
      rp.ace_barrier(sp);
      if (rp.me() != 0)
        for (std::uint64_t r = 0; r < kRegions; ++r) {
          rp.start_read(ptr[r]);
          ACE_CHECK_MSG(*ptr[r] == round * 1000 + r,
                        "auto_advisor: incoherent value under the advisor");
          rp.end_read(ptr[r]);
        }
      rp.ace_barrier(sp);
    }
  };

  auto decisions_of = [&](ace::Runtime& rt,
                          ProcId p) -> std::vector<Decision> {
    auto* a = ace::adapt::find_advisor(rt, auto_sp, p);
    ACE_CHECK_MSG(a != nullptr, "auto_advisor: advisor not attached");
    return a->decisions();
  };
  auto switches_of = [](const std::vector<Decision>& ds) {
    std::vector<std::pair<std::uint64_t, std::string>> out;
    for (const auto& d : ds)
      if (d.switched) out.emplace_back(d.epoch, d.chosen);
    return out;
  };

  ace::Runtime rt(machine);
  rt.run(workload);
  const auto d0 = decisions_of(rt, 0);
  ACE_CHECK_MSG(!d0.empty(), "auto_advisor: no decisions recorded");
  ACE_CHECK_MSG(!switches_of(d0).empty(),
                "auto_advisor: the advisor never left SC");
  for (std::size_t i = 0; i < d0.size(); ++i) {
    // Decisions land only in on_barrier, one window apart: each epoch is a
    // barrier epoch, strictly after the previous decision's.
    const std::uint64_t prev = i == 0 ? 0 : d0[i - 1].epoch;
    ACE_CHECK_MSG(d0[i].epoch == prev + d0[i].window,
                  "auto_advisor: decision not on its window's barrier epoch");
  }
  for (ProcId p = 1; p < procs; ++p) {
    const auto dp = decisions_of(rt, p);
    ACE_CHECK_MSG(dp.size() == d0.size(),
                  "auto_advisor: decision counts differ across processors");
    for (std::size_t i = 0; i < d0.size(); ++i)
      ACE_CHECK_MSG(dp[i].epoch == d0[i].epoch &&
                        dp[i].chosen == d0[i].chosen &&
                        dp[i].switched == d0[i].switched &&
                        dp[i].reason == d0[i].reason,
                    "auto_advisor: decisions diverged across processors");
  }

  // Clean reference run: the chaos schedule must not change what the
  // advisor decides, only when messages land.
  const auto ref = Machine::create({.nprocs = procs});
  ace::Runtime ref_rt(*ref);
  ref_rt.run(workload);
  ACE_CHECK_MSG(switches_of(decisions_of(ref_rt, 0)) == switches_of(d0),
                "auto_advisor: switch sequence depends on delivery schedule");
}

/// Collectives under chaos: bcast_bytes / allreduce_sum / allreduce_min
/// rounds with analytically known results.
void collectives(Machine& machine, std::uint32_t) {
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const std::uint32_t P = rp.nprocs();
    for (std::uint64_t round = 0; round < 6; ++round) {
      const double s = rp.allreduce_sum(static_cast<double>(rp.me() + 1));
      ACE_CHECK_MSG(s == P * (P + 1) / 2.0, "collectives: bad allreduce_sum");
      std::uint64_t mine = 100 + (rp.me() * 7 + round * 3) % 13;
      std::uint64_t want_min = UINT64_MAX;
      for (std::uint32_t q = 0; q < P; ++q)
        want_min = std::min(want_min, 100 + (q * 7 + round * 3) % 13);
      ACE_CHECK_MSG(rp.allreduce_min(mine) == want_min,
                    "collectives: bad allreduce_min");
      const ProcId root = static_cast<ProcId>(round % P);
      std::uint64_t v[4] = {0, 0, 0, 0};
      if (rp.me() == root)
        for (std::uint64_t i = 0; i < 4; ++i) v[i] = round * 10 + i;
      rp.bcast_bytes(v, sizeof v, root);
      for (std::uint64_t i = 0; i < 4; ++i)
        ACE_CHECK_MSG(v[i] == round * 10 + i, "collectives: bad bcast");
    }
  });
}

/// The CRL baseline's MSI directory protocol: rotating-writer rounds.
void crl_sweep(Machine& machine, std::uint32_t) {
  crl::CrlRuntime rt(machine);
  rt.run([&](crl::CrlProc& cp) {
    crl::rid_t id = 0;
    if (cp.me() == 0) id = cp.create(8);
    id = cp.bcast_region(id, 0);
    auto* p = static_cast<std::uint64_t*>(cp.map(id));
    cp.start_read(p);
    cp.end_read(p);
    cp.barrier();
    for (std::uint64_t round = 1; round <= 6; ++round) {
      const ProcId writer = static_cast<ProcId>(round % cp.nprocs());
      if (cp.me() == writer) {
        cp.start_write(p);
        *p = round;
        cp.end_write(p);
      }
      cp.barrier();
      cp.start_read(p);
      ACE_CHECK_MSG(*p == round, "crl_sweep: stale value after barrier");
      cp.end_read(p);
      cp.barrier();
    }
  });
}

/// Small blocked sparse Cholesky on the custom (HomeWrite) protocol path;
/// result checked against the sequential reference factorization.
void bsc_small(Machine& machine, std::uint32_t) {
  apps::BscParams p;
  p.n_block_cols = 8;
  p.block = 6;
  p.band = 3;
  p.seed = 5;
  p.custom_protocols = true;
  double want = 0;
  for (const auto& col : apps::bsc_reference(p))
    for (const auto& blk : col) want = std::accumulate(blk.begin(), blk.end(), want);
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    apps::AceApi api(rp);
    const apps::BscResult res = apps::bsc_run(api, p);
    ACE_CHECK_MSG(near(res.checksum, want), "bsc: checksum mismatch");
  });
}

/// Small EM3D instance; exact node values vs the sequential reference
/// (the allreduce tolerance only absorbs gather-order FP reassociation).
void em3d(Machine& machine, const char* proto_name) {
  apps::Em3dParams p;
  p.n_e = 48;
  p.n_h = 48;
  p.degree = 4;
  p.pct_remote = 0.5;
  p.steps = 5;
  p.seed = 7;
  p.protocol = proto_name;
  ace::Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const auto [e, h] = apps::em3d_reference(p, rp.nprocs());
    double want = std::accumulate(e.begin(), e.end(), 0.0);
    want = std::accumulate(h.begin(), h.end(), want);
    apps::AceApi api(rp);
    const apps::Em3dResult res = apps::em3d_run(api, p);
    ACE_CHECK_MSG(near(res.checksum, want), "em3d: checksum mismatch");
  });
}

void em3d_sc(Machine& m, std::uint32_t) { em3d(m, proto::kSC); }
void em3d_static(Machine& m, std::uint32_t) { em3d(m, proto::kStaticUpdate); }
void em3d_dynamic(Machine& m, std::uint32_t) { em3d(m, proto::kDynamicUpdate); }

struct Scenario {
  const char* name;
  void (*fn)(Machine&, std::uint32_t procs);
  /// True for scenarios whose self-verification reads cross-rank state
  /// after the run (possible only when every processor shares this address
  /// space) — skipped under --backend=proc.
  bool thread_only = false;
};

constexpr Scenario kScenarios[] = {
    {"sweep_sc", sweep_sc},
    {"sweep_dynamic_update", sweep_dynamic},
    {"sweep_static_update", sweep_static},
    {"sweep_home_write", sweep_home_write},
    {"sweep_migratory", sweep_migratory},
    {"rotate_sc", rotate_sc},
    {"rotate_dynamic_update", rotate_dynamic},
    {"rotate_migratory", rotate_migratory},
    {"stack_family", stack_family},
    {"sisd_family", sisd_family},
    {"counter_tickets", counter_tickets, /*thread_only=*/true},
    {"pipelined_accumulate", pipelined_accumulate},
    {"locks_mutex", locks_mutex},
    {"producer_consumer", producer_consumer},
    {"auto_advisor", auto_advisor, /*thread_only=*/true},
    {"collectives", collectives},
    {"crl_sweep", crl_sweep},
    {"bsc_small", bsc_small},
    {"em3d_sc", em3d_sc},
    {"em3d_static_update", em3d_static},
    {"em3d_dynamic_update", em3d_dynamic},
};

// --- execution --------------------------------------------------------------

std::string replay_path(const char* scenario, std::uint64_t seed) {
  return "FUZZ_" + std::string(scenario) + "_" + std::to_string(seed) +
         ".replay";
}

// The check hook runs on the failing thread just before abort; it dumps
// every processor's delivery log so the schedule can be replayed.
Machine* g_machine = nullptr;
char g_dump_path[512] = {0};

void dump_logs_on_failure() {
  if (g_machine == nullptr || g_dump_path[0] == '\0') return;
  if (ace::am::write_delivery_logs(g_dump_path, g_machine->delivery_logs()))
    std::fprintf(stderr, "acefuzz: delivery logs dumped to %s\n", g_dump_path);
}

/// Run one (scenario, seed) in THIS process.  Returns normally on success;
/// a protocol bug aborts (ACE_CHECK / watchdog) after the hook fires.
void execute(const Scenario& sc, const FuzzOptions& o, std::uint64_t seed,
             const std::string& replay_file) {
  auto machine_ptr = Machine::create(
      {.nprocs = o.procs,
       .backend = o.backend,
       .watchdog_ms = static_cast<std::uint32_t>(o.watchdog_ms),
       .batch_max_msgs = o.batch});
  // On the process backend ranks 1..N-1 forked inside create() continue
  // from here too: each rank installs its own chaos policy (same seed,
  // per-proc stream) and runs its slice of the scenario.
  Machine& machine = *machine_ptr;
  if (!replay_file.empty()) {
    machine.set_replay(ace::am::read_delivery_logs(replay_file));
    g_dump_path[0] = '\0';  // a replay run doesn't re-dump
  } else {
    ace::am::ChaosOptions copt;
    copt.seed = seed;
    copt.p_hold = o.p_hold;
    copt.max_hold_polls = o.max_hold;
    copt.max_jitter_ns = o.jitter_ns;
    machine.set_chaos(copt);
    if (o.backend == ace::am::Backend::kThread)
      std::snprintf(g_dump_path, sizeof g_dump_path, "%s",
                    replay_path(sc.name, seed).c_str());
    else
      g_dump_path[0] = '\0';  // per-rank logs are not a replayable schedule
  }
  g_machine = &machine;
  ace::set_check_hook(&dump_logs_on_failure);
  sc.fn(machine, o.procs);
  ace::set_check_hook(nullptr);
  g_machine = nullptr;
}

/// Fork a child for one (scenario, seed); returns the wait status.
int spawn(const Scenario& sc, const FuzzOptions& o, std::uint64_t seed,
          const std::string& replay_file) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("acefuzz: fork");
    std::exit(2);
  }
  if (pid == 0) {
    execute(sc, o, seed, replay_file);
    std::_Exit(0);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::perror("acefuzz: waitpid");
    std::exit(2);
  }
  return status;
}

std::string describe(int status) {
  if (WIFEXITED(status))
    return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "signal " + std::to_string(WTERMSIG(status)) +
           (WTERMSIG(status) == SIGABRT ? " (abort)" : "");
  return "status " + std::to_string(status);
}

}  // namespace

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  FuzzOptions o;
  o.procs = static_cast<std::uint32_t>(cli.get_int("procs", 4));
  o.seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 64));
  o.seed0 = static_cast<std::uint64_t>(cli.get_int("seed0", 1));
  o.p_hold = cli.get_double("p-hold", 0.25);
  o.max_hold = static_cast<std::uint32_t>(cli.get_int("max-hold", 4));
  o.jitter_ns = static_cast<std::uint64_t>(cli.get_int("jitter", 2000));
  o.watchdog_ms = static_cast<std::uint64_t>(cli.get_int("watchdog-ms", 20000));
  o.batch = static_cast<std::uint32_t>(cli.get_int("batch", 64));
  o.no_fork = cli.get_bool("no-fork", false);
  const bool list = cli.get_bool("list", false);
  const std::string only = cli.get_string("scenario", "");
  const std::string replay_file = cli.get_string("replay", "");
  const std::string backend_str = cli.get_string("backend", "thread");
  cli.finish();

  if (!ace::am::parse_backend(backend_str, o.backend)) {
    std::fprintf(stderr, "acefuzz: unknown backend '%s' (thread|proc)\n",
                 backend_str.c_str());
    return 2;
  }
  const bool proc_backend = o.backend == ace::am::Backend::kProc;
  if (proc_backend && !replay_file.empty()) {
    std::fprintf(stderr,
                 "acefuzz: --replay is thread-backend only (a per-rank "
                 "delivery log is not a machine-wide schedule)\n");
    return 2;
  }

  if (list) {
    for (const auto& sc : kScenarios) std::printf("%s\n", sc.name);
    return 0;
  }

  std::vector<const Scenario*> selected;
  for (const auto& sc : kScenarios) {
    if (!only.empty() && std::string(sc.name).find(only) == std::string::npos)
      continue;
    if (proc_backend && sc.thread_only) {
      std::printf("skip %-24s (cross-rank verification is thread-only)\n",
                  sc.name);
      continue;
    }
    selected.push_back(&sc);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "acefuzz: no scenario matches '%s' (try --list)\n",
                 only.c_str());
    return 2;
  }

  if (!replay_file.empty()) {
    // Replay one recorded schedule inline so the failure (and the machine's
    // deadlock report, if any) lands on this terminal.
    if (selected.size() != 1) {
      std::fprintf(stderr,
                   "acefuzz: --replay needs --scenario matching exactly one "
                   "scenario (%zu matched)\n",
                   selected.size());
      return 2;
    }
    std::printf("replaying %s from %s (procs=%u)\n", selected[0]->name,
                replay_file.c_str(), o.procs);
    execute(*selected[0], o, 0, replay_file);
    std::printf("replay finished cleanly — schedule no longer fails\n");
    return 0;
  }

  std::printf(
      "acefuzz: %zu scenarios x %llu seeds (seed0=%llu, procs=%u, "
      "backend=%s, p_hold=%.2f, max_hold=%u, jitter=%lluns)\n",
      selected.size(), static_cast<unsigned long long>(o.seeds),
      static_cast<unsigned long long>(o.seed0), o.procs,
      ace::am::backend_name(o.backend), o.p_hold, o.max_hold,
      static_cast<unsigned long long>(o.jitter_ns));

  int failures = 0;
  for (const Scenario* sc : selected) {
    bool failed = false;
    for (std::uint64_t s = o.seed0; s < o.seed0 + o.seeds; ++s) {
      if (o.no_fork) {
        execute(*sc, o, s, "");  // a failure aborts the whole tool (debug use)
        continue;
      }
      const int status = spawn(*sc, o, s, "");
      if (status == 0) continue;
      ++failures;
      failed = true;
      std::printf("FAIL %-24s seed=%llu (%s)\n", sc->name,
                  static_cast<unsigned long long>(s),
                  describe(status).c_str());
      if (proc_backend) {
        std::printf("  (no auto-replay on the process backend; rerun with "
                    "--backend=thread to capture a schedule)\n");
        break;
      }
      const std::string rp = replay_path(sc->name, s);
      const int rs = spawn(*sc, o, s, rp);
      if (rs == 0)
        std::printf("  replay of %s did NOT reproduce (flaky outside the "
                    "delivery schedule?)\n",
                    rp.c_str());
      else
        std::printf("  reproduced by replaying %s (%s) — debug with:\n"
                    "  acefuzz --scenario=%s --procs=%u --replay=%s\n",
                    rp.c_str(), describe(rs).c_str(), sc->name, o.procs,
                    rp.c_str());
      break;  // first failing seed per scenario is what we report
    }
    if (!failed)
      std::printf("ok   %-24s %llu seeds\n", sc->name,
                  static_cast<unsigned long long>(o.seeds));
  }

  if (failures > 0) {
    std::printf("acefuzz: %d scenario(s) FAILED\n", failures);
    return 1;
  }
  std::printf("acefuzz: all clean\n");
  return 0;
}

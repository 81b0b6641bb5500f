// Tests for the CRL baseline DSM: its fixed SC invalidation protocol must
// provide the same coherence guarantees the Ace default does (Figure 7a
// compares like against like), through CRL's own API and mapping path.

#include <gtest/gtest.h>

#include <memory>

#include <algorithm>

#include "ace/runtime.hpp"
#include "common/rng.hpp"
#include "crl/crl.hpp"

namespace {

using namespace crl;

struct Fixture {
  std::unique_ptr<Machine> machine_ptr;
  Machine& machine;
  CrlRuntime rt;
  explicit Fixture(std::uint32_t procs)
      : machine_ptr(Machine::create({.nprocs = procs})),
        machine(*machine_ptr),
        rt(machine) {}
};

rid_t shared_rgn(CrlProc& cp, std::uint32_t size, ProcId home) {
  rid_t id = 0;
  if (cp.me() == home) id = cp.create(size);
  return cp.bcast_region(id, home);
}

TEST(Crl, CreateMapWriteRead) {
  Fixture f(1);
  f.rt.run([](CrlProc& cp) {
    const rid_t id = cp.create(16);
    auto* p = static_cast<std::uint64_t*>(cp.map(id));
    cp.start_write(p);
    p[1] = 0xabcd;
    cp.end_write(p);
    cp.start_read(p);
    EXPECT_EQ(p[1], 0xabcdu);
    cp.end_read(p);
    cp.unmap(p);
  });
}

TEST(Crl, CStyleApi) {
  Fixture f(1);
  f.rt.run([](CrlProc&) {
    const rid_t id = rgn_create(8);
    auto* p = static_cast<std::uint64_t*>(rgn_map(id));
    rgn_start_write(p);
    *p = 5;
    rgn_end_write(p);
    rgn_start_read(p);
    EXPECT_EQ(*p, 5u);
    rgn_end_read(p);
    rgn_unmap(p);
    crl_barrier();
  });
}

TEST(Crl, RemoteReadSeesHomeWrite) {
  Fixture f(2);
  f.rt.run([](CrlProc& cp) {
    const rid_t id = shared_rgn(cp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(cp.map(id));
    if (cp.me() == 0) {
      cp.start_write(p);
      *p = 123;
      cp.end_write(p);
    }
    cp.barrier();
    cp.start_read(p);
    EXPECT_EQ(*p, 123u);
    cp.end_read(p);
    cp.barrier();
  });
}

TEST(Crl, InvalidateOnWrite) {
  Fixture f(4);
  f.rt.run([](CrlProc& cp) {
    const rid_t id = shared_rgn(cp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(cp.map(id));
    cp.start_read(p);
    cp.end_read(p);
    cp.barrier();
    if (cp.me() == 3) {
      cp.start_write(p);
      *p = 9;
      cp.end_write(p);
    }
    cp.barrier();
    cp.start_read(p);
    EXPECT_EQ(*p, 9u);
    cp.end_read(p);
    cp.barrier();
  });
  EXPECT_GE(f.rt.aggregate_stats().invalidations, 2u);
}

TEST(Crl, OwnershipChain) {
  constexpr int kProcs = 5;
  Fixture f(kProcs);
  f.rt.run([](CrlProc& cp) {
    const rid_t id = shared_rgn(cp, 8, 2);
    auto* p = static_cast<std::uint64_t*>(cp.map(id));
    for (std::uint32_t turn = 0; turn < kProcs; ++turn) {
      if (cp.me() == turn) {
        cp.start_write(p);
        *p += 1;
        cp.end_write(p);
      }
      cp.barrier();
    }
    cp.start_read(p);
    EXPECT_EQ(*p, std::uint64_t(kProcs));
    cp.end_read(p);
    cp.barrier();
  });
}

TEST(Crl, ConcurrentIncrementsAreAtomic) {
  constexpr int kProcs = 6;
  constexpr int kIters = 60;
  Fixture f(kProcs);
  f.rt.run([](CrlProc& cp) {
    const rid_t id = shared_rgn(cp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(cp.map(id));
    for (int i = 0; i < kIters; ++i) {
      cp.start_write(p);
      *p += 1;
      cp.end_write(p);
    }
    cp.barrier();
    cp.start_read(p);
    EXPECT_EQ(*p, std::uint64_t(kProcs) * kIters);
    cp.end_read(p);
    cp.barrier();
  });
}

TEST(Crl, RandomizedMultiRegionAtomicity) {
  constexpr std::uint32_t kProcs = 4;
  constexpr std::uint32_t kRegions = 6;
  constexpr std::uint32_t kOps = 150;
  Fixture f(kProcs);
  std::vector<std::vector<std::uint64_t>> incs(
      kProcs, std::vector<std::uint64_t>(kRegions, 0));
  f.rt.run([&](CrlProc& cp) {
    std::vector<rid_t> ids(kRegions);
    for (std::uint32_t r = 0; r < kRegions; ++r)
      ids[r] = shared_rgn(cp, 8, r % kProcs);
    std::vector<std::uint64_t*> ptr(kRegions);
    for (std::uint32_t r = 0; r < kRegions; ++r)
      ptr[r] = static_cast<std::uint64_t*>(cp.map(ids[r]));
    ace::Rng rng(17 + cp.me());
    for (std::uint32_t i = 0; i < kOps; ++i) {
      const auto r = static_cast<std::uint32_t>(rng.next_below(kRegions));
      if (rng.next_bool(0.6)) {
        cp.start_write(ptr[r]);
        *ptr[r] += 1;
        cp.end_write(ptr[r]);
        incs[cp.me()][r] += 1;
      } else {
        cp.start_read(ptr[r]);
        cp.end_read(ptr[r]);
      }
    }
    cp.barrier();
    if (cp.me() == 0) {
      for (std::uint32_t r = 0; r < kRegions; ++r) {
        std::uint64_t want = 0;
        for (std::uint32_t q = 0; q < kProcs; ++q) want += incs[q][r];
        cp.start_read(ptr[r]);
        EXPECT_EQ(*ptr[r], want) << "region " << r;
        cp.end_read(ptr[r]);
      }
    }
    cp.barrier();
  });
}

TEST(Crl, UnmapRemapThroughUrc) {
  // Regions unmapped beyond URC capacity must still remap correctly.
  Fixture f(2);
  f.rt.run([](CrlProc& cp) {
    constexpr int kRegions = 100;  // URC capacity is 64
    std::vector<rid_t> ids(kRegions);
    for (int r = 0; r < kRegions; ++r) ids[r] = shared_rgn(cp, 8, 0);
    if (cp.me() == 1) {
      for (int r = 0; r < kRegions; ++r) {
        auto* p = static_cast<std::uint64_t*>(cp.map(ids[r]));
        cp.start_read(p);
        cp.end_read(p);
        cp.unmap(p);
      }
      // Second sweep: many mapping nodes were URC-evicted; remap them.
      for (int r = 0; r < kRegions; ++r) {
        auto* p = static_cast<std::uint64_t*>(cp.map(ids[r]));
        cp.start_read(p);
        EXPECT_EQ(*p, 0u);
        cp.end_read(p);
        cp.unmap(p);
      }
    }
    cp.barrier();
  });
}

TEST(Crl, StatsCountProtocolEvents) {
  Fixture f(2);
  f.rt.run([](CrlProc& cp) {
    const rid_t id = shared_rgn(cp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(cp.map(id));
    if (cp.me() == 1) {
      cp.start_read(p);
      cp.end_read(p);
    }
    cp.barrier();
  });
  const DsmStats s = f.rt.aggregate_stats();
  EXPECT_EQ(s.read_misses, 1u);
  EXPECT_EQ(s.fetches, 1u);
  EXPECT_GE(s.maps, 2u);
}

TEST(Crl, CollectivesWork) {
  Fixture f(4);
  f.rt.run([](CrlProc& cp) {
    EXPECT_DOUBLE_EQ(cp.allreduce_sum(2.0), 8.0);
    EXPECT_EQ(cp.allreduce_min(10 + cp.me()), 10u);
  });
}

// One kernel for both runtimes.  Every access runs in its rank's turn and
// turns are separated by barriers, so the protocol traffic does not depend
// on the delivery schedule.  Per (round, turn, region) the access cycles
// through read, write, read-then-write and write-then-read.  That covers
// remote read and write misses, remote upgrades, home writes that
// invalidate sharers or recall a remote owner, and readers recalling a
// remote owner.  Returns rank 0's checksum over the final values.
template <class P, class Alloc, class Barrier>
std::uint64_t run_turns(P& p, Alloc alloc, Barrier barrier) {
  constexpr std::uint32_t kRegions = 6;
  constexpr std::uint32_t kRounds = 3;
  std::vector<std::uint64_t*> ptr(kRegions);
  for (std::uint32_t j = 0; j < kRegions; ++j) {
    const ProcId home = j % p.nprocs();
    rid_t id = p.me() == home ? alloc(8) : 0;
    id = p.bcast_region(id, home);
    ptr[j] = static_cast<std::uint64_t*>(p.map(id));
  }
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    for (ProcId turn = 0; turn < p.nprocs(); ++turn) {
      if (p.me() == turn) {
        for (std::uint32_t j = 0; j < kRegions; ++j) {
          std::uint64_t* x = ptr[j];
          switch ((round + turn + j) % 4) {
            case 0:
              p.start_read(x);
              p.end_read(x);
              break;
            case 1:
              p.start_write(x);
              *x += turn + 1;
              p.end_write(x);
              break;
            case 2: {
              p.start_read(x);
              const std::uint64_t v = *x;
              p.end_read(x);
              p.start_write(x);
              *x = v * 3 + 1;
              p.end_write(x);
              break;
            }
            default:
              p.start_write(x);
              *x ^= std::uint64_t(round + 1) << 8;
              p.end_write(x);
              p.start_read(x);
              p.end_read(x);
              break;
          }
        }
      }
      barrier();
    }
  }
  std::uint64_t sum = 0;
  if (p.me() == 0) {
    for (std::uint64_t* x : ptr) {
      p.start_read(x);
      sum = sum * 31 + *x;
      p.end_read(x);
    }
  }
  barrier();
  return sum;
}

TEST(Crl, EngineCountersMatchAceSc) {
  constexpr std::uint32_t kProcs = 4;
  std::uint64_t crl_sum = 0;
  Fixture c(kProcs);
  c.rt.run([&](CrlProc& cp) {
    const std::uint64_t s = run_turns(
        cp, [&](std::uint32_t n) { return cp.create(n); },
        [&] { cp.barrier(); });
    if (cp.me() == 0) crl_sum = s;
  });
  const auto cs = c.rt.aggregate_stats();
  const std::uint64_t crl_msgs = c.machine.aggregate_stats().msgs_sent;

  std::uint64_t ace_sum = 0;
  auto machine = Machine::create({.nprocs = kProcs});
  ace::Runtime rt(*machine);
  rt.run([&](ace::RuntimeProc& rp) {
    const std::uint64_t s = run_turns(
        rp, [&](std::uint32_t n) { return rp.gmalloc(ace::kDefaultSpace, n); },
        [&] { rp.ace_barrier(ace::kDefaultSpace); });
    if (rp.me() == 0) ace_sum = s;
  });
  const ace::DsmStats as = rt.aggregate_dstats();

  EXPECT_NE(crl_sum, 0u);
  EXPECT_EQ(crl_sum, ace_sum);
  EXPECT_EQ(crl_msgs, machine->aggregate_stats().msgs_sent);
  EXPECT_EQ(cs.read_misses, as.read_misses);
  EXPECT_EQ(cs.write_misses, as.write_misses);
  EXPECT_EQ(cs.invalidations, as.invalidations);
  EXPECT_EQ(cs.recalls, as.recalls);
  EXPECT_EQ(cs.fetches, as.fetches);
  // The kernel reaches every transition it claims to cover.
  EXPECT_GT(cs.write_misses, 0u);
  EXPECT_GT(cs.invalidations, 0u);
  EXPECT_GT(cs.recalls, 0u);
}

TEST(Crl, MapChargesSlowPath) {
  Fixture f(1);
  f.rt.run([](CrlProc& cp) {
    const rid_t id = cp.create(8);
    const auto t0 = cp.proc().vclock_ns();
    void* p = cp.map(id);
    EXPECT_GE(cp.proc().vclock_ns() - t0,
              cp.proc().machine().cost().map_slow_ns);
    cp.unmap(p);
  });
}

}  // namespace

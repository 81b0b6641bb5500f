// Correctness tests for the default sequentially consistent invalidation
// protocol: the full MSI state machine (grants, upgrades, invalidations,
// recalls, deferred transitions) plus randomized property tests that check
// atomicity and coherence invariants under concurrent access.

#include <gtest/gtest.h>

#include <memory>

#include <tuple>
#include <vector>

#include "ace/runtime.hpp"
#include "common/rng.hpp"

namespace {

using namespace ace;

struct Fixture {
  std::unique_ptr<am::Machine> machine_ptr;
  am::Machine& machine;
  Runtime rt;
  explicit Fixture(std::uint32_t procs)
      : machine_ptr(am::Machine::create({.nprocs = procs})),
        machine(*machine_ptr),
        rt(machine) {}
};

/// Allocate one region at proc `home` and share its id with everyone.
RegionId shared_region(RuntimeProc& rp, std::uint32_t size, am::ProcId home) {
  RegionId id = dsm::kInvalidRegion;
  if (rp.me() == home) id = rp.gmalloc(kDefaultSpace, size);
  return rp.bcast_region(id, home);
}

TEST(Sc, ReadMissFetchesFromHome) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0) {
      rp.start_write(p);
      *p = 5;
      rp.end_write(p);
    }
    rp.proc().barrier();
    if (rp.me() == 1) {
      rp.start_read(p);
      EXPECT_EQ(*p, 5u);
      rp.end_read(p);
    }
    rp.proc().barrier();
  });
  EXPECT_EQ(f.rt.aggregate_dstats().read_misses, 1u);
}

TEST(Sc, SecondReadIsAHit) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) {
      for (int i = 0; i < 10; ++i) {
        rp.start_read(p);
        rp.end_read(p);
      }
    }
    rp.proc().barrier();
  });
  EXPECT_EQ(f.rt.aggregate_dstats().read_misses, 1u);
}

TEST(Sc, WriteInvalidatesRemoteReader) {
  Fixture f(3);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    // Procs 1 and 2 cache the region.
    rp.start_read(p);
    rp.end_read(p);
    rp.proc().barrier();
    if (rp.me() == 0) {
      rp.start_write(p);
      *p = 42;
      rp.end_write(p);
    }
    rp.proc().barrier();
    rp.start_read(p);
    EXPECT_EQ(*p, 42u);
    rp.end_read(p);
    rp.proc().barrier();
  });
  EXPECT_EQ(f.rt.aggregate_dstats().invalidations, 2u);
}

TEST(Sc, RemoteWriteThenHomeRead) {
  // Home must recall the region from the remote owner.
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) {
      rp.start_write(p);
      *p = 314;
      rp.end_write(p);
    }
    rp.proc().barrier();
    if (rp.me() == 0) {
      rp.start_read(p);
      EXPECT_EQ(*p, 314u);
      rp.end_read(p);
    }
    rp.proc().barrier();
  });
  EXPECT_EQ(f.rt.aggregate_dstats().recalls, 1u);
}

TEST(Sc, RemoteWriteThenOtherRemoteRead) {
  Fixture f(3);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) {
      rp.start_write(p);
      *p = 1001;
      rp.end_write(p);
    }
    rp.proc().barrier();
    if (rp.me() == 2) {
      rp.start_read(p);
      EXPECT_EQ(*p, 1001u);
      rp.end_read(p);
    }
    rp.proc().barrier();
  });
}

TEST(Sc, OwnershipChainAcrossProcs) {
  // Each proc in turn takes exclusive ownership and increments.
  constexpr int kProcs = 5;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (std::uint32_t turn = 0; turn < kProcs; ++turn) {
      if (rp.me() == turn) {
        rp.start_write(p);
        *p += 1;
        rp.end_write(p);
      }
      rp.proc().barrier();
    }
    rp.start_read(p);
    EXPECT_EQ(*p, std::uint64_t(kProcs));
    rp.end_read(p);
    rp.proc().barrier();
  });
}

TEST(Sc, UpgradeFromSharedToModified) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) {
      rp.start_read(p);  // become a sharer
      rp.end_read(p);
      rp.start_write(p);  // upgrade (no data transfer needed)
      *p = 7;
      rp.end_write(p);
    }
    rp.proc().barrier();
    rp.start_read(p);
    EXPECT_EQ(*p, 7u);
    rp.end_read(p);
    rp.proc().barrier();
  });
}

TEST(Sc, HomeWriteInvalidatesSharers) {
  constexpr int kProcs = 4;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    rp.start_read(p);
    rp.end_read(p);
    rp.proc().barrier();
    if (rp.me() == 0) {
      rp.start_write(p);  // must invalidate 3 remote sharers
      *p = 555;
      rp.end_write(p);
    }
    rp.proc().barrier();
    rp.start_read(p);
    EXPECT_EQ(*p, 555u);
    rp.end_read(p);
    rp.proc().barrier();
  });
  EXPECT_EQ(f.rt.aggregate_dstats().invalidations, 3u);
}

TEST(Sc, LargeRegionBulkTransfer) {
  // User-specified granularity (§2.3): one region = one bulk transfer.
  Fixture f(2);
  constexpr std::uint32_t kWords = 4096;
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, kWords * 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0) {
      rp.start_write(p);
      for (std::uint32_t i = 0; i < kWords; ++i) p[i] = i * i;
      rp.end_write(p);
    }
    rp.proc().barrier();
    if (rp.me() == 1) {
      rp.start_read(p);
      for (std::uint32_t i = 0; i < kWords; i += 97)
        EXPECT_EQ(p[i], std::uint64_t(i) * i);
      rp.end_read(p);
    }
    rp.proc().barrier();
  });
  // One data fetch moved the whole region.
  EXPECT_EQ(f.rt.aggregate_dstats().read_misses, 1u);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

// No padding: gtest prints a parameter's raw bytes into the test's listed
// name, so padding would put stray bytes there that differ per process.
struct PropParams {
  std::uint32_t procs;
  std::uint32_t regions;
  std::uint64_t ops;
  std::uint64_t seed;
};

class ScProperty : public ::testing::TestWithParam<PropParams> {};

// Atomicity + coherence: concurrent read-modify-writes through start_write /
// end_write must behave like atomic increments (no lost updates), and values
// observed by any reader must never exceed the number of increments issued.
TEST_P(ScProperty, ConcurrentIncrementsAreAtomic) {
  const auto prm = GetParam();
  Fixture f(prm.procs);
  std::vector<std::uint64_t> expected(prm.regions, 0);
  std::vector<std::vector<std::uint64_t>> per_proc_incs(
      prm.procs, std::vector<std::uint64_t>(prm.regions, 0));

  f.rt.run([&](RuntimeProc& rp) {
    // Regions are spread over homes round-robin.
    std::vector<RegionId> ids(prm.regions);
    for (std::uint32_t r = 0; r < prm.regions; ++r) {
      const am::ProcId home = r % prm.procs;
      RegionId id = dsm::kInvalidRegion;
      if (rp.me() == home) id = rp.gmalloc(kDefaultSpace, 8);
      ids[r] = rp.bcast_region(id, home);
    }
    std::vector<std::uint64_t*> ptr(prm.regions);
    for (std::uint32_t r = 0; r < prm.regions; ++r)
      ptr[r] = static_cast<std::uint64_t*>(rp.map(ids[r]));

    ace::Rng rng(prm.seed * 1000 + rp.me());
    for (std::uint32_t i = 0; i < prm.ops; ++i) {
      const auto r = static_cast<std::uint32_t>(rng.next_below(prm.regions));
      if (rng.next_bool(0.5)) {
        rp.start_write(ptr[r]);
        *ptr[r] += 1;
        rp.end_write(ptr[r]);
        per_proc_incs[rp.me()][r] += 1;
      } else {
        rp.start_read(ptr[r]);
        const std::uint64_t v = *ptr[r];
        rp.end_read(ptr[r]);
        // A read can never observe more increments than could have happened.
        EXPECT_LE(v, std::uint64_t(prm.procs) * prm.ops);
      }
    }
    rp.proc().barrier();
  });

  for (std::uint32_t r = 0; r < prm.regions; ++r)
    for (std::uint32_t p = 0; p < prm.procs; ++p)
      expected[r] += per_proc_incs[p][r];

  // Final values must equal the exact number of increments (no lost
  // updates).  Check in a second run: proc 0 reads every region; ids are
  // re-derived from the deterministic allocation order (each home allocated
  // its regions first, so the j-th region homed at p has id (p, j+1)).
  std::vector<std::uint64_t> finals(prm.regions, 0);
  f.rt.run([&](RuntimeProc& rp) {
    std::vector<RegionId> ids(prm.regions);
    std::vector<std::uint64_t> next_seq_at(prm.procs, 1);
    for (std::uint32_t r = 0; r < prm.regions; ++r) {
      const am::ProcId home = r % prm.procs;
      ids[r] = dsm::make_region_id(home, next_seq_at[home]++);
    }
    if (rp.me() == 0) {
      for (std::uint32_t r = 0; r < prm.regions; ++r) {
        auto* p = static_cast<std::uint64_t*>(rp.map(ids[r]));
        rp.start_read(p);
        finals[r] = *p;
        rp.end_read(p);
      }
    }
    rp.proc().barrier();
  });
  for (std::uint32_t r = 0; r < prm.regions; ++r)
    EXPECT_EQ(finals[r], expected[r]) << "region " << r;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScProperty,
    ::testing::Values(PropParams{2, 1, 200, 1}, PropParams{2, 4, 200, 2},
                      PropParams{4, 2, 150, 3}, PropParams{4, 8, 150, 4},
                      PropParams{8, 3, 100, 5}, PropParams{8, 16, 100, 6},
                      PropParams{3, 1, 300, 7}, PropParams{6, 6, 120, 8}));

// Monotonic single-writer visibility: one producer increments a counter;
// readers must observe a non-decreasing sequence (coherence: a reader never
// goes back in time on the same region).
TEST(Sc, SingleWriterMonotonicReads) {
  constexpr int kProcs = 4;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0) {
      for (std::uint64_t i = 1; i <= 100; ++i) {
        rp.start_write(p);
        *p = i;
        rp.end_write(p);
      }
    } else {
      std::uint64_t last = 0;
      for (int i = 0; i < 100; ++i) {
        rp.start_read(p);
        const std::uint64_t v = *p;
        rp.end_read(p);
        EXPECT_GE(v, last);
        last = v;
      }
    }
    rp.proc().barrier();
  });
}

TEST(Sc, ReadersDeferInvalidationUntilEndRead) {
  // While a reader is inside start_read..end_read, a writer's invalidation
  // must not destroy the data under it; the writer completes only after the
  // reader ends.  We can't observe interleaving directly in a blocking
  // model; instead check the data a long-held read sees stays intact.
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const RegionId id = shared_region(rp, 64, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0) {
      rp.start_write(p);
      for (int i = 0; i < 8; ++i) p[i] = 7;
      rp.end_write(p);
    }
    rp.proc().barrier();
    if (rp.me() == 1) {
      rp.start_read(p);
      const std::uint64_t first = p[0];
      // Busy "work" while proc 0 is trying to write; our copy must stay.
      volatile int sink = 0;
      for (int spin = 0; spin < 100000; ++spin) {
        sink = spin;
      }
      static_cast<void>(sink);
      rp.proc().poll();  // give the invalidation a chance to arrive
      EXPECT_EQ(p[0], first);
      rp.end_read(p);
    } else {
      rp.start_write(p);  // blocks until proc 1's end_read
      p[0] = 9;
      rp.end_write(p);
    }
    rp.proc().barrier();
    rp.start_read(p);
    EXPECT_EQ(p[0], 9u);
    rp.end_read(p);
    rp.proc().barrier();
  });
}

}  // namespace
